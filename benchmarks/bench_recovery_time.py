"""Recovery-time experiment: time-to-full-availability after a crash.

The fault-availability bench reports *per-phase* availability, which hides
how quickly a protocol climbs back to full throughput once the crashed node
restarts.  This experiment measures that directly: for each protocol the
same workload runs under a single crash-restart fault while sweeping

* the crash **duration** (how long the node is down), and
* ``crash_resubscribe_us`` (the fault-mode fallback timer of every
  re-driven round: re-subscription, pre-commit replay, read waves),

and the committed-transaction timestamps are binned into small windows to
find the first post-restart moment where throughput is back to
``RECOVERY_FRACTION`` of the pre-crash rate.  ``recovery_us`` (measured
from the restart instant) is the headline number per datapoint, recorded in
``BENCH_recovery.json``.

Expected shape: recovery follows the down time, not the timer — every
round waiting on the crashed node re-sends the instant its ``Rejoin``
arrives, so throughput is back within the first bin after the restart
whatever the down time and ``crash_resubscribe_us`` (0 ms at every point
of the 80 ms sweep; 2-6 ms when the timer drove the re-sends).  The timer
only matters for what no restart announces (drop-mode partitions).

Environment: ``REPRO_BENCH_RECOVERY_DURATION_US`` overrides the per-point
duration (default: the suite-wide ``REPRO_BENCH_DURATION_US``).
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from benchmarks.common import (
    RECORDER,
    SETTINGS,
    flush_bench_json,
    run_once,
    shape_checks_enabled,
)
from repro.common.config import ClusterConfig, FaultPlan, TimeoutConfig, WorkloadConfig
from repro.harness.reporting import format_table
from repro.harness.sweep import ExperimentPoint, run_points

PROTOCOLS = ("sss", "2pc")

DURATION_US = float(os.environ.get("REPRO_BENCH_RECOVERY_DURATION_US", SETTINGS.duration_us))

#: Crash durations, as fractions of the run.
CRASH_FRACTIONS = (0.10, 0.25)
#: Fault-mode fallback timer values (``crash_resubscribe_us``, microseconds).
RESUBSCRIBE_US = (2_000.0, 5_000.0)

CRASH_AT_FRACTION = 0.25
#: Throughput fraction of the pre-crash rate that counts as "recovered".
RECOVERY_FRACTION = 0.7
#: Width of the post-restart throughput bins.
BIN_US = 2_000.0


def recovery_time_us(commit_times, crash_at, restart_at, end):
    """First post-restart instant where throughput is back, or ``None``.

    The pre-crash committed rate over ``[0, crash_at)`` is the reference;
    post-restart commits are binned into ``BIN_US`` windows and the first
    bin reaching ``RECOVERY_FRACTION`` of the reference marks recovery
    (``recovery_us`` is that bin's start relative to the restart).
    """
    if crash_at <= 0:
        return None
    reference_rate = sum(1 for t in commit_times if t < crash_at) / crash_at
    if reference_rate <= 0:
        return None
    start = restart_at
    while start + BIN_US <= end:
        committed = sum(1 for t in commit_times if start <= t < start + BIN_US)
        if committed / BIN_US >= RECOVERY_FRACTION * reference_rate:
            return start - restart_at
        start += BIN_US
    return None


def _sweep():
    workload = WorkloadConfig(read_only_fraction=0.5)
    n_nodes = SETTINGS.node_counts[0]
    crash_at = CRASH_AT_FRACTION * DURATION_US
    points = []
    for protocol in PROTOCOLS:
        for crash_fraction in CRASH_FRACTIONS:
            for resubscribe_us in RESUBSCRIBE_US:
                crash_for = crash_fraction * DURATION_US
                config = ClusterConfig(
                    n_nodes=n_nodes,
                    n_keys=SETTINGS.n_keys,
                    replication_degree=min(2, n_nodes),
                    clients_per_node=SETTINGS.clients_per_node,
                    seed=SETTINGS.seed,
                    timeouts=replace(TimeoutConfig(), crash_resubscribe_us=resubscribe_us),
                    faults=FaultPlan.parse(
                        [f"crash node={1 % n_nodes} at={crash_at} for={crash_for}"]
                    ),
                )
                points.append(
                    ExperimentPoint(
                        protocol=protocol,
                        config=config,
                        workload=workload,
                        duration_us=DURATION_US,
                        warmup_us=0.0,
                        label=(protocol, crash_fraction, resubscribe_us),
                    )
                )
    recovery = {}
    for (protocol, crash_fraction, resubscribe_us), result in run_points(points):
        crash_for = crash_fraction * DURATION_US
        commit_times = [
            t for stats in result.clients for t in stats.commit_times_us
        ]
        recovered = recovery_time_us(
            commit_times,
            crash_at=crash_at,
            restart_at=crash_at + crash_for,
            end=DURATION_US,
        )
        if recovered is not None:
            result.metrics.extra["recovery_us"] = round(recovered, 1)
        RECORDER.record(result)
        recovery[(protocol, crash_fraction, resubscribe_us)] = {
            "recovery_us": recovered,
            "availability_min": result.metrics.extra.get("availability_min"),
            "stalled_clients": result.metrics.extra.get("stalled_clients", 0.0),
            "committed": result.metrics.committed,
        }
    return recovery


@pytest.mark.benchmark(group="recovery")
def test_recovery_time(benchmark):
    recovery = run_once(benchmark, _sweep)
    payload = flush_bench_json("recovery")
    expected = len(PROTOCOLS) * len(CRASH_FRACTIONS) * len(RESUBSCRIBE_US)
    assert payload["totals"]["datapoints"] == expected

    rows = {}
    columns = [
        f"down {int(f * 100)}% / retry {int(r / 1000)}ms"
        for f in CRASH_FRACTIONS
        for r in RESUBSCRIBE_US
    ]
    for protocol in PROTOCOLS:
        rows[protocol] = [
            (
                recovery[(protocol, f, r)]["recovery_us"] / 1000.0
                if recovery[(protocol, f, r)]["recovery_us"] is not None
                else float("nan")
            )
            for f in CRASH_FRACTIONS
            for r in RESUBSCRIBE_US
        ]
    print()
    print(
        format_table(
            f"Time to {int(RECOVERY_FRACTION * 100)}% availability after "
            f"restart (ms, {DURATION_US / 1000:.0f} ms runs)",
            columns,
            rows,
        )
    )

    # Structural invariants, valid at any duration.
    for point in recovery.values():
        assert point["committed"] > 0
        recovered = point["recovery_us"]
        if recovered is not None:
            assert 0.0 <= recovered <= DURATION_US

    if not shape_checks_enabled():
        return
    # At full duration both externally consistent protocols must actually
    # recover (the whole point of the recovery machinery), with no stalls.
    for (protocol, _f, _r), point in recovery.items():
        assert point["recovery_us"] is not None, (
            f"{protocol} never returned to "
            f"{RECOVERY_FRACTION:.0%} of its pre-crash rate"
        )
        assert point["stalled_clients"] == 0
