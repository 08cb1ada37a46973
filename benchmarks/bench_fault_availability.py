"""Fault-plane availability: all four protocols under crash and partition.

The original papers evaluated Walter and ROCOCO under failures; the SSS
paper only argues fail-free behaviour on shared infrastructure.  This
benchmark closes that gap on the reproduction's side: every protocol runs
the same workload under increasing fault intensity, and the per-phase
availability (phase throughput relative to the run's best fail-free phase)
is recorded to ``BENCH_faults.json``.

Intensities:

* ``none`` — fail-free control (availability trivially 1.0, no phases);
* ``crash`` — one node crash-stops a quarter into the run and restarts
  after 15 % of the run;
* ``crash+partition`` — the crash plus a buffered (eventual-delivery)
  partition later in the run;
* ``churn`` — rolling restarts: every node crash-stops in turn (staggered
  windows covering most of the run), measuring steady-state availability
  under continuous churn;
* ``minority-part`` / ``split-part`` — a buffered partition cutting off a
  single node vs. splitting the cluster in half, mid-run (the two coincide
  in shape at 3 nodes; the contrast appears from 4 nodes up).

The schedule is :func:`benchmarks.common.fault_specs`, which the seed
sweep (``benchmarks/seed_sweep.py``) runs too.

What to expect (and what the assertions pin, loosely, because this is a
scaled-down simulator sweep): availability collapses during the fault
windows and recovers after crash-recovery/heal — and **every** protocol
keeps its own consistency contract under every intensity.  Since the
crash-consistency work (ROCOCO's piece redo log with order fencing,
Walter's durable ack-watermarked propagation), the weaker protocols no
longer trade correctness for availability: each point runs with history
recording and its protocol's contract checks (external consistency for
SSS/2PC, serializability plus committed reads for ROCOCO, committed reads
plus replica convergence for Walter) are asserted unconditionally —
availability during the fault window is the only remaining cost.

Environment: ``REPRO_BENCH_FAULTS_DURATION_US`` overrides the per-point
duration (default: the suite-wide ``REPRO_BENCH_DURATION_US``).

``REPRO_BENCH_FAULTS_TRAFFIC`` switches the whole sweep to **open-loop**
load: set it to a traffic phase spec (e.g. ``"poisson rate=6000"``) and
every point runs under that constant offered load instead of closed-loop
clients.  Closed-loop clients self-throttle during a fault — the crashed
node's clients simply stop issuing, flattering the availability number —
whereas under constant offered traffic, lost capacity shows up as lost
goodput and shed arrivals, which is the honest availability a production
deployment would see.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.common import (
    RECORDER,
    SETTINGS,
    fault_specs,
    flush_bench_json,
    run_once,
    shape_checks_enabled,
)
from repro.common.config import ClusterConfig, FaultPlan, TrafficPlan, WorkloadConfig
from repro.harness.reporting import format_table
from repro.harness.sweep import ExperimentPoint, run_points

#: (protocol, replication degree) — ROCOCO is compared without replication,
#: as in the paper's Figure 6 configuration.
PROTOCOLS = (("sss", 2), ("2pc", 2), ("walter", 2), ("rococo", 1))

DURATION_US = float(os.environ.get("REPRO_BENCH_FAULTS_DURATION_US", SETTINGS.duration_us))

#: Optional open-loop mode: a traffic phase spec driving every point at
#: constant offered load (e.g. "poisson rate=6000"); empty = closed loop.
TRAFFIC_SPEC = os.environ.get("REPRO_BENCH_FAULTS_TRAFFIC", "").strip()


def _traffic_plan() -> TrafficPlan:
    if not TRAFFIC_SPEC:
        return TrafficPlan()
    return TrafficPlan.parse([TRAFFIC_SPEC])


INTENSITIES = (
    "none",
    "crash",
    "crash+partition",
    "churn",
    "minority-part",
    "split-part",
)


def _sweep():
    n_nodes = SETTINGS.node_counts[0]
    workload = WorkloadConfig(read_only_fraction=0.5)
    points = [
        ExperimentPoint(
            protocol=protocol,
            config=ClusterConfig(
                n_nodes=n_nodes,
                n_keys=SETTINGS.n_keys,
                replication_degree=min(replication_degree, n_nodes),
                clients_per_node=SETTINGS.clients_per_node,
                seed=SETTINGS.seed,
                faults=FaultPlan.parse(fault_specs(intensity, DURATION_US, n_nodes)),
                traffic=_traffic_plan(),
            ),
            workload=workload,
            duration_us=DURATION_US,
            warmup_us=0.0,
            label=(protocol, intensity),
            # Contract checking: record the history and run the protocol's
            # own consistency checks in the worker; the uniform drain keeps
            # the convergence check valid for the fail-free control too.
            record_history=True,
            drain_us=25_000.0,
        )
        for protocol, replication_degree in PROTOCOLS
        for intensity in INTENSITIES
    ]
    availability = {}
    for (protocol, intensity), result in run_points(points):
        RECORDER.record(result)
        metrics = result.metrics
        availability[(protocol, intensity)] = {
            "availability_min": metrics.extra.get("availability_min"),
            "stalled_clients": metrics.extra.get("stalled_clients", 0.0),
            "leaked_writers": metrics.extra.get("quiescence_leaked_writers", 0.0),
            "phases": metrics.phases,
            "committed": metrics.committed,
            "consistency_ok": metrics.extra.get("consistency_ok"),
            "consistency_violations": metrics.extra.get("consistency_violations", 0.0),
            "consistency_detail": metrics.extra.get("consistency_detail", ""),
            # Open-loop mode only: what the constant offered load revealed.
            "offered": metrics.extra.get("offered"),
            "goodput_tps": metrics.extra.get("goodput_tps"),
            "shed": (
                metrics.extra.get("dropped", 0.0) + metrics.extra.get("timed_out", 0.0)
                if TRAFFIC_SPEC
                else None
            ),
        }
    return availability


@pytest.mark.benchmark(group="faults")
def test_fault_availability(benchmark):
    availability = run_once(benchmark, _sweep)
    payload = flush_bench_json("faults")
    assert payload["totals"]["datapoints"] == len(PROTOCOLS) * len(INTENSITIES)

    rows = {}
    for protocol, _rf in PROTOCOLS:
        rows[protocol] = [
            (
                availability[(protocol, intensity)]["availability_min"]
                if intensity != "none"
                else 1.0
            )
            or 0.0
            for intensity in INTENSITIES
        ]
    print()
    print(
        format_table(
            f"Fault availability (min per-phase, {SETTINGS.node_counts[0]} nodes, "
            f"{DURATION_US / 1000:.0f} ms)",
            list(INTENSITIES),
            rows,
        )
    )

    # Structural invariants, valid at any duration: every faulty point
    # reports phases, and availabilities are well-formed fractions.
    for (protocol, intensity), point in availability.items():
        if intensity == "none":
            if not TRAFFIC_SPEC:
                assert not point["phases"], "fail-free runs have no fault phases"
            continue
        assert point["phases"], f"{protocol}/{intensity} lost its phase report"
        for phase in point["phases"]:
            if phase["availability"] is not None:
                assert 0.0 <= phase["availability"] <= 1.0

    # Crash consistency, valid at any duration and asserted unconditionally:
    # every protocol keeps its own contract under every fault intensity.
    for (protocol, intensity), point in availability.items():
        assert point["consistency_ok"] == 1.0, (
            f"{protocol}/{intensity} violated its consistency contract "
            f"({point['consistency_violations']:.0f} violations): "
            f"{point['consistency_detail']}"
        )

    if not shape_checks_enabled():
        return
    for protocol, _rf in PROTOCOLS:
        none_committed = availability[(protocol, "none")]["committed"]
        crash_committed = availability[(protocol, "crash")]["committed"]
        # Faults must actually bite: a crash window cannot leave throughput
        # untouched.
        assert crash_committed < none_committed, (
            f"{protocol}: crash intensity did not reduce committed work"
        )
        # The fault windows themselves must show degraded availability.
        crash_phases = [
            phase
            for phase in availability[(protocol, "crash")]["phases"]
            if "crash" in phase["label"] and phase["availability"] is not None
        ]
        assert crash_phases and min(p["availability"] for p in crash_phases) < 0.8
    # SSS must recover after the crash heals: its final fail-free phase beats
    # its crash phase.
    sss_phases = availability[("sss", "crash")]["phases"]
    crash_avail = next(p["availability"] for p in sss_phases if "crash" in p["label"])
    tail_avail = sss_phases[-1]["availability"]
    assert tail_avail is not None and tail_avail > crash_avail, (
        "SSS availability failed to recover after the crash window"
    )
