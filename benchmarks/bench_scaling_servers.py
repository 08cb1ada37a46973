"""Cluster-size scaling sweep: the metadata plane under growing clock width.

The paper's central scalability tension is that vector clocks grow linearly
with the server count, so every message's metadata gets wider as the cluster
scales — and its answer is wire-level delta compression (Section III-A,
reproduced in :mod:`repro.clocks.compression` and wired into the transport's
size accounting).  This sweep runs SSS from 4 to 256 servers and records,
per datapoint, both the simulator's own performance (events/sec, wall
seconds) and the clock-metadata accounting: mean/max encoded clock bytes per
message and the achieved compression ratio against the dense ``8 * n_nodes``
representation.  ``BENCH_scaling.json`` is the machine-readable output the
CI smoke job gates on.

Every datapoint runs on the serial engine with bounded-memory accounting:
streaming metrics plus windowed online consistency checking
(``record_history="windowed"``), whose verdict lands in ``consistency_ok``.

The sweep holds the *total* offered load fixed (classic scale-out design:
the same client population spread over more servers) rather than growing it
with the cluster; with per-node load fixed instead, the inter-message gap on
every channel grows with the cluster and the reference clocks go stale,
which measures load growth, not clock-width growth.  Past
``REPRO_BENCH_SCALING_CLIENTS`` servers the per-node count floors at one
client per node, so load grows again.

Environment knobs (on top of the shared ones in :mod:`benchmarks.common`):

* ``REPRO_BENCH_SCALING_NODES`` — comma-separated server counts
  (default ``4,8,16,32,64,128,256``).
* ``REPRO_BENCH_SCALING_CLIENTS`` — total closed-loop clients spread over
  the cluster (default 64; per-node count is ``max(1, total // n_nodes)``).
* ``REPRO_BENCH_SCALING_DURATION_US`` — simulated microseconds per datapoint
  (default: the shared ``REPRO_BENCH_DURATION_US``, capped at 40 000 — the
  widest points cost real wall-clock time).
"""

from __future__ import annotations

import os

import pytest

from benchmarks.common import (
    RECORDER,
    SETTINGS,
    flush_bench_json,
    run_once,
    shape_checks_enabled,
)
from repro.common.config import ClusterConfig, WorkloadConfig
from repro.harness.reporting import format_table
from repro.harness.runner import ExperimentPoint, run_points


def _scaling_nodes() -> tuple:
    raw = os.environ.get("REPRO_BENCH_SCALING_NODES", "4,8,16,32,64,128,256")
    return tuple(int(part) for part in raw.split(",") if part)


def _scaling_duration_us() -> float:
    raw = os.environ.get("REPRO_BENCH_SCALING_DURATION_US")
    if raw:
        return float(raw)
    return min(SETTINGS.duration_us, 40_000.0)


def _total_clients() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALING_CLIENTS", 64))


@pytest.mark.benchmark(group="scaling")
def test_scaling_servers(benchmark):
    """4 -> 256 servers: throughput, events/sec and encoded clock bytes."""
    node_counts = _scaling_nodes()
    duration_us = _scaling_duration_us()
    warmup_us = min(SETTINGS.warmup_us, duration_us / 4)
    total_clients = _total_clients()
    workload = WorkloadConfig(read_only_fraction=0.5, read_only_txn_keys=2)

    def _point(n_nodes: int) -> ExperimentPoint:
        return ExperimentPoint(
            protocol="sss",
            config=ClusterConfig(
                n_nodes=n_nodes,
                n_keys=SETTINGS.n_keys,
                replication_degree=2,
                clients_per_node=max(1, total_clients // n_nodes),
                seed=SETTINGS.seed,
            ),
            workload=workload,
            duration_us=duration_us,
            warmup_us=warmup_us,
            label=n_nodes,
            streaming_metrics=True,
            record_history="windowed",
        )

    def sweep():
        points = [_point(n_nodes) for n_nodes in node_counts]
        results = {}
        for n_nodes, result in run_points(points):
            RECORDER.record(result)
            results[n_nodes] = result.metrics
        return results

    results = run_once(benchmark, sweep)
    payload = flush_bench_json("scaling")
    wall_by_nodes = {
        point["n_nodes"]: point["wall_seconds"] for point in payload["datapoints"]
    }

    columns = [f"{n} srv" for n in node_counts]
    rows = {
        "throughput (KTx/s)": [
            results[n].throughput_ktps for n in node_counts
        ],
        "clock B/clock (delta)": [
            results[n].clock_bytes_mean for n in node_counts
        ],
        "clock B/clock (dense)": [float(1 + 8 * n) for n in node_counts],
        "saved B/clock": [
            (1 + 8 * n) - results[n].clock_bytes_mean for n in node_counts
        ],
        "compression ratio": [
            results[n].clock_compression_ratio for n in node_counts
        ],
        "wall seconds": [wall_by_nodes[n] for n in node_counts],
    }
    print()
    print(
        format_table(
            f"Cluster-size sweep (SSS, 50% read-only, rf=2, "
            f"{SETTINGS.n_keys} keys)",
            columns,
            rows,
            value_format="{:.2f}",
        )
    )
    print(
        "totals: events/sec="
        f"{payload['totals']['events_per_sec']}, "
        f"datapoints={payload['totals']['datapoints']}"
    )

    # The sweep must actually have recorded clock metadata at every point,
    # and every point must carry its verdict and have kept the contract.
    for n_nodes in node_counts:
        assert results[n_nodes].clock_bytes_mean is not None
        verdict = results[n_nodes].extra.get("consistency_ok")
        assert verdict == 1.0, f"consistency verdict {verdict!r} at {n_nodes} servers"

    if not shape_checks_enabled():
        return
    smallest, largest = node_counts[0], node_counts[-1]
    # Delta compression must beat the dense representation at every width,
    # and the *absolute* bytes saved per clock must grow as clocks widen —
    # that is where compression bends the metadata-bytes curve away from
    # the dense one.  (The *ratio* legitimately degrades with the cluster
    # at steady-state load: more servers commit between two messages of any
    # one channel, so the per-channel reference clock goes staler; the
    # sweep records that effect rather than hiding it.)
    for n_nodes in node_counts:
        assert results[n_nodes].clock_compression_ratio < 1.0, (
            f"compression must beat dense clocks at {n_nodes} servers"
        )
    saved_small = (1 + 8 * smallest) - results[smallest].clock_bytes_mean
    saved_large = (1 + 8 * largest) - results[largest].clock_bytes_mean
    assert saved_large > saved_small, (
        "absolute bytes saved per clock must grow with the clock width"
    )
