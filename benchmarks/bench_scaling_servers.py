"""Cluster-size scaling sweep: the metadata plane under growing clock width.

The paper's central scalability tension is that vector clocks grow linearly
with the server count, so every message's metadata gets wider as the cluster
scales (Section III-A).  This sweep runs SSS from 4 to 256 servers and
records, per datapoint, both the simulator's own performance (events/sec,
wall seconds) and ``bytes_per_msg``: modelled wire bytes per message, every
clock charged densely at ``8 * n_nodes`` bytes.  The paper's answer,
metadata compression, is measured by the ``ablation`` row of
``benchmarks/figures.py``, not here.  ``BENCH_scaling.json`` is the
machine-readable output the CI smoke job gates on.

Every datapoint runs on the serial engine with bounded-memory accounting:
streaming metrics plus windowed online consistency checking
(``record_history="windowed"``), whose verdict lands in ``consistency_ok``.

The sweep holds the *total* offered load fixed (classic scale-out design:
the same client population spread over more servers) rather than growing it
with the cluster, so the points differ in clock width, not in load.  Past
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

from benchmarks.common import RECORDER, SETTINGS, flush_bench_json, run_once
from repro.common.config import ClusterConfig, WorkloadConfig
from repro.harness.reporting import format_table
from repro.harness.sweep import ExperimentPoint, run_points


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
    """4 -> 256 servers: throughput, events/sec and wire bytes per message."""
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
        "bytes/msg": [results[n].bytes_per_msg for n in node_counts],
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

    # Every point must carry its verdict and have kept the contract.
    for n_nodes in node_counts:
        verdict = results[n_nodes].extra.get("consistency_ok")
        assert verdict == 1.0, f"consistency verdict {verdict!r} at {n_nodes} servers"

    # The paper's tension itself: a message's metadata widens with the
    # cluster, because every clock it carries has one entry per server.
    per_msg = [results[n].bytes_per_msg for n in node_counts]
    assert all(small < large for small, large in zip(per_msg, per_msg[1:])), (
        f"bytes per message must grow with the server count: {per_msg}"
    )
