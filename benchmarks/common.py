"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark — the paper-figure table (:mod:`benchmarks.figures`) and the
plane sweeps, one module each — follows the same pattern:

1. sweep the figure's parameters at a scaled-down size (see
   :class:`BenchSettings`) so the whole suite runs
   in minutes of wall-clock time on a laptop;
2. print the table of committed-transactions-per-second series that mirrors
   the paper's figure;
3. assert the qualitative *shape* the paper reports (who wins, how the gap
   moves) — absolute numbers are not comparable because the substrate is a
   simulator rather than the authors' CloudLab testbed;
4. emit a machine-readable ``BENCH_<figure>.json`` (via
   :func:`flush_bench_json`) recording, per datapoint, the simulated
   throughput *and* the simulator's own performance (events/sec, committed
   transactions per wall second, wall-clock), so the perf trajectory of the
   substrate is tracked PR-over-PR.

Sweeps fan their independent datapoints across CPU cores with
:func:`repro.harness.runner.run_points` (each datapoint is an
isolated simulation with a fixed seed, so results are byte-identical to a
serial run).

Environment knobs:

* ``REPRO_BENCH_DURATION_US`` — simulated microseconds per datapoint
  (default 80 000).
* ``REPRO_BENCH_NODES`` — comma-separated node counts for the sweeps
  (default ``3,6``).
* ``REPRO_BENCH_KEYS`` — number of keys (default 400).
* ``REPRO_BENCH_CLIENTS`` — closed-loop clients per node (default 3).
* ``REPRO_BENCH_PARALLEL`` — worker processes for sweeps (``0``/``1``
  serial; default: all CPUs but one).
* ``REPRO_BENCH_OUT`` — directory receiving the ``BENCH_*.json`` files
  (default: current directory).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.harness.runner import ExperimentResult


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_ints(name: str, default: Tuple[int, ...]) -> Tuple[int, ...]:
    raw = os.environ.get(name)
    if not raw:
        return default
    return tuple(int(part) for part in raw.split(",") if part)


@dataclass(frozen=True)
class BenchSettings:
    """Scaled-down sweep parameters used by the benchmark suite."""

    node_counts: Tuple[int, ...] = _env_ints("REPRO_BENCH_NODES", (3, 6))
    n_keys: int = _env_int("REPRO_BENCH_KEYS", 400)
    clients_per_node: int = _env_int("REPRO_BENCH_CLIENTS", 3)
    duration_us: float = float(_env_int("REPRO_BENCH_DURATION_US", 80_000))
    warmup_us: float = 15_000.0
    seed: int = 2024


SETTINGS = BenchSettings()


def shape_checks_enabled() -> bool:
    """Whether the plane sweeps' qualitative shape assertions should run.

    Their shapes need enough simulated time to escape warm-up noise; the CI
    benchmark smoke runs them with a tiny ``REPRO_BENCH_DURATION_US``, where
    a marginal shape flip is meaningless.  The paper-figure table
    (:mod:`benchmarks.figures`) does not consult this: its claims run at
    every duration.
    """
    return SETTINGS.duration_us >= 50_000


# ----------------------------------------------------------------------
# The fault schedule shared by the fault bench and the seed sweep
# ----------------------------------------------------------------------
def fault_specs(variant: str, duration_us: float, n_nodes: int) -> List[str]:
    """Fault-spec strings of one fault variant, scaled to the run's length.

    A crash stops node 1 a quarter into the run for 15 % of it; a
    partition cuts node 0 off from the rest (``split-part``: one half of
    the cluster from the other) at 60 % of the run for 15 % of it,
    buffering what crosses it (``crash+drop`` loses it instead).
    The fault bench runs ``none``, ``crash``, ``crash+partition``,
    ``churn``, ``minority-part`` and ``split-part``; the seed sweep runs
    ``none``, ``crash``, ``crash+partition`` and ``crash+drop``.
    """
    crash = f"crash node={1 % n_nodes} at={0.25 * duration_us} for={0.15 * duration_us}"
    window = f"at={0.60 * duration_us} for={0.15 * duration_us}"
    rest = ",".join(str(node) for node in range(1, n_nodes))
    partition = f"partition groups=0|{rest} {window}"
    if variant == "none":
        return []
    if variant == "crash":
        return [crash]
    if variant == "crash+partition":
        return [crash, partition]
    if variant == "crash+drop":
        return [crash, partition + " mode=drop"]
    if variant == "churn":
        # Rolling restart: crash node i at staggered offsets, one node down
        # at a time, windows covering the middle ~60 % of the run.
        stagger = 0.6 * duration_us / n_nodes
        return [
            f"crash node={node} at={0.2 * duration_us + node * stagger} for={0.6 * stagger}"
            for node in range(n_nodes)
        ]
    if variant == "minority-part":
        return [partition]
    if variant == "split-part":
        # Even split: half the cluster on each side.  At 3 nodes a two-group
        # partition is always 1-vs-rest, so this coincides with
        # minority-part in shape (only the cut membership differs); the
        # contrast appears from 4 nodes up (REPRO_BENCH_NODES).
        half = max(1, n_nodes // 2)
        left = ",".join(str(node) for node in range(half))
        right = ",".join(str(node) for node in range(half, n_nodes))
        return [f"partition groups={left}|{right} {window}"]
    raise ValueError(f"unknown fault variant {variant!r}")


# ----------------------------------------------------------------------
# Machine-readable benchmark output (BENCH_<figure>.json)
# ----------------------------------------------------------------------
#: ``metrics.extra`` fields copied into a datapoint whenever the run set them.
_OPTIONAL_EXTRAS = (
    # Modelled wire bytes per sent message (present whenever the run sent
    # messages; see run_experiment).
    "bytes_per_msg",
    # Traffic-plane accounting (present when the config carried a traffic
    # plan, i.e. the run was open-loop; see repro.workload.openloop).
    "open_loop",
    "offered",
    "offered_tps",
    "goodput_tps",
    "dropped",
    "timed_out",
    "queue_depth_max",
    "queue_depth_mean",
    # Parallel-engine accounting (present when the point ran on the
    # node-sharded conservative engine; see repro.harness.parallel).
    "parallel_shards",
    "parallel_sync_rounds",
    "parallel_null_messages",
    "parallel_cross_shard_messages",
    "parallel_shard_events_min",
    "parallel_shard_events_max",
    "parallel_shard_utilization_min",
    # Fault-plane accounting (present when the config carried a fault
    # plan; see run_experiment and ExperimentMetrics.phases).
    "availability_min",
    "stalled_clients",
    "quiescence_leaked_writers",
    "quiescence_commit_queue",
    "fault_events",
    "recovery_us",
    # Crash-consistency verdicts (present when the point ran with
    # record_history; see ExperimentPoint / _run_point_worker).
    "consistency_ok",
    "consistency_violations",
)


@dataclass
class _BenchRecorder:
    """Accumulates per-datapoint records until a figure flushes them."""

    pending: List[Dict] = field(default_factory=list)

    def record(self, result: ExperimentResult) -> None:
        metrics = result.metrics
        wall = float(metrics.extra.get("wall_seconds", 0.0))
        events = float(metrics.extra.get("sim_events", 0.0))
        point = {
            "protocol": result.protocol,
            "n_nodes": result.config.n_nodes,
            "n_keys": result.config.n_keys,
            "replication_degree": result.config.replication_degree,
            "clients_per_node": result.config.clients_per_node,
            "read_only_fraction": result.workload.read_only_fraction,
            "seed": result.config.seed,
            "duration_us": metrics.measured_duration_us,
            "committed": metrics.committed,
            "aborted": metrics.aborted,
            "abort_rate": round(metrics.abort_rate, 4),
            "throughput_ktps": round(metrics.throughput_ktps, 3),
            "latency_mean_ms": round(metrics.latency.mean_ms, 4),
            "latency_p50_ms": round(metrics.latency.p50_us / 1_000.0, 4),
            "latency_p99_ms": round(metrics.latency.p99_us / 1_000.0, 4),
            "sim_events": int(events),
            "wall_seconds": round(wall, 4),
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "committed_txns_per_wall_sec": (round(metrics.committed / wall) if wall > 0 else 0),
        }
        # ``engine`` is recorded explicitly so serial and parallel datapoints
        # can be told apart.
        parallel = metrics.extra.get("parallel_shards") is not None
        point["engine"] = "parallel" if parallel else "serial"
        for field_name in _OPTIONAL_EXTRAS:
            value = metrics.extra.get(field_name)
            if value is not None:
                point[field_name] = value
        if metrics.phases:
            point["phases"] = metrics.phases
        self.pending.append(point)

    def flush(self, figure: str) -> Dict:
        """Assign pending datapoints to ``figure`` and write its JSON file."""
        bucket, self.pending = self.pending, []
        events = sum(point["sim_events"] for point in bucket)
        wall = sum(point["wall_seconds"] for point in bucket)
        committed = sum(point["committed"] for point in bucket)
        availabilities = [
            point["availability_min"]
            for point in bucket
            if point.get("availability_min") is not None
        ]
        checked = [
            point["consistency_ok"]
            for point in bucket
            if point.get("consistency_ok") is not None
        ]
        totals = {
            "datapoints": len(bucket),
            "sim_events": events,
            "wall_seconds": round(wall, 4),
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "committed_txns": committed,
            "committed_txns_per_wall_sec": (round(committed / wall) if wall > 0 else 0),
        }
        # Fault-plane floors (absent for fail-free figures): the worst
        # per-point availability, and whether every checked point kept its
        # protocol's consistency contract.
        if availabilities:
            totals["availability_min"] = round(min(availabilities), 4)
        if checked:
            totals["consistency_ok_all"] = float(all(flag == 1.0 for flag in checked))
        # Coverage floor: the widest cluster the figure measured.
        # check_regression fails if a later run silently shrinks it (e.g. the
        # 256-server point dropping out).
        if bucket:
            totals["max_n_nodes"] = max(point["n_nodes"] for point in bucket)
        payload = {
            "figure": figure,
            "schema_version": 1,
            "settings": {
                "node_counts": list(SETTINGS.node_counts),
                "n_keys": SETTINGS.n_keys,
                "clients_per_node": SETTINGS.clients_per_node,
                "duration_us": SETTINGS.duration_us,
                "seed": SETTINGS.seed,
            },
            "totals": totals,
            "datapoints": bucket,
        }
        out_dir = os.environ.get("REPRO_BENCH_OUT", ".")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"BENCH_{figure}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        return payload


RECORDER = _BenchRecorder()


def flush_bench_json(figure: str) -> Dict:
    """Write ``BENCH_<figure>.json`` from the datapoints recorded so far."""
    return RECORDER.flush(figure)


def run_once(benchmark, func):
    """Register ``func`` with pytest-benchmark as a single-shot measurement."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
