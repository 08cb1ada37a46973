"""Heavy-traffic scale pin: events/sec *and* memory high-water mark.

The ROADMAP's north star is millions of user sessions against large key
spaces; the figures so far only pin simulator *speed*.  This benchmark
pins the other axis the streaming harness bought: **memory**.  It drives
one SSS cluster at open-loop Poisson load with every bounded-memory path
enabled — streaming metrics (quantile sketches, windowed time series) and
the windowed online consistency checker — and measures the Python-heap
high-water mark with :mod:`tracemalloc` at two run lengths, ``D`` and
``2*D``.

Doubling the run length doubles the transaction count but must *not*
double the memory.  What a run holds follows its in-flight work: a
finished transaction leaves a small outcome record instead of its
metadata, a vote round is released the moment it is decided (with the
reply correlation of any prepare left unanswered), lock and snapshot-queue
state exists only while a key has a holder, waiter or entry, and a clock
is one packed integer held only by its users.  So the
high-water mark is the key store (constant in transaction count), the
bounded retained window and sketches, and a few hundred bytes per
transaction in outcome records and per-node bookkeeping.  The
sub-linearity assertion (``peak(2D) <= SUBLINEAR_FACTOR * peak(D)``) is
what fails if anyone reintroduces a per-transaction term of any size on
the hot path.

At the default (full-scale) settings the run satisfies the scale floor
this figure exists to document: **>= 1M keys** in the store and **>= 100k
open-loop sessions** (arrivals) per measured run.  CI runs the same bench
scaled down via the env knobs purely to gate simulator performance and
memory against the committed baseline; the sub-linearity assertion holds
at every scale.

Emits ``BENCH_scale.json`` with the usual per-point performance records
plus a ``memory`` section (peaks at D and 2D, the ratio, and the windowed
checker's retention counters).  ``benchmarks/check_regression.py`` gates
``totals.events_per_sec`` (floor) and ``totals.memory_high_water_bytes``
(ceiling) against ``benchmarks/baselines/BENCH_scale.json``.

Environment knobs:

* ``REPRO_BENCH_SCALE_KEYS`` — key-space size (default 1_000_000);
* ``REPRO_BENCH_SCALE_RATE_TPS`` — offered Poisson load (default 120_000);
* ``REPRO_BENCH_SCALE_DURATION_US`` — the short run length ``D``; the
  second run is ``2*D`` (default 1_000_000, i.e. one simulated second);
* ``REPRO_BENCH_SCALE_EPOCH_US`` / ``REPRO_BENCH_SCALE_RETENTION_US`` —
  windowed-checker epoch and retention (defaults 5_000 / 15_000, small
  enough that epochs close and prune even in short CI runs).
"""

from __future__ import annotations

import gc
import json
import os
import tracemalloc

import pytest

from benchmarks.common import RECORDER, flush_bench_json
from repro.common.config import ClusterConfig, TrafficPlan, WorkloadConfig
from repro.consistency.window import WindowedConsistencyChecker, WindowedHistoryRecorder
from repro.harness.runner import run_experiment

N_KEYS = int(os.environ.get("REPRO_BENCH_SCALE_KEYS", 1_000_000))
RATE_TPS = int(os.environ.get("REPRO_BENCH_SCALE_RATE_TPS", 120_000))
DURATION_US = float(os.environ.get("REPRO_BENCH_SCALE_DURATION_US", 1_000_000))
EPOCH_US = float(os.environ.get("REPRO_BENCH_SCALE_EPOCH_US", 5_000))
RETENTION_US = float(os.environ.get("REPRO_BENCH_SCALE_RETENTION_US", 15_000))

N_NODES = 3
SEED = 2024

#: Full-scale floors this figure documents (asserted only when the env
#: knobs have not scaled the run down, e.g. in CI).
FULL_SCALE_KEYS = 1_000_000
FULL_SCALE_SESSIONS = 100_000

#: Memory at 2x the transactions may grow by at most this factor: the
#: measured ratio plus 0.05 (1.046 under the CI knobs on Python 3.11,
#: 1.047 on 3.12, 1.036 on 3.13).  Retaining every finished transaction's
#: metadata measured 1.227; a linear term would push the ratio toward 2.0.
SUBLINEAR_FACTOR = 1.10


def at_full_scale() -> bool:
    return N_KEYS >= FULL_SCALE_KEYS and RATE_TPS * (DURATION_US / 1e6) >= FULL_SCALE_SESSIONS


def _measured_run(duration_us: float):
    """One streaming+windowed run under tracemalloc; returns (result, peak)."""
    config = ClusterConfig(
        n_nodes=N_NODES,
        n_keys=N_KEYS,
        replication_degree=2,
        clients_per_node=0,
        seed=SEED,
        traffic=TrafficPlan.parse([f"poisson rate={RATE_TPS}"]),
    )
    recorder = WindowedHistoryRecorder(
        checker=WindowedConsistencyChecker(epoch_us=EPOCH_US, retention_us=RETENTION_US)
    )
    gc.collect()
    tracemalloc.start()
    try:
        result = run_experiment(
            "sss",
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=duration_us,
            warmup_us=0.25 * duration_us,
            record_history=recorder,
            streaming_metrics=True,
        )
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, recorder, int(peak)


def _scale_sweep():
    runs = {}
    for label, duration_us in (("d", DURATION_US), ("2d", 2.0 * DURATION_US)):
        result, recorder, peak = _measured_run(duration_us)
        RECORDER.record(result)
        check = recorder.check_external_consistency()
        assert check.ok, f"windowed external consistency failed at {label}: {check.violations[:3]}"
        runs[label] = {
            "duration_us": duration_us,
            "offered": int(result.metrics.extra["offered"]),
            "committed": result.metrics.committed,
            "events_per_sec": (
                round(result.metrics.extra["sim_events"] / result.metrics.extra["wall_seconds"])
                if result.metrics.extra["wall_seconds"] > 0
                else 0
            ),
            "memory_high_water_bytes": peak,
            "checker": recorder.checker.stats(),
        }
        del result, recorder
    return runs


@pytest.mark.benchmark(group="scale")
def test_scale_memory_and_throughput(benchmark):
    runs = benchmark.pedantic(_scale_sweep, rounds=1, iterations=1, warmup_rounds=0)
    short, long = runs["d"], runs["2d"]

    # The long run really did roughly double the work...
    assert long["offered"] > 1.5 * short["offered"]
    # ...while the heap high-water mark stayed sub-linear in it.
    ratio = long["memory_high_water_bytes"] / max(short["memory_high_water_bytes"], 1)
    assert ratio <= SUBLINEAR_FACTOR, (
        f"memory grew {ratio:.2f}x when transactions doubled — a per-transaction "
        f"term is back on the hot path (peaks: {short['memory_high_water_bytes']} "
        f"-> {long['memory_high_water_bytes']} bytes)"
    )
    # The windowed checker really was pruning (bounded retention), so the
    # flat memory is not explained by the checker silently buffering.
    for label in ("d", "2d"):
        assert runs[label]["checker"]["epochs_closed"] > 0, label
        assert runs[label]["checker"]["pruned"] > 0, label

    if at_full_scale():
        assert N_KEYS >= FULL_SCALE_KEYS
        assert short["offered"] >= FULL_SCALE_SESSIONS

    payload = flush_bench_json("scale")
    # Augment the figure JSON with the memory section the gate reads.
    payload["memory"] = {
        "sublinear_factor_allowed": SUBLINEAR_FACTOR,
        "ratio_2d_over_d": round(ratio, 4),
        "runs": runs,
        "full_scale": at_full_scale(),
        "scale_settings": {
            "n_keys": N_KEYS,
            "rate_tps": RATE_TPS,
            "duration_us": DURATION_US,
            "epoch_us": EPOCH_US,
            "retention_us": RETENTION_US,
        },
    }
    payload["totals"]["memory_high_water_bytes"] = long["memory_high_water_bytes"]
    out_dir = os.environ.get("REPRO_BENCH_OUT", ".")
    path = os.path.join(out_dir, "BENCH_scale.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
