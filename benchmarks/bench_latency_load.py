"""Offered load vs. latency: the open-loop curve the paper never drew.

Figures 4(a)/4(b) report closed-loop saturation points — every client
re-issues on completion, so the system is only ever observed *at* its
operating limit.  This benchmark drives all four protocols with open-loop
Poisson arrivals over a geometric ladder of offered rates, from well below
saturation to well past it, and records the classic load-latency curve:
goodput tracks offered load (±10 %) until the protocol saturates, then
goodput flattens while p50/p99 latency inflects by orders of magnitude and
the bounded admission queue starts shedding load.

What the sweep pins (and CI re-checks at tiny duration for simulator
performance only):

* **below saturation** goodput matches offered load within 10 % for every
  protocol — the open-loop plumbing neither loses nor invents work;
* **every protocol saturates** somewhere inside the ladder — past that
  point goodput stops tracking and p99 latency has inflected (>= 2x its
  low-load value, in practice orders of magnitude);
* the saturation ordering matches the closed-loop figures: Walter (lossy
  asynchronous propagation) > ROCOCO (rf=1) > SSS > 2PC-baseline.

Emits ``BENCH_latency.json`` with per-point offered/goodput/latency
percentiles; the committed baseline under ``benchmarks/baselines/`` gates
the simulator's events/sec in CI like every other figure.

Environment knobs:

* ``REPRO_BENCH_LOAD_RATES`` — comma-separated offered rates in tps
  (default ``4000,8000,16000,32000,64000,128000,256000``);
* ``REPRO_BENCH_LOAD_DURATION_US`` — per-point duration (default: the
  suite-wide ``REPRO_BENCH_DURATION_US``); warm-up is 25 % of it.
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
from repro.common.config import ClusterConfig, TrafficPlan, WorkloadConfig
from repro.harness.reporting import format_table
from repro.harness.sweep import ExperimentPoint, run_points

#: (protocol, replication degree) — ROCOCO runs without replication, as in
#: the paper's Figure 6 configuration.
PROTOCOLS = (("sss", 2), ("2pc", 2), ("walter", 2), ("rococo", 1))

RATES = tuple(
    int(part)
    for part in os.environ.get(
        "REPRO_BENCH_LOAD_RATES", "4000,8000,16000,32000,64000,128000,256000"
    ).split(",")
    if part
)

DURATION_US = float(os.environ.get("REPRO_BENCH_LOAD_DURATION_US", SETTINGS.duration_us))
WARMUP_US = 0.25 * DURATION_US

#: Tracking tolerance below saturation (acceptance: +-10 %).
TRACKING_TOLERANCE = 0.10


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
                clients_per_node=0,
                seed=SETTINGS.seed,
                traffic=TrafficPlan.parse([f"poisson rate={rate}"]),
            ),
            workload=workload,
            duration_us=DURATION_US,
            warmup_us=WARMUP_US,
            label=(protocol, rate),
        )
        for protocol, replication_degree in PROTOCOLS
        for rate in RATES
    ]
    curves = {}
    for (protocol, rate), result in run_points(points):
        RECORDER.record(result)
        metrics = result.metrics
        curves[(protocol, rate)] = {
            "offered_tps": metrics.extra["offered_tps"],
            "goodput_tps": metrics.extra["goodput_tps"],
            "dropped": metrics.extra["dropped"],
            "timed_out": metrics.extra["timed_out"],
            "p50_us": metrics.latency.p50_us,
            "p99_us": metrics.latency.p99_us,
        }
    return curves


def _saturation_index(curve) -> int:
    """First ladder index where goodput stops tracking offered load."""
    for index, point in enumerate(curve):
        if point["goodput_tps"] < (1.0 - TRACKING_TOLERANCE) * point["offered_tps"]:
            return index
    return len(curve)


@pytest.mark.benchmark(group="latency")
def test_latency_vs_offered_load(benchmark):
    curves = run_once(benchmark, _sweep)
    payload = flush_bench_json("latency")
    assert payload["totals"]["datapoints"] == len(PROTOCOLS) * len(RATES)

    goodput_rows = {}
    p99_rows = {}
    for protocol, _rf in PROTOCOLS:
        series = [curves[(protocol, rate)] for rate in RATES]
        goodput_rows[protocol] = [point["goodput_tps"] / 1_000.0 for point in series]
        p99_rows[protocol] = [point["p99_us"] / 1_000.0 for point in series]
    columns = [f"{rate // 1000}k" for rate in RATES]
    print()
    print(
        format_table(
            f"Goodput (KTx/s) vs offered load ({SETTINGS.node_counts[0]} nodes, "
            "50% read-only, open-loop Poisson)",
            columns,
            goodput_rows,
        )
    )
    print()
    print(
        format_table(
            "p99 latency (ms) vs offered load",
            columns,
            p99_rows,
            value_format="{:.2f}",
        )
    )

    # Structural invariants, valid at any duration: the sweep is monotone
    # in offered load and every point accounts for its arrivals.
    assert list(RATES) == sorted(RATES)
    for (protocol, rate), point in curves.items():
        assert point["offered_tps"] > 0, f"{protocol}@{rate}: no arrivals"
        assert point["goodput_tps"] <= point["offered_tps"] * 1.25, (
            f"{protocol}@{rate}: goodput exceeds offered load"
        )

    if not shape_checks_enabled():
        return

    saturation_tps = {}
    for protocol, _rf in PROTOCOLS:
        curve = [curves[(protocol, rate)] for rate in RATES]
        sat = _saturation_index(curve)
        # The lowest rung must be below saturation and track offered load.
        assert sat >= 1, f"{protocol}: already saturated at {RATES[0]} tps"
        for point in curve[:sat]:
            ratio = point["goodput_tps"] / point["offered_tps"]
            assert 1.0 - TRACKING_TOLERANCE <= ratio <= 1.0 + TRACKING_TOLERANCE, (
                f"{protocol}: goodput {point['goodput_tps']} does not track "
                f"offered {point['offered_tps']} below saturation"
            )
        # The ladder must reach past saturation, and p99 must inflect there.
        assert sat < len(curve), f"{protocol}: never saturated — raise REPRO_BENCH_LOAD_RATES"
        assert curve[-1]["p99_us"] >= 2.0 * curve[0]["p99_us"], (
            f"{protocol}: p99 did not inflect past saturation "
            f"({curve[0]['p99_us']:.0f} -> {curve[-1]['p99_us']:.0f} us)"
        )
        saturation_tps[protocol] = curve[sat]["offered_tps"]

    # Saturation ordering mirrors the closed-loop figures: Walter's lossy
    # propagation rides highest, ROCOCO (rf=1) clears SSS, 2PC pays the
    # most for its read path.
    assert saturation_tps["walter"] >= saturation_tps["sss"]
    assert saturation_tps["rococo"] >= saturation_tps["sss"]
    assert saturation_tps["sss"] >= saturation_tps["2pc"]
