"""Benchmark-regression gate for CI.

Compares freshly produced ``BENCH_<figure>.json`` files against the
committed baselines under ``benchmarks/baselines/`` and exits non-zero when
a checked figure loses something its baseline pins machine-independently.

Figures whose baseline carries ``totals.memory_high_water_bytes`` (the
``scale`` figure) are gated on memory: the current high-water
mark must stay below the baseline plus the allowed memory headroom.
Figures whose baseline carries ``totals.availability_min`` (the ``faults``
figure) are gated on availability: the current worst per-point
availability must not fall more than the availability threshold below the
baseline's, and a baseline asserting ``consistency_ok_all`` requires the
current run to keep it.  Availability is a floor, memory is a
ceiling.  Baselines carrying ``totals.max_n_nodes`` pin cluster-size
coverage (the current run may not measure a narrower cluster).
``events_per_sec`` is printed beside the baseline's and never fails: a
wall-clock floor loose enough for any runner lets a 3x slowdown
through.  Cost is gated where it repeats to the last digit, by the count
goldens in ``tests/golden/history_hashes.json``.

Usage::

    python benchmarks/check_regression.py [--figures fig3 scaling]
        [--current-dir DIR] [--baseline-dir DIR]
        [--memory-threshold-pct 50] [--availability-threshold-pct 40]

(``--figure X`` remains as an alias for ``--figures X``.)

Environment override: ``REPRO_BENCH_OUT`` (current dir).

Each baseline says how it was captured in its ``provenance`` field; refresh
one deliberately with ``--write-baseline`` when what it pins is meant to
change, never to paper over a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_figure(figure: str, args) -> int:
    """Gate one figure; returns 0 when OK (or no baseline), 1 on failure."""
    current_path = os.path.join(args.current_dir, f"BENCH_{figure}.json")
    baseline_path = os.path.join(args.baseline_dir, f"BENCH_{figure}.json")

    if not os.path.exists(current_path):
        print(
            f"FAIL: no benchmark output at {current_path} — did the benchmark "
            f"run emit BENCH_{figure}.json (REPRO_BENCH_OUT)?",
            file=sys.stderr,
        )
        return 1
    current = _load(current_path)

    if args.write_baseline:
        os.makedirs(args.baseline_dir, exist_ok=True)
        payload = {
            "figure": figure,
            "provenance": "written by check_regression.py --write-baseline",
            "totals": current["totals"],
        }
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"baseline written: {baseline_path}")
        return 0

    if not os.path.exists(baseline_path):
        print(f"no committed baseline at {baseline_path}; skipping gate")
        return 0

    baseline = _load(baseline_path)
    if "events_per_sec" in baseline["totals"]:
        print(
            f"figure={figure}  advisory, never gated: events_per_sec "
            f"baseline={baseline['totals']['events_per_sec']} "
            f"current={current['totals'].get('events_per_sec')}"
        )

    baseline_mem = baseline["totals"].get("memory_high_water_bytes")
    if baseline_mem is not None:
        current_mem = current["totals"].get("memory_high_water_bytes")
        if current_mem is None:
            print(
                f"FAIL: {figure} baseline pins memory_high_water_bytes but the "
                f"current run did not report one",
                file=sys.stderr,
            )
            return 1
        ceiling = baseline_mem * (1.0 + args.memory_threshold_pct / 100.0)
        print(
            f"figure={figure}  baseline memory={baseline_mem}  "
            f"current memory={current_mem}  allowed ceiling={ceiling:.0f} "
            f"(+{args.memory_threshold_pct:.0f}%)"
        )
        if current_mem > ceiling:
            print(
                f"FAIL: {figure} memory high-water mark grew by more than "
                f"{args.memory_threshold_pct:.0f}% ({current_mem} > {ceiling:.0f})",
                file=sys.stderr,
            )
            return 1

    baseline_avail = baseline["totals"].get("availability_min")
    if baseline_avail is not None:
        current_avail = current["totals"].get("availability_min")
        if current_avail is None:
            print(
                f"FAIL: {figure} baseline pins availability_min but the "
                f"current run did not report one",
                file=sys.stderr,
            )
            return 1
        avail_floor = baseline_avail * (1.0 - args.availability_threshold_pct / 100.0)
        print(
            f"figure={figure}  baseline availability_min={baseline_avail}  "
            f"current availability_min={current_avail}  allowed floor="
            f"{avail_floor:.4f} (-{args.availability_threshold_pct:.0f}%)"
        )
        if current_avail < avail_floor:
            print(
                f"FAIL: {figure} worst-point availability fell by more than "
                f"{args.availability_threshold_pct:.0f}% "
                f"({current_avail} < {avail_floor:.4f})",
                file=sys.stderr,
            )
            return 1

    baseline_max_nodes = baseline["totals"].get("max_n_nodes")
    if baseline_max_nodes is not None:
        current_max_nodes = current["totals"].get("max_n_nodes", 0)
        if current_max_nodes < baseline_max_nodes:
            print(
                f"FAIL: {figure} cluster-size coverage shrank — the baseline "
                f"measured up to {baseline_max_nodes} servers, the current run "
                f"only up to {current_max_nodes}",
                file=sys.stderr,
            )
            return 1

    if baseline["totals"].get("consistency_ok_all") == 1.0:
        if current["totals"].get("consistency_ok_all") != 1.0:
            print(
                f"FAIL: {figure} baseline asserts every point keeps its "
                f"consistency contract, but the current run reported "
                f"consistency_ok_all="
                f"{current['totals'].get('consistency_ok_all')!r}",
                file=sys.stderr,
            )
            return 1

    print(f"OK: {figure} keeps what its baseline pins")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figures",
        nargs="+",
        default=None,
        help="Figures to gate (default: fig3).",
    )
    parser.add_argument(
        "--figure",
        default=None,
        help="Single-figure alias for --figures.",
    )
    parser.add_argument("--current-dir", default=os.environ.get("REPRO_BENCH_OUT", "."))
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines"),
    )
    parser.add_argument(
        "--memory-threshold-pct",
        type=float,
        default=50.0,
    )
    parser.add_argument(
        "--availability-threshold-pct",
        type=float,
        default=40.0,
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="Copy the current totals into the baseline file(s) and exit.",
    )
    args = parser.parse_args()

    figures = list(args.figures or [])
    if args.figure:
        figures.append(args.figure)
    if not figures:
        figures = ["fig3"]

    status = 0
    for figure in figures:
        status |= check_figure(figure, args)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
