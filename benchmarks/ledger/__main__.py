"""``python -m benchmarks.ledger`` — print the whole ledger, or one workload of it.

Without ``--workload`` every workload is measured end to end and per layer,
the satellites run once, and the result is written to ``--out``.  With
``--workload`` (the form ``BENCHMARK.json`` names) one workload is measured:
``--trace 0`` gives its end-to-end metrics, ``--trace 1`` its per-layer
metrics, and the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is non-zero when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List

from benchmarks.ledger.measure import (
    LedgerError,
    measure_end_to_end,
    measure_layers,
    measure_satellites,
)
from benchmarks.ledger.spec import (
    END_TO_END,
    NOMINAL_SECONDS,
    PER_LAYER,
    REPEATS,
    REPO_ROOT,
    WORKLOADS,
)

DEFAULT_OUT = os.path.join(REPO_ROOT, "bench-results", "ledger.json")
#: Alternations per plane-overhead variant: whole ledger / single workload.
MATRIX_ROUNDS = 3
MATRIX_ROUNDS_SINGLE = 1


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--seed", type=int, default=2024, help="workload seed (default 2024)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=NOMINAL_SECONDS,
        help="host seconds the timed children of a workload take on the reference container; "
        f"simulated durations scale with it (default {NOMINAL_SECONDS:g})",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="measure this one only")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="with --workload: 1 = per-layer"
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="where the whole ledger is written")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one repeat at a tenth of the length: exercises every path, numbers not comparable",
    )
    return parser.parse_args(argv)


def print_metrics(values: Dict[str, Dict[str, object]], registry) -> None:
    for metric in registry:
        if metric.name not in values:
            continue
        entry = values[metric.name]
        line = f"    {metric.name:36s} {metric.clock:4s} {entry['value']:>14.4f} {metric.unit:10s}"
        if "samples" in entry:
            line += f" q1 {entry['q1']:.4f} q3 {entry['q3']:.4f} n={len(entry['samples'])}"
        if metric.bound:
            line += f" bound {metric.bound:.0%}"
        print(line)


def print_checks(checks: Dict[str, bool]) -> None:
    failed = [name for name, ok in checks.items() if not ok]
    print(f"    checks: {len(checks) - len(failed)} of {len(checks)} ok")
    for name in failed:
        print(f"    FAILED {name}")


def print_end_to_end(record: Dict[str, object]) -> None:
    samples = record["latency_samples"]
    print(
        f"  end to end, tracing off: {record['committed']} committed, "
        f"latency n={samples['all']} (read-only {samples['read_only']}, "
        f"update {samples['update']}), {record['attempted']} attempted, "
        f"{record['failed']} unanswered"
    )
    print_metrics(record["end_to_end"], END_TO_END)
    for seed, digest in zip(record["config_seeds"], record["digests"]):
        print(f"    digest seed={seed} {digest}")
    print_checks(record["checks"])


def as_entries(metrics: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": value} for name, value in metrics.items()}


def print_layers(record: Dict[str, object]) -> None:
    profile = record["profile"]
    print(
        f"  per layer: profile names {profile['named_share']:.2%} of "
        f"{profile['total_s']:.2f} profiled host s"
    )
    print_metrics(as_entries(record["metrics"]), PER_LAYER)
    print_checks(record["checks"])


def print_satellites(record: Dict[str, object]) -> None:
    print("  plane-overhead matrix and baseline rows (reference configuration)")
    print_metrics(as_entries(record["metrics"]), PER_LAYER)
    print_checks(record["checks"])


def write_spans(out_dir: str, layers: Dict[str, object]) -> None:
    path = os.path.join(out_dir, f"ledger-{layers['workload']}.spans.json")
    with open(path, "w") as handle:
        json.dump({"workload": layers["workload"], "spans": layers["spans"]}, handle, indent=1)


def contract_line(correct: bool, attempted: int, failed: int, values: Dict[str, float], registry):
    units = {metric.name: metric.unit for metric in registry}
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
    )


def run_single(args: argparse.Namespace, repeats: int, comparable: bool) -> int:
    """One workload, as the driver calls it; the result is the last line printed."""
    workload = WORKLOADS[args.workload]
    out_dir = os.path.dirname(args.out)
    print(f"== {workload.name} seed={args.seed} seconds={args.seconds:g}: {workload.why}")
    if args.trace == 0:
        record = measure_end_to_end(workload.name, args.seed, args.seconds, repeats, comparable)
        print_end_to_end(record)
        correct = all(record["checks"].values())
        values = {name: entry["value"] for name, entry in record["end_to_end"].items()}
        line = contract_line(correct, record["attempted"], record["failed"], values, END_TO_END)
    else:
        layers = measure_layers(workload.name, args.seed, args.seconds, out_dir)
        print_layers(layers)
        write_spans(out_dir, layers)
        # Half length and one round: the driver's time cap leaves no more.
        satellites = measure_satellites(args.seed, args.seconds / 2.0, MATRIX_ROUNDS_SINGLE)
        print_satellites(satellites)
        correct = all(layers["checks"].values()) and all(satellites["checks"].values())
        values = {**layers["metrics"], **satellites["metrics"]}
        line = contract_line(correct, layers["attempted"], layers["failed"], values, PER_LAYER)
    print(line)
    return 0 if correct else 1


def run_all(args: argparse.Namespace, repeats: int, comparable: bool) -> int:
    """Every workload end to end and per layer, then the satellites."""
    out_dir = os.path.dirname(args.out)
    document: Dict[str, object] = {
        "schema": "benchmarks.ledger/1",
        "comparable": comparable,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": repeats,
        "provenance": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "metrics": {
            "end_to_end": [vars(metric) for metric in END_TO_END],
            "per_layer": [vars(metric) for metric in PER_LAYER],
        },
        "workloads": {},
    }
    if not comparable:
        print("SMOKE RUN: one repeat at a tenth of the length; numbers are not comparable")
    for workload in WORKLOADS.values():
        print(f"== {workload.name} seed={args.seed} seconds={args.seconds:g}: {workload.why}")
        end_to_end = measure_end_to_end(
            workload.name, args.seed, args.seconds, repeats, comparable
        )
        print_end_to_end(end_to_end)
        layers = measure_layers(workload.name, args.seed, args.seconds, out_dir)
        print_layers(layers)
        write_spans(out_dir, layers)
        document["provenance"].update(end_to_end.pop("provenance"))
        del layers["spans"]
        document["workloads"][workload.name] = {
            "why": workload.why,
            "end_to_end": end_to_end,
            "layers": layers,
        }
    print("== satellites")
    satellites = measure_satellites(
        args.seed, args.seconds, MATRIX_ROUNDS if comparable else MATRIX_ROUNDS_SINGLE
    )
    print_satellites(satellites)
    document["satellites"] = satellites
    failed = [
        f"{name}:{check}"
        for name, record in document["workloads"].items()
        for part in ("end_to_end", "layers")
        for check, ok in record[part]["checks"].items()
        if not ok
    ] + [f"satellites:{check}" for check, ok in satellites["checks"].items() if not ok]
    document["correct"] = not failed
    document["failed_checks"] = failed
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
    gate = "ok" if not failed else f"FAILED {failed}"
    print(f"== wrote {args.out}; correctness gate: {gate}")
    return 0 if not failed else 1


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    repeats = 1 if args.smoke else REPEATS
    if args.smoke:
        args.seconds = NOMINAL_SECONDS / 10.0
    try:
        if args.workload:
            return run_single(args, repeats, comparable=not args.smoke)
        return run_all(args, repeats, comparable=not args.smoke)
    except LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
