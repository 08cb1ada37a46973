"""Seed sweep: enumerate genomes over a seed range and score each one.

The sweep is a thin enumerator over the search plane.  For every (shape,
seed, variant) it builds a :class:`~repro.search.genome.ScenarioGenome`
whose faults are the variant's spec strings
(:func:`benchmarks.common.fault_specs`, the fault bench's schedule) and
scores it with :func:`~repro.search.scoring.score_genome`, the judge the
search, the minimizer and replay use: a run is clean when its
``ScenarioOutcome.failures`` is empty (docs/SEARCH.md "One verdict per
run" states the rules).

Shapes:

* ``pathological`` (default) — 4 nodes, 4 keys, rf 1, high contention,
  60 ms: where the ambiguous-zone and 4-party wait-cycle defects lived
  (seeds 3, 17 and 29 are pinned in
  ``tests/integration/test_fault_plane.py``).  Variants ``none``,
  ``crash``, ``crash+partition`` and ``crash+drop``.
* ``longro`` — ROADMAP direction 1's fail-free long-reader recipe
  (6 nodes, rf 2, 80 % read-only 8-key transactions on zipfian keys with
  theta 0.9, 18 ms).  Variant ``none`` by default; it exits non-zero until
  that defect is fixed.

Every swept genome is written to ``--out`` as
``seed<N>-<variant>.genome.json``, so the directory is a seed corpus for
``python -m repro.search --corpus``, and ``python -m repro.search.replay``
reproduces each failing one.  ``sweep-summary.json`` there lists the
failing runs and the clean and committed counts per variant; the exit
status is non-zero when any run fails.

Usage::

    python benchmarks/seed_sweep.py --seeds 0 63 --out sweep-results
    python benchmarks/seed_sweep.py --shape longro --seeds 0 255 --parallel 1
    python benchmarks/seed_sweep.py --seeds 17 17 --duration-us 60000
    python benchmarks/seed_sweep.py --variants crash --seeds 29 29
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.search.genome import ScenarioGenome
from repro.search.scoring import score_genome

if __package__ in (None, ""):
    # Run as a script: the benchmarks package lives at the repository root.
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import fault_specs  # noqa: E402

VARIANTS = ("none", "crash", "crash+partition", "crash+drop")

#: shape -> (base genome, default variants).
SHAPES = {
    "pathological": (
        ScenarioGenome(
            n_nodes=4,
            n_keys=4,
            replication_degree=1,
            clients_per_node=3,
            duration_us=60_000.0,
            drain_us=40_000.0,
            read_only_fraction=0.5,
            update_txn_keys=2,
        ),
        VARIANTS,
    ),
    "longro": (
        ScenarioGenome(
            n_nodes=6,
            n_keys=400,
            replication_degree=2,
            clients_per_node=3,
            duration_us=18_000.0,
            drain_us=25_000.0,
            read_only_fraction=0.8,
            update_txn_keys=2,
            read_only_txn_keys=8,
            key_distribution="zipfian",
            zipf_theta=0.9,
        ),
        ("none",),
    ),
}


def sweep_genome(shape, seed, variant, duration_us=None, drain_us=None) -> ScenarioGenome:
    """The genome of one swept run; durations default to the shape's."""
    base = SHAPES[shape][0]
    duration_us = base.duration_us if duration_us is None else duration_us
    return replace(
        base,
        seed=seed,
        duration_us=duration_us,
        drain_us=base.drain_us if drain_us is None else drain_us,
        fault_specs=tuple(fault_specs(variant, duration_us, base.n_nodes)),
    ).normalize()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds",
        nargs=2,
        type=int,
        default=(0, 63),
        metavar=("FIRST", "LAST"),
        help="Inclusive seed range to sweep (default 0 63).",
    )
    parser.add_argument(
        "--shape",
        choices=sorted(SHAPES),
        default="pathological",
        help="Configuration to sweep (default pathological).",
    )
    parser.add_argument(
        "--duration-us", type=float, default=None, help="Default: the shape's."
    )
    parser.add_argument("--drain-us", type=float, default=None, help="Default: the shape's.")
    parser.add_argument(
        "--variants",
        nargs="+",
        choices=VARIANTS,
        default=None,
        help="Fault variants to run per seed (default: all four for the "
        "pathological shape, none for longro).",
    )
    parser.add_argument(
        "--out",
        default="sweep-results",
        help="Directory for the swept genomes and the summary JSON.",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=max(1, (os.cpu_count() or 2) - 1),
    )
    args = parser.parse_args()

    first, last = args.seeds
    variants = list(SHAPES[args.shape][1] if args.variants is None else args.variants)
    runs = [(seed, variant) for seed in range(first, last + 1) for variant in variants]
    genomes = [
        sweep_genome(args.shape, seed, variant, args.duration_us, args.drain_us)
        for seed, variant in runs
    ]
    if args.parallel > 1 and len(genomes) > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            outcomes = list(pool.map(score_genome, genomes))
    else:
        outcomes = [score_genome(genome) for genome in genomes]

    os.makedirs(args.out, exist_ok=True)
    summary = {
        "shape": args.shape,
        "seeds": [first, last],
        "variants": variants,
        "clean": sum(not outcome.failed for outcome in outcomes),
        "failing": [],
        "total_committed": int(sum(outcome.signal["committed"] for outcome in outcomes)),
        "per_variant": {variant: {"runs": 0, "clean": 0, "committed": 0} for variant in variants},
    }
    for (seed, variant), genome, outcome in zip(runs, genomes, outcomes):
        path = os.path.join(args.out, f"seed{seed}-{variant}.genome.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(genome.to_json() + "\n")
        row = summary["per_variant"][variant]
        row["runs"] += 1
        row["clean"] += not outcome.failed
        row["committed"] += int(outcome.signal["committed"])
        if outcome.failed:
            summary["failing"].append(
                {
                    "seed": seed,
                    "variant": variant,
                    "genome": os.path.basename(path),
                    "failures": list(outcome.failures),
                    "detail": list(outcome.failure_detail),
                }
            )
            print(
                f"FAIL shape={args.shape} seed={seed} variant={variant}: "
                f"{', '.join(outcome.failures)} -> {path}"
            )
    with open(os.path.join(args.out, "sweep-summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    for variant, row in summary["per_variant"].items():
        print(
            f"  {variant:<16} {row['clean']}/{row['runs']} clean, "
            f"{row['committed']} committed"
        )
    print(
        f"seed sweep {args.shape} [{first}, {last}]: {summary['clean']}/{len(runs)} clean, "
        f"{summary['total_committed']} committed"
    )
    return 1 if summary["failing"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
