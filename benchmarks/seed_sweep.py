"""Nightly seed sweep of the pathological micro-configuration.

The 4-node / 4-key / rf=1 / high-contention configuration is where the
ambiguous-zone and 4-party wait-cycle defects historically lived (ROADMAP;
seeds 3, 17 and 29 are pinned as strict regressions in
``tests/integration/test_fault_plane.py``).  This driver runs a *range* of
seeds through a configuration — that one by default, or ``--shape
longro``: the fail-free long-reader recipe of ROADMAP direction 1 (6 nodes,
rf 2, 3 clients per node, 80 % read-only 8-key transactions on zipfian
keys with theta 0.9, 18 ms, fail-free only by default; it exits non-zero
until that defect is fixed) — and checks every run for

* external-consistency violations (the DSG + real-time cycle check),
* stalled clients at the post-run drain,
* leaked pre-commit state (snapshot-queue writers, commit-queue entries) at
  quiescence, and
* read-only aborts reaching the history (snapshot restarts must stay
  externally invisible).

Each seed runs the configuration under four **fault variants** — fail-free
(``none``), a mid-run crash/restart (``crash``), the crash plus a later
buffered partition (``crash+partition``), and the same plan with a
partition that drops what crosses it (``crash+drop``), scheduled like the
fault bench's intensities — because the crash-consistency machinery (redo logs, reliable
re-sends, crash recovery) is exactly the code a single pathological seed is
most likely to wedge.  Every variant runs the full check set — external
consistency, stalled clients, quiescence leaks, read-only aborts — since
SSS promises external consistency under faults too (the fault bench and
the fault-plane integration tests assert the same).

Failures write a repro bundle (config + metrics + the failure reason) as
JSON into ``--out`` so the nightly workflow can upload them as artifacts;
the exit status is non-zero when any seed fails.  The sweep prints, and
writes to ``--out``/``sweep-summary.json``, the clean and committed counts
of each fault variant as well as the totals.

Usage::

    python benchmarks/seed_sweep.py --seeds 0 63 --out sweep-results
    python benchmarks/seed_sweep.py --shape longro --seeds 0 255 --parallel 1
    python benchmarks/seed_sweep.py --seeds 17 17 --duration-us 60000
    python benchmarks/seed_sweep.py --variants crash --seeds 29 29

With ``--corpus-out DIR`` the sweep doubles as the corpus-seeding phase of
the scenario searcher (``python -m repro.search``): every swept (seed,
variant) is also written as a ``*.genome.json`` the searcher can load and
mutate, so nightly search campaigns start from the exact configurations
the sweep already vetted.
"""

from __future__ import annotations

import argparse
import json
import os
from concurrent.futures import ProcessPoolExecutor

from repro.common.config import ClusterConfig, FaultPlan, WorkloadConfig
from repro.harness.runner import run_experiment

#: shape -> (cluster, workload, duration_us, drain_us, default variants).
SHAPES = {
    "pathological": (
        dict(n_nodes=4, n_keys=4, replication_degree=1, clients_per_node=3),
        dict(read_only_fraction=0.5, update_txn_keys=2),
        60_000.0,
        40_000.0,
        ("none", "crash", "crash+partition", "crash+drop"),
    ),
    "longro": (
        dict(n_nodes=6, n_keys=400, replication_degree=2, clients_per_node=3),
        dict(
            read_only_fraction=0.8,
            update_txn_keys=2,
            read_only_txn_keys=8,
            key_distribution="zipfian",
            zipf_theta=0.9,
        ),
        18_000.0,
        25_000.0,
        ("none",),
    ),
}

VARIANTS = ("none", "crash", "crash+partition", "crash+drop")


def _fault_plan(variant: str, duration_us: float, n_nodes: int) -> FaultPlan:
    """Fault schedule of one variant, scaled like the fault bench's."""
    if variant == "none":
        return FaultPlan()
    crash = f"crash node=1 at={0.25 * duration_us} for={0.15 * duration_us}"
    if variant == "crash":
        return FaultPlan.parse([crash])
    if variant in ("crash+partition", "crash+drop"):
        rest = ",".join(str(node) for node in range(1, n_nodes))
        partition = (
            f"partition groups=0|{rest} "
            f"at={0.60 * duration_us} for={0.15 * duration_us}"
        )
        if variant == "crash+drop":
            partition += " mode=drop"
        return FaultPlan.parse([crash, partition])
    raise ValueError(f"unknown variant {variant!r}")


def probe_seed(args):
    """Run one (shape, seed, variant); returns a picklable result record."""
    shape, seed, variant, duration_us, drain_us = args
    cluster_shape, workload = SHAPES[shape][:2]
    config = ClusterConfig(
        seed=seed,
        faults=_fault_plan(variant, duration_us, cluster_shape["n_nodes"]),
        **cluster_shape,
    )
    result = run_experiment(
        "sss",
        config,
        WorkloadConfig(**workload),
        duration_us=duration_us,
        warmup_us=0.0,
        record_history=True,
        keep_cluster=True,
        drain_us=drain_us,
    )
    check = result.cluster.check_consistency()
    metrics = result.metrics
    read_only_aborts = [
        str(txn.txn_id)
        for txn in result.cluster.history.aborted
        if not txn.is_update
    ]
    failures = []
    if not check.ok:
        failures.append(f"external-consistency: {check.violations}")
    if metrics.extra.get("stalled_clients"):
        failures.append(f"stalled_clients={metrics.extra['stalled_clients']}")
    if metrics.extra.get("quiescence_leaked_writers"):
        failures.append(
            f"quiescence_leaked_writers="
            f"{metrics.extra['quiescence_leaked_writers']}"
        )
    if metrics.extra.get("quiescence_commit_queue"):
        failures.append(f"quiescence_commit_queue=" f"{metrics.extra['quiescence_commit_queue']}")
    if read_only_aborts:
        failures.append(f"read-only aborts in history: {read_only_aborts}")
    return {
        "shape": shape,
        "seed": seed,
        "variant": variant,
        "failures": failures,
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "readonly_restarts": result.node_counters.get("readonly_restarts", 0),
        "reads_rt_stale": result.node_counters.get("reads_rt_stale", 0),
        "answer_gates": result.node_counters.get("answer_gates_registered", 0),
        "crash_recoveries": result.node_counters.get("crash_recoveries", 0),
        "config": {**cluster_shape, "seed": seed},
        "workload": workload,
        "faults": config.faults.specs(),
        "duration_us": duration_us,
        "drain_us": drain_us,
    }


def _write_corpus_genome(record, corpus_dir: str) -> str:
    """Persist one swept configuration as a searcher corpus genome."""
    from repro.search.genome import ScenarioGenome

    genome = ScenarioGenome(
        protocol="sss",
        duration_us=record["duration_us"],
        drain_us=record["drain_us"],
        fault_specs=tuple(record["faults"]),
        **record["config"],
        **record["workload"],
    ).normalize()
    path = os.path.join(
        corpus_dir, f"sweep-seed{record['seed']}-{record['variant']}.genome.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(genome.to_json() + "\n")
    return path


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
        default=os.environ.get("REPRO_SWEEP_OUT", "sweep-results"),
        help="Directory for failure repro bundles and the summary JSON.",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=max(1, (os.cpu_count() or 2) - 1),
    )
    parser.add_argument(
        "--corpus-out",
        default=None,
        help="Also write every swept configuration as a *.genome.json seed "
        "for the scenario searcher (python -m repro.search).",
    )
    args = parser.parse_args()

    first, last = args.seeds
    seeds = list(range(first, last + 1))
    _cluster, _workload, duration_us, drain_us, variants = SHAPES[args.shape]
    duration_us = duration_us if args.duration_us is None else args.duration_us
    drain_us = drain_us if args.drain_us is None else args.drain_us
    variants = list(variants if args.variants is None else args.variants)
    jobs = [
        (args.shape, seed, variant, duration_us, drain_us)
        for seed in seeds
        for variant in variants
    ]
    if args.parallel > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(probe_seed, jobs))
    else:
        results = [probe_seed(job) for job in jobs]

    os.makedirs(args.out, exist_ok=True)
    if args.corpus_out:
        os.makedirs(args.corpus_out, exist_ok=True)
        for record in results:
            _write_corpus_genome(record, args.corpus_out)
        print(f"wrote {len(results)} corpus genomes to {args.corpus_out}")
    failing = [record for record in results if record["failures"]]
    for record in failing:
        path = os.path.join(
            args.out, f"seed-{record['seed']}-{record['variant']}-repro.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(
            f"FAIL shape={args.shape} seed={record['seed']} variant={record['variant']}: "
            f"{record['failures']} -> {path}"
        )
    summary = {
        "shape": args.shape,
        "seeds": [first, last],
        "variants": variants,
        "clean": len(results) - len(failing),
        "failing": [
            {"seed": record["seed"], "variant": record["variant"]}
            for record in failing
        ],
        "total_committed": sum(record["committed"] for record in results),
        "total_restarts": sum(record["readonly_restarts"] for record in results),
        "per_variant": {},
    }
    for variant in variants:
        rows = [record for record in results if record["variant"] == variant]
        summary["per_variant"][variant] = {
            "runs": len(rows),
            "clean": sum(not record["failures"] for record in rows),
            "committed": sum(record["committed"] for record in rows),
        }
    with open(os.path.join(args.out, "sweep-summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    for variant, row in summary["per_variant"].items():
        print(
            f"  {variant:<16} {row['clean']}/{row['runs']} clean, "
            f"{row['committed']} committed"
        )
    print(
        f"seed sweep {args.shape} [{first}, {last}]: {summary['clean']}/{len(results)} clean, "
        f"{summary['total_committed']} committed, "
        f"{summary['total_restarts']} snapshot restarts"
    )
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
