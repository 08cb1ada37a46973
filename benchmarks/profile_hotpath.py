"""Profile one Figure-3 datapoint so perf PRs start from data, not guesses.

Runs a single SSS experiment (the fig3 shape: 50 % read-only, rf = 2) under
``cProfile`` and prints the top functions by cumulative and by self time.
Keep the machine otherwise idle; background load skews everything.

Before the rankings comes the *entry census*: what the event loop called,
by callee, per committed transaction — message arrivals
(``NetworkedNode.enqueue``), serves (``_serve``), process resumes (CPU
charges and callbacks, ``Process._resume``), event dispatches, timers — and
the heap pushes and pops behind them.  These are call counts, not times:
they repeat exactly for a seed on any machine.  The profile covers the
whole run, so the divisor is every commit of the run, warm-up included.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py
        [--nodes 6] [--duration-us 60000] [--top 30]
        [--sort cumulative|tottime] [--out PROFILE.pstats]
        [--engine serial|parallel] [--shards N] [--profile-shard K]

``--out`` additionally dumps the raw stats for ``snakeviz``/``pstats``
post-processing.

With ``--engine parallel`` the run uses the node-sharded conservative
engine: every shard worker dumps its own ``shard-<i>.pstats`` (via the
``REPRO_PARALLEL_PROFILE_DIR`` hook in :mod:`repro.harness.parallel`), the
rankings printed come from the shard chosen with ``--profile-shard``
(default 0), and the parallel-overhead counters — sync rounds, null
messages, cross-shard messages, per-shard utilization — are printed so the
conservative-synchronization cost is observable, not guessed.  The
in-process profile (``--out``) then covers the coordinator: routing,
pickling and barrier bookkeeping.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import tempfile
import time


def print_entry_census(stats: pstats.Stats, committed: int, events: float) -> None:
    """Callees of ``Simulation.run`` and heap operations, per committed transaction."""
    engine = os.path.join("repro", "sim", "engine.py")
    entries, heap_ops = {}, {"heappush": 0, "heappop": 0}
    for (filename, _line, name), (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        for (caller_file, _caller_line, caller_name), edge in callers.items():
            if not caller_file.endswith(engine):
                continue
            for op in heap_ops:
                if op in name:
                    heap_ops[op] += edge[0]
            if caller_name == "run":
                label = name if filename == "~" else f"{os.path.basename(filename)}:{name}"
                entries[label] = entries.get(label, 0) + edge[0]
    per_txn = max(committed, 1)
    print(f"\n=== engine entries per committed transaction (exact counts, {committed} commits) ===")
    for label, calls in sorted(entries.items(), key=lambda item: (-item[1], item[0])):
        print(f"{calls / per_txn:10.2f}  {calls:9d}  {label}")
    for op, calls in heap_ops.items():
        print(f"{calls / per_txn:10.2f}  {calls:9d}  engine {op} (all callers in sim/engine.py)")
    print(f"{heap_ops['heappop'] / max(events, 1.0):10.3f}  heap pops per processed event")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=6)
    parser.add_argument("--keys", type=int, default=400)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--duration-us", type=float, default=60_000.0)
    parser.add_argument("--warmup-us", type=float, default=15_000.0)
    parser.add_argument("--read-only", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--protocol", default="sss")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime"),
        default=None,
        help="Print only one ranking instead of both.",
    )
    parser.add_argument("--out", default=None, help="Dump raw pstats here.")
    parser.add_argument(
        "--engine",
        choices=("serial", "parallel"),
        default="serial",
        help="Event loop to profile; 'parallel' is the node-sharded engine.",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="Shard count for --engine parallel (default: engine default).",
    )
    parser.add_argument(
        "--profile-shard",
        type=int,
        default=0,
        help="Which shard's worker profile to print (--engine parallel).",
    )
    parser.add_argument(
        "--shard-profile-dir",
        default=None,
        help="Keep per-shard pstats dumps here (default: a temp directory).",
    )
    args = parser.parse_args()

    # Import after argparse so --help stays fast.
    from repro.common.config import ClusterConfig, WorkloadConfig
    from repro.harness.runner import run_experiment

    config = ClusterConfig(
        n_nodes=args.nodes,
        n_keys=args.keys,
        replication_degree=2,
        clients_per_node=args.clients,
        seed=args.seed,
    )
    workload = WorkloadConfig(read_only_fraction=args.read_only, read_only_txn_keys=2)

    shard_dir = None
    if args.engine == "parallel":
        shard_dir = args.shard_profile_dir or tempfile.mkdtemp(prefix="repro-shard-prof-")
        os.environ["REPRO_PARALLEL_PROFILE_DIR"] = shard_dir

    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    try:
        result = run_experiment(
            args.protocol,
            config,
            workload,
            duration_us=args.duration_us,
            warmup_us=args.warmup_us,
            engine=args.engine,
            shards=args.shards if args.engine == "parallel" else None,
        )
    finally:
        profiler.disable()
        os.environ.pop("REPRO_PARALLEL_PROFILE_DIR", None)
    wall = time.perf_counter() - wall_start

    metrics = result.metrics
    events = metrics.extra.get("sim_events", 0.0)
    print(
        f"{args.protocol} n={args.nodes} engine={args.engine} "
        f"duration={args.duration_us:.0f}us: "
        f"wall={wall:.2f}s (under cProfile, ~2-3x slower than bare), "
        f"events={events:.0f}, committed={metrics.committed}, "
        f"ktps={metrics.throughput_ktps:.2f}"
    )
    if "parallel_shards" in metrics.extra:  # barriers ran: more than one shard
        print(
            f"parallel: shards={metrics.extra['parallel_shards']}, "
            f"sync_rounds={metrics.extra['parallel_sync_rounds']}, "
            f"null_messages={metrics.extra['parallel_null_messages']}, "
            f"cross_shard_messages={metrics.extra['parallel_cross_shard_messages']}, "
            f"shard_events=[{metrics.extra['parallel_shard_events_min']:.0f}, "
            f"{metrics.extra['parallel_shard_events_max']:.0f}], "
            f"shard_utilization_min={metrics.extra['parallel_shard_utilization_min']}"
        )

    if args.engine == "parallel":
        shard_path = os.path.join(shard_dir, f"shard-{args.profile_shard}.pstats")
        if os.path.exists(shard_path):
            print(f"\nper-shard profiles in {shard_dir}; printing shard {args.profile_shard}")
            stats = pstats.Stats(shard_path)
        else:
            # Inline fallback (shards=1 runs in-process): the coordinator
            # profile below already contains the whole event loop.
            print(f"\nno worker profile at {shard_path}; printing the in-process profile")
            stats = pstats.Stats(profiler)
    else:
        stats = pstats.Stats(profiler)
    counters = result.node_counters
    commits = counters.get("read_only_commits", 0) + counters.get("update_commits", 0)
    print_entry_census(stats, commits, events)
    for sort in [args.sort] if args.sort else ["cumulative", "tottime"]:
        print(f"\n=== top {args.top} by {sort} ===")
        stats.sort_stats(sort).print_stats(args.top)
    if args.out:
        pstats.Stats(profiler).dump_stats(args.out)
        print(f"coordinator/in-process raw stats written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
