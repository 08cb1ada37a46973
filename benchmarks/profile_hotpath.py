"""Profile one Figure-3 datapoint so perf PRs start from data, not guesses.

Runs a single SSS experiment (the fig3 shape: 50 % read-only, rf = 2) under
``cProfile`` and prints the top functions by cumulative and by self time.
``--workload NAME`` profiles one of the ledger's workloads instead
(``benchmarks.ledger.spec.WORKLOADS``: its nodes, keys, replication,
clients, transaction mix, key distribution, crash and open-loop arrivals,
built as the ledger builds them, at its nominal length unless
``--duration-us`` scales it).  Keep the machine otherwise idle; background
load skews everything.

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
        [--engine serial|parallel] [--shards N] [--sample]
    PYTHONPATH=src python benchmarks/profile_hotpath.py --workload longro-6n
        [--duration-us 30000] [--sample]

``--out`` additionally dumps the raw stats for ``snakeviz``/``pstats``
post-processing.

``--sample`` runs the same experiment a second time, without ``cProfile``,
under a stack sampler (:class:`StackSampler`) and prints its view after the
rankings: each sample charged to the innermost ``src/repro/<layer>/`` frame
on the stack, then the top self frames.  ``cProfile`` charges a fixed cost
to every Python call it sees and misjudges code that is a few calls into C
(a big-int loop, ``map(max, ...)``); the sampler's bias is a different one,
stated in its docstring, and the two views side by side bound the truth.

With ``--engine parallel`` the run uses the node-sharded conservative
engine.  Its shards are stepped in this process, so the one profile covers
all of them plus the barrier routing, the census sums every shard's event
loop, and the barrier counters — sync rounds, null messages, cross-shard
messages, per-shard utilization — are printed as well.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import signal
import sys
import time
from collections import Counter
from typing import Optional


class StackSampler:
    """``SIGPROF`` stack sampler over the process's CPU time (stdlib only).

    Every ``interval_s`` of CPU time ``setitimer(ITIMER_PROF)`` raises
    ``SIGPROF``; the handler charges the sample to the innermost frame
    under ``src/repro/`` (its layer and its function: frames outside the
    package — stdlib, builtins' Python callers — charge the repro frame that
    called them) and to the innermost frame of all (the self frame).

    Its bias: CPython runs a Python signal handler only between bytecodes,
    at the points where the interpreter checks for pending work — function
    entries, loop back-edges, returns from calls.  A sample that falls
    inside a C call (a big-int operation, ``sorted``, ``heappop``) waits
    for that call to return and lands on its caller, which is the right
    frame for self time; but samples land at call boundaries, so a long
    straight-line stretch of bytecode is charged to the call that ends it.
    Nothing is charged per call, which is ``cProfile``'s bias.  Unix only.
    """

    def __init__(self, interval_s: float = 0.001):
        self.interval_s = interval_s
        self.layers: Counter = Counter()
        self.frames: Counter = Counter()
        self.samples = 0
        self._root = os.sep + "repro" + os.sep
        self._previous = None

    def _layer(self, filename: str) -> Optional[str]:
        position = filename.rfind(self._root)
        if position < 0:
            return None
        rest = filename[position + len(self._root) :]
        return rest.split(os.sep, 1)[0] if os.sep in rest else "repro"

    def _handler(self, _signum, frame) -> None:
        self.samples += 1
        code = frame.f_code
        self.frames[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer is not None:
                self.layers[layer] += 1
                return
            frame = frame.f_back
        self.layers["(outside repro)"] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def report(self, top: int) -> None:
        total = max(self.samples, 1)
        every = f"{self.interval_s * 1e3:g} ms CPU each"
        print(f"\n=== sampled layers ({self.samples} samples, {every}) ===")
        for layer, count in self.layers.most_common():
            print(f"{100.0 * count / total:7.2f}%  {count:7d}  {layer}")
        print(f"\n=== top {top} sampled self frames ===")
        for name, count in self.frames.most_common(top):
            print(f"{100.0 * count / total:7.2f}%  {count:7d}  {name}")


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
    parser.add_argument(
        "--workload",
        default=None,
        help="Profile this ledger workload (e.g. longro-6n) instead of the fig3 "
        "shape; --nodes, --keys, --clients and --read-only are then ignored.",
    )
    parser.add_argument(
        "--duration-us",
        type=float,
        default=None,
        help="Simulated length (default 60000, or the workload's nominal length; "
        "with --workload the warm-up scales with it).",
    )
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
        "--sample",
        action="store_true",
        help="Also run the experiment unprofiled under the SIGPROF stack sampler.",
    )
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
    args = parser.parse_args()

    # Import after argparse so --help stays fast.
    from repro.common.config import ClusterConfig, WorkloadConfig
    from repro.harness.runner import run_experiment

    duration_us, warmup_us = args.duration_us or 60_000.0, args.warmup_us
    if args.workload:
        # The ledger package lives at the repository root, beside src/.
        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from benchmarks.ledger.child import build_inputs
        from benchmarks.ledger.spec import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        shape = WORKLOADS[args.workload]
        scale = args.duration_us / shape.duration_us if args.duration_us else 1.0
        config, workload, duration_us, warmup_us = build_inputs(shape, args.seed, scale)
    else:
        config = ClusterConfig(
            n_nodes=args.nodes,
            n_keys=args.keys,
            replication_degree=2,
            clients_per_node=args.clients,
            seed=args.seed,
        )
        workload = WorkloadConfig(read_only_fraction=args.read_only, read_only_txn_keys=2)

    def run():
        return run_experiment(
            args.protocol,
            config,
            workload,
            duration_us=duration_us,
            warmup_us=warmup_us,
            engine=args.engine,
            shards=args.shards if args.engine == "parallel" else None,
        )

    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    result = run()
    profiler.disable()
    wall = time.perf_counter() - wall_start

    metrics = result.metrics
    events = metrics.extra.get("sim_events", 0.0)
    print(
        f"{args.protocol} {args.workload or 'fig3'} n={config.n_nodes} engine={args.engine} "
        f"duration={duration_us:.0f}us: "
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

    stats = pstats.Stats(profiler)
    counters = result.node_counters
    commits = counters.get("read_only_commits", 0) + counters.get("update_commits", 0)
    print_entry_census(stats, commits, events)
    for sort in [args.sort] if args.sort else ["cumulative", "tottime"]:
        print(f"\n=== top {args.top} by {sort} ===")
        stats.sort_stats(sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw stats written to {args.out}")
    if args.sample:
        with StackSampler() as sampler:
            run()
        sampler.report(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
