"""The barrier schedule: how several shards of one experiment run together.

``run_experiment`` (:mod:`repro.harness.runner`) assembles, reports and
merges shards the same way for any shard count; this module is the one step
that only exists when there is more than one of them.  The cluster's nodes
are split into contiguous blocks (:func:`repro.sim.shard.shard_of`), each
:class:`~repro.harness.runner.Shard` constructs only its owned nodes and
their closed-loop clients, and all shards advance in lock-stepped windows of
the *lookahead* ``L`` (the minimum cross-node network latency).  At each
window barrier the shards exchange the messages addressed to each other's
nodes; inside a window they never interact, because no message sent in the
window can be due before the next barrier.  An empty exchange is the
scheme's null message.

Two execution modes share the exact same barrier schedule and exchange
logic:

* ``mode="process"`` — one worker process per shard (fork-preferred),
  star-topology pipes to the parent, which routes exports between shards.
  This is the scaling mode: event execution is pure Python, so real
  parallelism needs separate interpreters.
* ``mode="inline"`` — every shard in the calling process.  Zero pickling,
  byte-identical results; used by the equivalence tests and for debugging.

Determinism: unit-local engine keys, sender-local delivery keys, and
control-unit fault events (see :mod:`repro.sim.engine` /
:mod:`repro.sim.shard`) make every shard assign exactly the keys the one
shard owning every node would, so the merged run is byte-identical to it —
histories, client statistics, network and protocol counters.  The one-shard
run remains the golden reference; ``tests/unit/test_parallel_engine.py``
pins the equivalence for every protocol × fault-plan combination and across
shard counts.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.harness.runner import ExperimentSpec, Shard, ShardReport
from repro.sim.shard import safe_lookahead, shard_of


@dataclass
class _BarrierCounters:
    """Synchronization accounting of one barrier schedule."""

    sync_rounds: int = 0
    null_messages: int = 0
    cross_shard_messages: int = 0


class _WindowedShard:
    """One shard stepped through the barrier schedule, CPU time accounted."""

    def __init__(self, spec: ExperimentSpec, index: int):
        self.shard = Shard(spec, index)
        self.sim = self.shard.cluster.sim
        self.network = self.shard.cluster.network
        self.horizon_us = spec.horizon_us
        self.busy_seconds = 0.0

    def run_window(self, until: float) -> list:
        """Advance to the barrier; returns the messages for other shards."""
        # CPU time, not wall time: on an oversubscribed host a shard's
        # wall-clock inside the window includes other shards' timeslices,
        # while its CPU time is the honest per-shard critical path (what
        # the wall *becomes* once every shard has its own core).
        start = time.process_time()
        self.sim.run_window(until)
        self.busy_seconds += time.process_time() - start
        return self.network.take_outbox()

    def finish(self) -> ShardReport:
        """Inclusive final step (events at exactly the horizon still run)."""
        start = time.process_time()
        self.sim.run(until=self.horizon_us)
        self.busy_seconds += time.process_time() - start
        report = self.shard.report()
        report.busy_seconds = self.busy_seconds
        return report


# ----------------------------------------------------------------------
# Barrier exchange (shared by both modes)
# ----------------------------------------------------------------------
def _route(outboxes: Sequence[list], spec: ExperimentSpec, counters: _BarrierCounters):
    """Split per-shard outboxes into per-shard import batches.

    Their order is free: every entry is admitted under its own engine key.
    """
    imports: List[list] = [[] for _ in range(spec.shards)]
    n_nodes = spec.config.n_nodes
    shards = spec.shards
    for outbox in outboxes:
        if not outbox:
            counters.null_messages += 1
            continue
        counters.cross_shard_messages += len(outbox)
        for entry in outbox:
            imports[shard_of(entry[2], n_nodes, shards)].append(entry)
    counters.sync_rounds += 1
    return imports


def _barrier_schedule(spec: ExperimentSpec):
    """Yield the window end times: multiples of the lookahead, then the horizon."""
    lookahead = safe_lookahead(spec.config)
    horizon = spec.horizon_us
    barrier = 0.0
    while True:
        barrier = min(barrier + lookahead, horizon)
        yield barrier
        if barrier >= horizon:
            return


# ----------------------------------------------------------------------
# Inline mode
# ----------------------------------------------------------------------
def _run_inline(spec: ExperimentSpec) -> Tuple[List[ShardReport], _BarrierCounters]:
    shards = [_WindowedShard(spec, index) for index in range(spec.shards)]
    counters = _BarrierCounters()
    for barrier in _barrier_schedule(spec):
        imports = _route([shard.run_window(barrier) for shard in shards], spec, counters)
        for shard, batch in zip(shards, imports):
            shard.network.admit(batch)
    return [shard.finish() for shard in shards], counters


# ----------------------------------------------------------------------
# Process mode
# ----------------------------------------------------------------------
def _shard_profiler(shard_index: int):
    """Optional per-shard cProfile, driven by ``REPRO_PARALLEL_PROFILE_DIR``.

    When the environment variable names a directory, every shard worker
    profiles its own event loop and dumps ``shard-<index>.pstats`` there
    (``benchmarks/profile_hotpath.py --engine parallel`` consumes these).
    An env knob rather than a spec field so profiling composes with any
    caller without widening the experiment API.
    """
    directory = os.environ.get("REPRO_PARALLEL_PROFILE_DIR")
    if not directory:
        return None, None
    import cProfile

    os.makedirs(directory, exist_ok=True)
    return cProfile.Profile(), os.path.join(directory, f"shard-{shard_index}.pstats")


def _shard_worker(spec: ExperimentSpec, shard_index: int, conn) -> None:
    """Worker entry point: build the shard, lock-step windows over the pipe."""
    try:
        shard = _WindowedShard(spec, shard_index)
        profiler, profile_path = _shard_profiler(shard_index)
        if profiler is not None:
            profiler.enable()
        for barrier in _barrier_schedule(spec):
            conn.send(shard.run_window(barrier))
            shard.network.admit(conn.recv())
        report = shard.finish()
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)
        conn.send(("ok", report))
    except BaseException as exc:  # surface the failure in the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        conn.close()


def _recv(conn, shard_index: int):
    try:
        payload = conn.recv()
    except EOFError:
        raise RuntimeError(
            f"parallel shard {shard_index} terminated unexpectedly"
        ) from None
    if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "error":
        raise RuntimeError(f"parallel shard {shard_index} failed: {payload[1]}")
    return payload


def _run_process(spec: ExperimentSpec) -> Tuple[List[ShardReport], _BarrierCounters]:
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)
    conns = []
    workers = []
    try:
        for index in range(spec.shards):
            parent_conn, child_conn = ctx.Pipe()
            worker = ctx.Process(
                target=_shard_worker,
                args=(spec, index, child_conn),
                name=f"repro-shard-{index}",
            )
            worker.start()
            child_conn.close()
            conns.append(parent_conn)
            workers.append(worker)
        counters = _BarrierCounters()
        for _barrier in _barrier_schedule(spec):
            imports = _route(
                [_recv(conn, index) for index, conn in enumerate(conns)],
                spec,
                counters,
            )
            for conn, batch in zip(conns, imports):
                conn.send(batch)
        reports = []
        for index, conn in enumerate(conns):
            status, report = _recv(conn, index)
            assert status == "ok"
            reports.append(report)
        return reports, counters
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            worker.join(timeout=30.0)
            if worker.is_alive():  # pragma: no cover - defensive cleanup
                worker.terminate()
                worker.join(timeout=5.0)


def run_shards(spec: ExperimentSpec, mode: str) -> Tuple[List[ShardReport], Dict[str, float]]:
    """Run every shard of ``spec`` through the barrier schedule.

    Returns the shard reports in shard order and the schedule's own
    synchronization + balance accounting (``parallel_*`` metrics extras).
    """
    reports, counters = (_run_inline if mode == "inline" else _run_process)(spec)
    per_shard_events = [report.processed_events for report in reports]
    peak_events = max(per_shard_events) or 1
    return reports, {
        "parallel_shards": float(spec.shards),
        "parallel_sync_rounds": float(counters.sync_rounds),
        "parallel_null_messages": float(counters.null_messages),
        "parallel_cross_shard_messages": float(counters.cross_shard_messages),
        "parallel_shard_events_min": float(min(per_shard_events)),
        "parallel_shard_events_max": float(max(per_shard_events)),
        "parallel_shard_utilization_min": round(min(per_shard_events) / peak_events, 4),
        "parallel_shard_busy_max_s": round(max(report.busy_seconds for report in reports), 4),
    }


__all__ = ["run_shards"]
