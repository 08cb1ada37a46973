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

Every shard is stepped in the calling process.  The schedule is kept for
what it proves, not for speed: a run split over N shards must reproduce the
one-shard run byte for byte, which pins that the cluster is partitionable
and that nothing depends on the shard count.

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

from typing import Dict, List, Tuple

from repro.harness.runner import ExperimentSpec, Shard, ShardReport
from repro.sim.shard import safe_lookahead, shard_of


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


def run_shards(spec: ExperimentSpec) -> Tuple[List[ShardReport], Dict[str, float]]:
    """Run every shard of ``spec`` through the barrier schedule.

    Returns the shard reports in shard order and the schedule's own
    synchronization + balance accounting (``parallel_*`` metrics extras).
    """
    shards = [Shard(spec, index) for index in range(spec.shards)]
    n_nodes = spec.config.n_nodes
    sync_rounds = null_messages = cross_shard_messages = 0
    for barrier in _barrier_schedule(spec):
        # Route each outbox to the shards owning its destinations.  Import
        # order is free: every entry is admitted under its own engine key.
        imports: List[list] = [[] for _ in shards]
        for shard in shards:
            shard.cluster.sim.run_window(barrier)
            outbox = shard.cluster.network.take_outbox()
            if not outbox:
                null_messages += 1
                continue
            cross_shard_messages += len(outbox)
            for entry in outbox:
                imports[shard_of(entry[2], n_nodes, spec.shards)].append(entry)
        sync_rounds += 1
        for shard, batch in zip(shards, imports):
            shard.cluster.network.admit(batch)
    reports = []
    for shard in shards:
        # Inclusive final step: events at exactly the horizon still run.
        shard.cluster.sim.run(until=spec.horizon_us)
        reports.append(shard.report())
    per_shard_events = [report.processed_events for report in reports]
    peak_events = max(per_shard_events) or 1
    return reports, {
        "parallel_shards": float(spec.shards),
        "parallel_sync_rounds": float(sync_rounds),
        "parallel_null_messages": float(null_messages),
        "parallel_cross_shard_messages": float(cross_shard_messages),
        "parallel_shard_events_min": float(min(per_shard_events)),
        "parallel_shard_events_max": float(max(per_shard_events)),
        "parallel_shard_utilization_min": round(min(per_shard_events) / peak_events, 4),
    }


__all__ = ["run_shards"]
