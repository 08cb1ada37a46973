"""Shard-local pieces of the node-sharded conservative parallel engine.

The parallel engine (driven by :mod:`repro.harness.parallel`) partitions a
cluster's nodes over *shards*.  Each shard owns a disjoint subset of nodes
and runs an ordinary :class:`~repro.sim.engine.Simulation` over them in
bounded windows of length ``L`` — the *lookahead*, the minimum cross-node
network latency.  Because no message can arrive earlier than ``L`` after it
was sent, every event in the window ``[B, B + L)`` is already present in the
shard's own heap at time ``B``: shards therefore never wait on each other
inside a window, and only exchange cross-shard messages at window barriers
(a windowed variant of classic Chandy–Misra–Bryant null-message PDES; an
empty exchange *is* the null message, carrying only the horizon promise).

This module holds what a shard needs to know about itself: the
deterministic node→shard assignment, the lookahead derivation, and
:class:`EngineTagSequencer`, which stamps history and trace records with the
engine key of the event that produced them so per-shard record streams merge
back into exactly the one-shard order.  The transport side — buffering
messages for nodes another shard owns and admitting imported ones at a
barrier — is part of :class:`~repro.network.transport.Network` itself.

Determinism argument (sketch): the engine's event keys are unit-local
(:mod:`repro.sim.engine`), the transport's delivery keys are sender-local,
and scripted faults run under the control unit with the full plan installed
on every shard — so each shard assigns its nodes the exact keys the serial
engine would, and a barrier admission pushes the very heap entries the serial
engine would hold.
The serial-vs-parallel digest tests in ``tests/unit/test_parallel_engine.py``
assert byte-identical histories for every protocol × fault plan.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.errors import ConfigurationError


def shard_of(node_id: int, n_nodes: int, shards: int) -> int:
    """Deterministic node→shard assignment: contiguous balanced blocks."""
    return node_id * shards // n_nodes


def shard_node_ids(shard: int, n_nodes: int, shards: int) -> List[int]:
    """The node ids owned by ``shard`` under :func:`shard_of`."""
    return [n for n in range(n_nodes) if n * shards // n_nodes == shard]


def safe_lookahead(config) -> float:
    """The parallel engine's window length for ``config``.

    Conservative simulation may only advance a shard ``L`` past the last
    barrier before exchanging messages, where ``L`` is a lower bound on
    cross-node delivery delay: the latency model's infimum.  Link
    degradations never lower it (``factor >= 1``, ``extra >= 0`` are
    enforced by the driver), and send-side congestion only adds delay.
    """
    from repro.network.latency import UniformLatency

    network = config.network
    model = UniformLatency(base=network.base_latency_us, jitter=network.jitter_us)
    lookahead = model.min_latency()
    if lookahead <= 0.0:
        raise ConfigurationError(
            "the parallel engine requires a strictly positive minimum "
            f"cross-node latency (got {lookahead}); zero-infimum latency "
            "models cannot provide conservative lookahead"
        )
    return lookahead


class EngineTagSequencer:
    """Issues ``(time, key, sub)`` tags for deterministic shard-merge.

    ``(time, key)`` is the engine key of the event currently executing on
    ``sim`` and ``sub`` a within-event counter.  Engine keys are unique and
    totally ordered across shards (an ordinary event's by its unit's own
    counter, a message arrival's by its sender's ``(sender, seq)`` key, which
    no two messages share; control-unit keys shared identically by all
    shards), so any record stream tagged through one
    sequencer per shard can be concatenated and sorted by tag to reproduce
    the exact order a serial recorder would have appended in.  Shared by
    :class:`~repro.consistency.history.HistoryRecorder` and the trace
    plane's :class:`repro.trace.recorder.TraceRecorder`.
    """

    __slots__ = ("sim", "_tag_time", "_tag_key", "_tag_sub")

    def __init__(self, sim):
        self.sim = sim
        self._tag_time = -1.0
        self._tag_key = -1
        self._tag_sub = 0

    def next_tag(self) -> Tuple[float, int, int]:
        sim = self.sim
        time, key = sim._ekey_time, sim._ekey_key
        if time == self._tag_time and key == self._tag_key:
            self._tag_sub += 1
        else:
            self._tag_time = time
            self._tag_key = key
            self._tag_sub = 0
        return (time, key, self._tag_sub)


__all__ = [
    "EngineTagSequencer",
    "safe_lookahead",
    "shard_node_ids",
    "shard_of",
]
