"""The per-shard trace recorder and the deterministic shard merge.

A :class:`TraceRecorder` hangs off ``Simulation.tracer``.  Instrumented
sites throughout the engine, transport, runtime and protocol nodes guard on
``sim.tracer is not None`` — one identity check when tracing is off — and
otherwise record :class:`TraceEvent` rows.  The recorder is **passive**: it
never schedules events and never draws from the RNG registry, so enabling
it cannot perturb the simulation (histories stay byte-identical).

Every event is stamped with an :class:`~repro.sim.shard.EngineTagSequencer`
tag — the engine key of the event that produced it plus a within-event
counter — exactly as ``HistoryRecorder`` tags its records.  Each engine event
executes on exactly one shard with the key the serial engine would have
used, so concatenating per-shard event lists and sorting by tag reproduces
the serial recording order byte-for-byte (pinned by
``tests/integration/test_trace_determinism.py``).

Spans are recorded *at resolution*, not as begin/end pairs: the caller
remembers the start timestamp (a local float — free when tracing is off)
and records one event when the wait resolves, which also lets the span name
reflect the outcome (e.g. ``wait.ambiguous`` vs ``wait.ambiguous_guard``
when the guard timer fired).  A wait still unresolved at the end of the run
is simply absent; the transaction's unfinished state is visible instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.ids import TransactionId
from repro.sim.shard import EngineTagSequencer
from repro.trace.spec import TraceSpec

#: Merge tag: ``(engine event time, engine event key, within-event counter)``.
Tag = Tuple[float, int, int]

#: ``(phase name, start, end)`` rows attached to a finished transaction.
PhaseRow = Tuple[str, float, float]

#: Finished-transaction summary: ``(begin, end, outcome, phases)``.
TxnSummary = Tuple[float, float, str, Tuple[PhaseRow, ...]]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded point or interval.

    ``kind`` is one of:

    * ``"span"`` — closed interval ``[ts, ts + dur]`` (a wait, an RPC
      round, a client phase, a node-down window);
    * ``"instant"`` — a point event (crash, restart, dropped message);
    * ``"msg"`` — a message lifecycle point (send/recv/handle); ``args``
      may carry ``flow`` (the sender-local delivery key) binding the
      send to its deliveries as a flow arrow.

    ``txn`` attributes the event to a transaction (staged only when the
    spec samples it); ``node`` places it on that node's track in the
    export — events with ``node is None`` render on the transaction's own
    track.  ``link`` carries awaited transaction ids as causal links.
    """

    tag: Tag
    kind: str
    name: str
    ts: float
    dur: float
    txn: Optional[TransactionId]
    node: Optional[int]
    link: Tuple[TransactionId, ...]
    args: Optional[dict]


class TraceRecorder:
    """Accumulates trace events for one engine (one shard, or the serial run)."""

    __slots__ = ("sim", "spec", "events", "staged", "finished", "_tags")

    def __init__(self, sim, spec: TraceSpec):
        self.sim = sim
        self.spec = spec
        #: Events not attributed to any transaction (node lifecycle, client
        #: think/backoff windows) — always recorded while tracing is on.
        self.events: List[TraceEvent] = []
        #: Per-sampled-transaction event lists, in recording order.
        self.staged: Dict[TransactionId, List[TraceEvent]] = {}
        #: Transactions that reached commit/abort, with their summary.
        self.finished: Dict[TransactionId, TxnSummary] = {}
        self._tags = EngineTagSequencer(sim)

    # ------------------------------------------------------------- selection
    def wants(self, txn_id: TransactionId) -> bool:
        """Whether ``txn_id`` is sampled — cheap enough for hot paths."""
        return self.spec.selects(txn_id)

    # ------------------------------------------------------------- recording
    def _emit(
        self,
        kind: str,
        name: str,
        ts: float,
        dur: float,
        txn: Optional[TransactionId],
        node: Optional[int],
        link: Tuple[TransactionId, ...],
        args: Optional[dict],
    ) -> None:
        if txn is not None:
            if not self.spec.selects(txn):
                return
            event = TraceEvent(self._tags.next_tag(), kind, name, ts, dur, txn, node, link, args)
            self.staged.setdefault(txn, []).append(event)
        else:
            event = TraceEvent(self._tags.next_tag(), kind, name, ts, dur, txn, node, link, args)
            self.events.append(event)

    def span(
        self,
        name: str,
        start: float,
        *,
        txn: Optional[TransactionId] = None,
        node: Optional[int] = None,
        link: Sequence[TransactionId] = (),
        args: Optional[dict] = None,
        end: Optional[float] = None,
    ) -> None:
        """Record the interval ``[start, end or now]`` (at resolution)."""
        stop = self.sim.now if end is None else end
        self._emit("span", name, start, stop - start, txn, node, tuple(link), args)

    def instant(
        self,
        name: str,
        ts: Optional[float] = None,
        *,
        txn: Optional[TransactionId] = None,
        node: Optional[int] = None,
        link: Sequence[TransactionId] = (),
        args: Optional[dict] = None,
    ) -> None:
        when = self.sim.now if ts is None else ts
        self._emit("instant", name, when, 0.0, txn, node, tuple(link), args)

    def message(
        self,
        name: str,
        txn: Optional[TransactionId],
        node: int,
        *,
        flow: Optional[int] = None,
        peer: Optional[int] = None,
        kind: str = "",
    ) -> None:
        """Record a message lifecycle point on ``node``'s track, now."""
        args: dict = {}
        if flow is not None:
            args["flow"] = flow
        if peer is not None:
            args["peer"] = peer
        if kind:
            args["msg"] = kind
        self._emit("msg", name, self.sim.now, 0.0, txn, node, (), args or None)

    # ------------------------------------------------------------ txn lifecycle
    def txn_begin(self, txn_id: TransactionId, node: int) -> None:
        self._emit("instant", "txn.begin", self.sim.now, 0.0, txn_id, None, (), {"node": node})

    def txn_end(
        self,
        txn_id: TransactionId,
        outcome: str,
        begin: float,
        phases: Sequence[PhaseRow] = (),
    ) -> None:
        """Record commit/abort/teardown of ``txn_id`` at the current time."""
        if not self.spec.selects(txn_id):
            return
        end = self.sim.now
        self.finished[txn_id] = (begin, end, outcome, tuple(phases))
        self._emit("instant", "txn.end", end, 0.0, txn_id, None, (), {"outcome": outcome})

    # ---------------------------------------------------------------- payload
    def payload(self) -> Tuple[List[TraceEvent], Dict, Dict]:
        """Plain ``(events, staged, finished)`` triple for shard reports."""
        return (self.events, self.staged, self.finished)


class TraceResult:
    """Merged, filtered trace of one experiment."""

    __slots__ = ("spec", "events", "txns", "finished")

    def __init__(
        self,
        spec: TraceSpec,
        events: List[TraceEvent],
        txns: Dict[TransactionId, List[TraceEvent]],
        finished: Dict[TransactionId, TxnSummary],
    ):
        self.spec = spec
        self.events = events
        self.txns = txns
        self.finished = finished

    @property
    def unfinished(self) -> List[TransactionId]:
        """Sampled transactions that never reached commit/abort (sorted)."""
        return sorted(txn for txn in self.txns if txn not in self.finished)


def merge_trace_payloads(spec: TraceSpec, payloads: Sequence[Tuple]) -> TraceResult:
    """Merge per-shard recorder payloads into one deterministic result.

    A transaction's events span shards (coordinator-side spans on its owner
    shard, replica waits and deliveries elsewhere), so per-transaction lists
    are concatenated across shards and sorted by engine tag; the
    ``slower_than_us`` filter is applied here — only here — so every shard
    drops or keeps a transaction consistently.  Unfinished transactions are
    always kept: in a stall they are the evidence.
    """
    events: List[TraceEvent] = []
    staged: Dict[TransactionId, List[TraceEvent]] = {}
    finished: Dict[TransactionId, TxnSummary] = {}
    for shard_events, shard_staged, shard_finished in payloads:
        events.extend(shard_events)
        for txn, rows in shard_staged.items():
            staged.setdefault(txn, []).extend(rows)
        finished.update(shard_finished)
    events.sort(key=_tag_of)

    threshold = spec.slower_than_us
    txns: Dict[TransactionId, List[TraceEvent]] = {}
    for txn in sorted(staged):
        summary = finished.get(txn)
        if threshold is not None and summary is not None:
            begin, end = summary[0], summary[1]
            if end - begin < threshold:
                continue
        rows = staged[txn]
        rows.sort(key=_tag_of)
        txns[txn] = rows
    kept_finished = {txn: finished[txn] for txn in txns if txn in finished}
    return TraceResult(spec, events, txns, kept_finished)


def _tag_of(event: TraceEvent) -> Tag:
    return event.tag


__all__ = [
    "PhaseRow",
    "Tag",
    "TraceEvent",
    "TraceRecorder",
    "TraceResult",
    "TxnSummary",
    "merge_trace_payloads",
]
