"""The ambiguous zone of an SSS read, and its repairs.

Algorithm 6 excludes the writers above a reader's bound that still
pre-commit; the reader's snapshot-queue entry then holds each one's client
answer (the wait of Algorithm 4).  A writer past that wait, or at or below
the done-watermark, is *ambiguous*.  :class:`AmbiguousZoneMixin` waits for
it, asks its coordinator, and excludes one still in flight only once its
client answer is gated behind the reader; otherwise two readers could fork
as in the paper's Figure 2.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import TransactionId
from repro.core.messages import (
    ExternalStatusQuery,
    ExternalStatusReply,
    ReadRequest,
    ReleaseGate,
)
from repro.core.metadata import TransactionPhase
from repro.protocols.rounds import RoundRequests


class AmbiguousZoneMixin:
    """Ambiguous-zone methods mixed into :class:`repro.core.node.SSSNode`."""

    def _classify_writers(
        self, key: object, reader_vc: VectorClock, read: int, gated=frozenset()
    ) -> Tuple[List[Tuple[TransactionId, int]], Set[VectorClock]]:
        """One walk over ``key``'s versions above the reader's local bound.

        Each writer there that this node does not know to be externally
        committed is excluded from the reader's snapshot (Algorithm 6's
        ExcludedSet), waited for (the ambiguous zone), both, or neither:

        ====================================  ========  =========
        writer                                excluded  ambiguous
        ====================================  ========  =========
        preloaded (``None``) or known done    no        no
        in ``gated``                          yes       no
        covered by the reader's bound         no        no
        above the done-watermark, W queued    yes       no
        above the done-watermark, W gone      yes       yes
        at or below the done-watermark        no        yes
        ====================================  ========  =========

        An excluded writer is serialized after the reader, and the reader's
        snapshot-queue entry (inserted below the writer's snapshot) delays
        the writer's client response while the reader is outstanding.
        Writers in ``gated`` — ambiguous writers whose client answer was
        already gated behind this reader — are excluded unconditionally:
        observing a gated writer would deadlock the observation's
        dependency wait against the gate.  A writer whose W entry is gone
        has passed its local pre-commit wait, so a reader entry could no
        longer delay its client response, and a writer at or below the
        done-watermark cannot be excluded without capping the reader's
        bound below an already-done writer's local value: both are
        ambiguous until the bounded wait or the status query of
        :meth:`_resolve_ambiguous_writers` settles them.

        Returns ``(ambiguous, excluded)``: ``(writer, local clock value)``
        pairs (the local value is the writer's ``xactVN`` here) and the
        commit clocks of the excluded writers.
        """
        i = self.node_id
        bound = reader_vc[i]
        done = self._externally_done
        watermark = self._done_local_watermark
        squeue = self.store.squeue(key)
        ambiguous: List[Tuple[TransactionId, int]] = []
        excluded: Set[VectorClock] = set()
        for version in self.store.chain(key).newest_to_oldest():
            vc = version.vc
            local = vc[i]
            if local <= bound:
                break
            writer = version.writer
            if writer is None or writer in done:
                continue
            if writer in gated:
                excluded.add(vc)
            elif self._covered(vc, reader_vc, read):
                continue
            elif local <= watermark:
                ambiguous.append((writer, local))
            else:
                excluded.add(vc)
                if not squeue.has_writer(writer):
                    ambiguous.append((writer, local))
        return ambiguous, excluded

    def _resolve_ambiguous_writers(
        self,
        message: ReadRequest,
        key: object,
        reader_vc: VectorClock,
        read: int,
        gate_all: bool = False,
    ):
        """Bounded wait, then *definitive* resolution of ambiguous writers.

        The wait is bounded (``external_done_wait_us``) so that circular
        read-versus-pre-commit wait patterns cannot stall the read; in the
        common case the writer's ExternalDone notification arrives within a
        round-trip or two and the wait ends early.

        On expiry the reader does not exclude blindly: a notification
        delayed past the bound or swallowed by a crash would then serialize
        the reader *before* a writer whose client was already answered (the
        seed-17 regression).  Instead the reader asks each ambiguous
        writer's coordinator for a definitive status
        (:class:`ExternalStatusQuery`): *done* writers stop gating, and a
        writer confirmed still in flight is excluded only after its
        coordinator *gated its client answer* behind this reader — the
        excluded writer then answers after the reader finishes (or
        restarts), exactly the ordering its snapshot-queue entry would have
        enforced, so contradictory serialization decisions at different
        nodes can at worst deadlock (and the dependency-wait breaker then
        restarts a reader) but never commit.  An unreachable coordinator
        (fault mode) keeps the reader waiting — trading liveness (visible
        in the availability metrics), never safety.

        Returns ``(gated, refused, excluded)``: the writers gated on the
        reader's behalf (the coordinator must release them when the reader
        finishes), whether the read must be refused because a gate was
        refused (the reader was already withdrawn elsewhere), and the
        ExcludedSet of the last :meth:`_classify_writers` pass — taken with
        no yield between it and the caller's use of it, so no unresolved
        writer can slip in between.
        """
        reader = message.txn_id
        gated_total: Set[TransactionId] = set()
        # Ambiguous writers already handled: gated (they will be excluded)
        # or confirmed in flight below the done-watermark (they will be
        # observed with a dependency wait — gating those too would deadlock
        # the observation wait against the gate).
        resolved: Set[TransactionId] = set()
        deadline = None
        while True:
            ambiguous, excluded = self._classify_writers(key, reader_vc, read, gated_total)
            pending = [
                (writer, local)
                for writer, local in ambiguous
                if writer not in resolved
            ]
            if not pending:
                # Every ambiguous writer is done, gated, or observed.
                if resolved:
                    self.counters["ambiguous_wait_timeouts"] += 1
                return gated_total, False, excluded
            if deadline is None:
                deadline = self.sim.now + self.config.timeouts.external_done_wait_us
            remaining = deadline - self.sim.now
            if remaining <= 0:
                watermark = self._done_local_watermark
                gate_writers = {
                    writer
                    for writer, local in pending
                    if gate_all or local > watermark
                }
                confirmed, gated, refused = yield from self._query_external_status(
                    [writer for writer, _local in pending],
                    reader=reader,
                    gate_writers=gate_writers,
                )
                gated_total |= gated
                resolved |= gated
                resolved |= confirmed - gate_writers
                if refused:
                    # A coordinator declined to gate: this reader's Remove
                    # already passed through it (the transaction was
                    # withdrawn elsewhere) — refuse the read.
                    return gated_total, True, frozenset()
                # Loop: writers that became ambiguous during the query
                # round-trip must be resolved too before the exclusion set
                # is taken, or they would be excluded without a gate.
                deadline = None
                continue
            self.counters["ambiguous_waits"] += 1
            tracer = self.sim.tracer
            if tracer is not None:
                wait_start = self.sim.now
                blocked_on = sorted(writer for writer, _local in pending)
            events = [
                self.external_done_event(writer) for writer, _local in pending
            ]
            events.append(self.sim.timeout(remaining))
            yield self.sim.any_of(events)
            if tracer is not None:
                tracer.span(
                    "wait.ambiguous",
                    wait_start,
                    txn=reader,
                    node=self.node_id,
                    link=blocked_on,
                    args={
                        "key": str(key),
                        "outcome": "expired" if self.sim.now >= deadline else "notified",
                    },
                )

    def _query_external_status(self, writers, reader=None, gate_writers=frozenset()):
        """Resolve writers' fates definitively at their coordinators.

        Marks writers reported (or locally known) as done/torn-down in
        ``_externally_done``.  Writers in ``gate_writers`` additionally get
        their client answer gated behind ``reader`` when confirmed in
        flight.  Returns ``(confirmed_pending, gated, refused)``: writers
        confirmed still in flight, the subset successfully gated, and the
        subset whose gate was refused (the reader is already withdrawn at
        that coordinator).  In a fail-free run every query is answered in
        one round; queries to unreachable coordinators (fault mode) are
        re-driven (:meth:`redrive`) until answered — the generator simply
        does not terminate while every remaining coordinator is down.
        """
        confirmed_pending = set()
        gated = set()
        refused = set()
        outstanding: List[TransactionId] = []
        for writer in sorted(writers):
            if writer.node == self.node_id:
                meta = self.coordinated.get(writer)
                if meta is None or meta.phase in (
                    TransactionPhase.EXTERNALLY_COMMITTED,
                    TransactionPhase.ABORTED,
                ):
                    self._mark_externally_done(writer, self._done_time_of(writer))
                else:
                    confirmed_pending.add(writer)
                    if writer in gate_writers:
                        if self._register_answer_gate(writer, reader):
                            gated.add(writer)
                        else:
                            refused.add(writer)
            else:
                outstanding.append(writer)
        if not outstanding:
            return confirmed_pending, gated, refused

        def probe(writer):
            return ExternalStatusQuery(txn_id=writer, reader=reader, gate=writer in gate_writers)

        requests = RoundRequests(self, outstanding, lambda writer: writer.node, probe)
        events = dict(zip(outstanding, requests.events))
        target = self.sim.all_of(requests.events)
        tracer = self.sim.tracer
        while outstanding:
            self.counters["external_status_queries"] += 1
            round_start = self.sim.now if tracer is not None else 0.0
            yield from self.redrive(target, requests.waiting, requests.resend)
            next_round = []
            for writer in outstanding:
                event = events[writer]
                if not event.triggered:
                    next_round.append(writer)  # coordinator down, or reply lost
                    continue
                reply: ExternalStatusReply = event.value
                if reply.done:
                    self._mark_externally_done(writer, reply.done_time)
                else:
                    confirmed_pending.add(writer)
                    if writer in gate_writers:
                        if reply.gated:
                            gated.add(writer)
                        else:
                            refused.add(writer)
            if tracer is not None:
                # A round the fallback timer ended (coordinator down and not
                # yet rejoined, or a reply lost) is the stall signature: the
                # reader waited out the timer instead of being re-driven.
                tracer.span(
                    "wait.ambiguous_guard" if next_round else "wait.external_status",
                    round_start,
                    txn=reader,
                    node=self.node_id,
                    link=outstanding,
                    args={"outcome": "guard-timeout" if next_round else "answered"},
                )
            if next_round:
                requests.resend(requests.waiting())
            outstanding = next_round
        return confirmed_pending, gated, refused

    def on_external_status_query(self, message: ExternalStatusQuery) -> None:
        """Answer a definitive-status probe for a transaction of ours.

        ``done`` serves the reader-path ambiguous-zone and dependency waits.
        The decision fields serve restarted participants resolving in-doubt
        redo records: the recorded decision is *commit* once the vote round
        succeeded (``internal_commit_time`` set — the same convention the
        2PC-baseline recovery uses; the crash teardown flips the phase to
        ABORTED but cannot un-decide a sent decision), *abort* when the
        transaction aborted before a decision (or is unknown: presumed
        abort), and *undecided* otherwise.
        """
        meta = self.txn_state(message.txn_id)
        if meta is None:
            self.respond(
                message,
                ExternalStatusReply(txn_id=message.txn_id, done=True, outcome=False),
            )
            return
        done = meta.phase in (
            TransactionPhase.EXTERNALLY_COMMITTED,
            TransactionPhase.ABORTED,
        )
        done_time = self._done_time_of(message.txn_id)
        gated = False
        if message.gate and not done:
            gated = self._register_answer_gate(message.txn_id, message.reader)
        if meta.internal_commit_time is not None:
            outcome = True
            commit_vc = meta.commit_vc
            propagated = self._propagated_for_decide(meta)
        elif meta.phase is TransactionPhase.ABORTED:
            outcome, commit_vc, propagated = False, None, ()
        else:
            outcome, commit_vc, propagated = None, None, ()
        self.respond(
            message,
            ExternalStatusReply(
                txn_id=message.txn_id,
                done=done,
                done_time=done_time,
                gated=gated,
                outcome=outcome,
                commit_vc=commit_vc,
                propagated=propagated,
            ),
        )

    def _register_answer_gate(self, writer: TransactionId, reader: Optional[TransactionId]) -> bool:
        """Gate ``writer``'s client answer behind ``reader``.

        Refused (returns False) when the reader's Remove already passed
        through this node — the reader was withdrawn elsewhere and could
        never release the gate.

        Release coverage: the reader's coordinator learns the gate from the
        reply (``ReadReturn.gated``, losing replicas' included) and releases
        it on finish or restart (ReleaseGate).  A gate whose reply was lost
        is released by the writer's own wait (:meth:`_wait_answer_gates`),
        so only a reader coordinator that never restarts can pin a gate
        (the documented crash-forever liveness trade).
        """
        if reader is None or reader in self._removed_readers:
            return False
        self._answer_gates.setdefault(writer, set()).add(reader)
        self._gates_by_reader.setdefault(reader, set()).add(writer)
        self.counters["answer_gates_registered"] += 1
        return True

    def _release_answer_gates(self, reader: TransactionId, writers=None) -> None:
        """Release ``reader``'s gates (all of them, or just ``writers``)."""
        held = self._gates_by_reader.get(reader)
        if not held:
            return
        targets = sorted(held) if writers is None else sorted(set(writers) & held)
        for writer in targets:
            held.discard(writer)
            gates = self._answer_gates.get(writer)
            if gates is None:
                continue
            gates.discard(reader)
            if not gates:
                del self._answer_gates[writer]
                event = self._answer_gate_events.pop(writer, None)
                if event is not None and not event.triggered:
                    event.succeed()
        if not held:
            self._gates_by_reader.pop(reader, None)

    def on_release_gate(self, message: ReleaseGate) -> None:
        """Release the sender transaction's answer gates on listed writers."""
        self._release_answer_gates(message.txn_id, message.writers)

    def _wait_answer_gates(self, txn_id: TransactionId):
        """Hold a writer's client answer until its answer gates clear.

        Every gating reader finishes or restarts in bounded time (the
        dependency-wait breaker guarantees it) and releases the gates it
        learned of.  A reader whose reply was lost does not know its gate,
        so the wait is re-driven (:meth:`redrive`) over the readers'
        coordinators, re-validating each there (:meth:`_revalidate`).
        Registrations can race in while waiting, hence the loop.
        """

        def gating_nodes():
            return sorted({reader.node for reader in self._answer_gates.get(txn_id, ())})

        def revalidate(nodes):
            gating = self._answer_gates.get(txn_id, ())
            self._revalidate(sorted(reader for reader in gating if reader.node in nodes))

        while self._answer_gates.get(txn_id):
            self.counters["answer_gate_waits"] += 1
            event = self.sim.event(name=f"answer-gates:{txn_id}")
            self._answer_gate_events[txn_id] = event
            yield from self.redrive(event, gating_nodes, revalidate, lambda: event.triggered)
