"""Client-side transaction execution at the coordinator node.

In SSS a client is co-located with a node; that node coordinates every
transaction the client starts.  :class:`CoordinatorMixin` adds the
coordinator role to :class:`repro.core.node.SSSNode`:

* :meth:`begin_transaction` — create the transaction metadata.
* :meth:`txn_read` — Algorithm 5: snapshot the local ``NLog.mostRecentVC`` on
  the first read, contact every replica of the key, take the fastest answer,
  merge the returned vector clock into ``T.VC``, mark ``hasRead`` and
  accumulate the propagated set.
* :meth:`txn_write` — buffer the write in the write-set (lazy update).
* :meth:`txn_commit` — Algorithm 1: read-only transactions reply to the
  client immediately and send ``Remove``; update transactions run 2PC
  (prepare, votes, decide), then wait for the ``ExternalAck`` of every write
  replica before the client is informed (the external commit).

All methods that involve waiting are generators intended to be driven with
``yield from`` inside a simulation process (see :class:`repro.core.session.Session`).
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import SnapshotRestartError, TransactionStateError
from repro.common.ids import TransactionId
from repro.core.messages import (
    Decide,
    ExternalAck,
    Prepare,
    PrecommitQuery,
    ReadRequest,
    ReadReturn,
    ReleaseGate,
    Remove,
    SubscribeExternal,
)
from repro.core.metadata import (
    READONLY_RESTART_REASON,
    TransactionMeta,
    TransactionPhase,
)


class CoordinatorMixin:
    """Coordinator-role methods mixed into :class:`repro.core.node.SSSNode`.

    The generic transaction lifecycle (``begin_transaction`` / ``txn_write``
    and the finish transitions) comes from
    :class:`repro.protocols.runtime.ProtocolRuntime`; this mixin adds only
    what is SSS-specific — Algorithm 5 reads, the Algorithm 1 commit with
    its external-commit dependency waits, and the read-only Remove cleanup.
    """

    def txn_read(self, meta: TransactionMeta, key: object):
        """Algorithm 5: read ``key`` on behalf of ``meta`` (generator)."""
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"read after commit/abort in {meta}")

        # Line 2-4: reads of keys in the write-set observe the buffered value.
        if key in meta.write_set:
            return meta.write_set[key]

        # Lines 5-7: the first read snapshots the local commit log.
        if not meta.first_read_done:
            meta.vc = self.nlog.most_recent_vc
            meta.first_read_done = True

        # Lines 8-10: contact every replica, use the fastest answer.  The
        # round retries in fault mode, so an rf=1 read against a crashed
        # replica resumes after the restart instead of stalling until drain.
        replicas = self.replicas(key)
        has_read = tuple(meta.has_read)
        meta.reading_key = key
        reply, request_events = yield from self.fastest_round(
            replicas,
            lambda _replica: ReadRequest(
                txn_id=meta.txn_id,
                key=key,
                vc=meta.vc,
                has_read=has_read,
                is_update=meta.is_update,
            ),
            trace_txn=meta.txn_id,
        )
        meta.reading_key = None
        if len(request_events) > 1 and not meta.is_update:
            # Replicas that lose the fastest-answer race still inserted a
            # snapshot-queue entry under *their* serialization decision,
            # which this transaction does not adopt; clean those entries
            # up as the losing replies arrive, or a stale entry could
            # gate an unrelated writer's external commit against this
            # reader's own external-commit dependency wait (deadlock).
            self._cleanup_losing_replies(meta.txn_id, key, request_events, reply)

        if reply.gated:
            # Writers whose client answer the serving replica gated behind
            # this transaction; released on finish or restart.
            meta.gated_writers.update(reply.gated)

        if reply.stale:
            # The serving replica refused the read: the transaction's frozen
            # visibility bound hides a writer that externally committed
            # before the transaction began (or a gate was refused), so no
            # snapshot completion can be externally consistent.  Withdraw and
            # restart under a fresh snapshot (externally invisible; see
            # SnapshotRestartError).
            self._restart_read_only(meta)
            raise SnapshotRestartError(meta.txn_id)

        served_by = reply.sender
        # Lines 11-14: merge visibility information and record the read.
        meta.mark_has_read(served_by)
        meta.merge_vc(reply.max_vc)
        meta.record_read(
            key=key,
            value=reply.value,
            version_vc=reply.version_vc,
            writer=reply.writer,
            served_by=served_by,
        )
        if reply.writer_pending and reply.writer != meta.txn_id:
            # External-commit dependency: this transaction's own client
            # response must wait for the observed writer's client response.
            meta.pending_writers.add(reply.writer)
        if reply.propagated:
            # The server noted shipping these entries here, and the Decide
            # fan-out notes where they go next: a reader's Remove follows.
            meta.add_propagated(reply.propagated)
        self.counters["client_reads"] += 1
        return reply.value

    def _cleanup_losing_replies(
        self, txn_id: TransactionId, key: object, request_events, winner: ReadReturn
    ) -> None:
        """Retract snapshot-queue entries left by losing read replicas.

        Answer gates a losing replica registered on the transaction's behalf
        are *adopted* into the transaction's release set, not released here:
        the winning replica may have gated the very same writer for the
        very same reader, and the coordinator's gate registry collapses
        those registrations into one entry — an early release would destroy
        the gate the adopted exclusion depends on.  Holding a loser-only
        gate until the transaction finishes costs the writer bounded delay
        (at most the reader's lifetime, which the restart breaker bounds),
        never safety.  Only when the transaction already finished (a
        late-arriving losing reply) is the gate released on the spot.
        """

        def cleanup(event) -> None:
            if event.ok and event._value is not winner:
                losing: ReadReturn = event._value
                self.send(
                    losing.sender,
                    Remove(txn_id=txn_id, keys=(key,), mark_returned=False),
                )
                if losing.gated:
                    meta = self.coordinated.get(txn_id)
                    if meta is not None and meta.phase is TransactionPhase.EXECUTING:
                        meta.gated_writers.update(losing.gated)
                    else:
                        self._release_gated(txn_id, losing.gated)

        for event in request_events:
            if event.triggered:
                cleanup(event)
            else:
                event.add_callback(cleanup)

    def _release_gated(self, reader: TransactionId, writers) -> None:
        """Release ``reader``'s answer gates at the writers' coordinators."""
        by_node: Dict[int, list] = {}
        for writer in sorted(writers):
            by_node.setdefault(writer.node, []).append(writer)
        for node_id in sorted(by_node):
            if node_id == self.node_id:
                self._release_answer_gates(reader, by_node[node_id])
            else:
                self.send(
                    node_id,
                    ReleaseGate(txn_id=reader, writers=tuple(by_node[node_id])),
                )

    def txn_abort(self, meta: TransactionMeta) -> None:
        """Client-requested abort before commit.

        Buffered writes are simply dropped.  A read-only transaction that
        already issued reads has left entries in the snapshot queues of its
        read keys; those are cleaned up exactly as on commit (by sending
        ``Remove``), otherwise it could block update transactions forever.
        """
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"abort after completion of {meta}")
        if meta.is_read_only and meta.read_set:
            self._commit_read_only(meta)
        meta.phase = TransactionPhase.ABORTED
        meta.abort_reason = "client-abort"
        meta.abort_time = self.sim.now
        self.counters["client_aborts"] += 1
        self._retire(meta)

    # ------------------------------------------------------------------
    # Commit — Algorithm 1
    # ------------------------------------------------------------------
    def txn_commit(self, meta: TransactionMeta):
        """Commit ``meta``; returns True on (external) commit, False on abort.

        A read-only transaction whose dependency wait sits on writers
        confirmed still in flight past ``readonly_restart_wait_us`` is
        withdrawn instead (:class:`SnapshotRestartError`): the workload
        layer re-executes it with a fresh snapshot, the client never sees an
        abort, and the 4-party wait cycle loses one of its edges.
        """
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"double commit of {meta}")

        if not meta.write_set:
            resolved = yield from self._wait_pending_writers(meta)
            if not resolved:
                self._restart_read_only(meta)
                raise SnapshotRestartError(meta.txn_id)
            return self._commit_read_only(meta)
        return (yield from self._commit_update(meta))

    def _wait_pending_writers(self, meta: TransactionMeta):
        """Delay the client response until observed writers are external.

        A transaction that read a version produced by a writer still in its
        pre-commit phase is serialized *after* that writer; answering its
        client earlier would publish the writer's state before the writer's
        own client response, and a transaction started in between could then
        be serialized before the writer — the external-consistency cycle the
        snapshot queues exist to prevent.

        The serving node subscribed this coordinator to each pending writer's
        ExternalDone notification at read time, so by now the notification
        has usually arrived and the wait is free.  When it is not:

        * an *update* transaction waits on the notification events alone —
          writer-only dependency chains are acyclic (a writer can only
          observe versions installed before its own reads), so the wait
          always resolves.  The wait is re-driven (:meth:`redrive`): its
          silent waves and a coordinator's Rejoin re-subscribe, since a
          crash or a drop-mode partition can swallow both the subscription
          and the notification, and a coordinator answers a fresh
          SubscribeExternal for a finished (or torn-down) writer at once;
        * a *read-only* transaction waits in bounded waves
          (``external_done_wait_us``).  After each wave the leftovers are
          resolved definitively at their coordinators
          (:class:`ExternalStatusQuery`, itself re-driven — a delayed or
          swallowed ExternalDone stops gating on the spot, and a coordinator
          that is down answers after its restart, trading liveness, never
          safety), and once writers *confirmed in flight* have held the wait
          past ``readonly_restart_wait_us`` the generator returns ``False``:
          two read-only transactions bridging two independent
          pre-committing writers can adopt contradictory serialization
          orders (the paper's Figure 2 ambiguity turned into a 4-party wait
          cycle), the writers' versions are already installed, so the
          reader is the only party that can move — it restarts with a fresh
          snapshot instead of stalling the cluster.

        Returns ``True`` when every observed writer is externally done.
        """
        if not meta.pending_writers:
            return True
        still_pending = [
            writer
            for writer in sorted(meta.pending_writers)
            if writer not in self._externally_done
        ]
        if not still_pending:
            return True
        self.counters["external_dependency_waits"] += 1
        tracer = self.sim.tracer
        trace_start = self.sim.now if tracer is not None else 0.0
        trace_links = tuple(still_pending) if tracer is not None else ()
        timeouts = self.config.timeouts

        def all_done(writers):
            events = [self.external_done_event(writer) for writer in writers]
            return events[0] if len(events) == 1 else self.sim.all_of(events)

        if meta.is_update:

            def pending_nodes():
                return [w.node for w in still_pending if w not in self._externally_done]

            def resubscribe(nodes):
                self.counters["crash_resubscribes"] += 1
                for writer in still_pending:
                    if writer in self._externally_done or writer.node not in nodes:
                        continue
                    if writer.node == self.node_id:
                        self._register_external_watcher(writer, self.node_id)
                    else:
                        self.send(
                            writer.node, SubscribeExternal(txn_id=writer, target=self.node_id)
                        )

            done = all_done(still_pending)
            yield from self.redrive(done, pending_nodes, resubscribe, lambda: done.triggered)
        else:
            restart_deadline = self.sim.now + timeouts.readonly_restart_wait_us
            while still_pending:
                yield self.sim.any_of(
                    [all_done(still_pending), self.sim.timeout(timeouts.external_done_wait_us)]
                )
                leftovers = [w for w in still_pending if w not in self._externally_done]
                confirmed_pending, _gated, _refused = yield from self._query_external_status(
                    leftovers
                )
                # Only writers *confirmed* in flight restart the reader: the
                # query waits out a coordinator that is merely down.
                if self.sim.now >= restart_deadline and confirmed_pending:
                    if tracer is not None:
                        tracer.span(
                            "wait.pending_writers",
                            trace_start,
                            txn=meta.txn_id,
                            link=trace_links,
                            args={"outcome": "restart"},
                        )
                    return False
                still_pending = [w for w in leftovers if w not in self._externally_done]
        if tracer is not None:
            tracer.span("wait.pending_writers", trace_start, txn=meta.txn_id, link=trace_links)
        return True

    def _restart_read_only(self, meta: TransactionMeta) -> None:
        """Withdraw a read-only transaction for an externally invisible retry.

        Its snapshot-queue entries are removed exactly as on completion (so
        every writer it gated can proceed — when the commit-time wait-cycle
        breaker triggered, this is the cycle edge being cut), the attempt is
        *not* recorded in the history (the client is answered once, from the
        committed retry), and the workload layer re-executes the transaction
        under a fresh id and snapshot (see :class:`SnapshotRestartError`).
        """
        self._send_removes(meta)
        if meta.gated_writers:
            self._release_gated(meta.txn_id, meta.gated_writers)
        self.counters["readonly_restarts"] += 1
        self.txn_tear_down(meta, READONLY_RESTART_REASON, "restart")

    def _commit_read_only(self, meta: TransactionMeta) -> bool:
        """Lines 2-8: read-only transactions return immediately, then Remove."""
        self._finish_commit(meta, "read_only_commits")
        self._send_removes(meta)
        if meta.gated_writers:
            self._release_gated(meta.txn_id, meta.gated_writers)
        return True

    def _send_removes(self, meta: TransactionMeta) -> None:
        """Fan out the Remove cleanup of a finished read-only transaction.

        One Remove per replica, carrying every read key it holds; grouped in
        a single pass over the read-set and the key of a read still in
        flight (a reader torn down mid-read).  Each replica forwards it down
        the anti-dependency chain it shipped the reader's entry along
        (:meth:`on_remove`), which a crash keeps.
        """
        keys = dict.fromkeys(meta.read_set)
        if meta.reading_key is not None:
            keys[meta.reading_key] = None
        by_replica: Dict[int, list] = {}
        for key in keys:
            for replica in self.replicas(key):
                by_replica.setdefault(replica, []).append(key)
        for replica in sorted(by_replica):
            self.channel.send(replica, Remove(txn_id=meta.txn_id, keys=tuple(by_replica[replica])))

    def _propagated_for_decide(self, meta: TransactionMeta):
        """Propagated entries eligible for (re-)insertion at write replicas.

        Propagated read-only entries whose Remove already passed through
        this node must not be re-inserted anywhere: the Remove will not be
        forwarded again, so a stale insertion would block the written keys'
        pre-commit forever.  Shared by the Decide fan-out, its
        PrecommitQuery retransmission, and in-doubt status replies.
        """
        return tuple(
            entry
            for entry in sorted(meta.propagated_set, key=lambda e: (e.txn_id, e.snapshot))
            if entry.txn_id not in self._removed_readers
        )

    def _commit_update(self, meta: TransactionMeta):
        """Lines 9-26 plus the external-commit wait (Algorithm 4 acks)."""
        meta.phase = TransactionPhase.PREPARING
        meta.prepare_time = self.sim.now
        txn_id = meta.txn_id

        participants = set(self.placement.replicas_of(list(meta.read_set) + list(meta.write_set)))
        participants.add(self.node_id)
        participants = sorted(participants)
        write_replicas = set(self.placement.replicas_of(list(meta.write_set)))

        # Prepare phase: one shared vote round (the runtime arms the fail-fast
        # VoteCollector and re-drives prepares a crash may have lost).
        read_versions = tuple((key, record.version_vc) for key, record in meta.read_set.items())
        write_items = tuple(meta.write_set.items())
        outcome, collected = yield from self.vote_round(
            participants,
            lambda _participant: Prepare(
                txn_id=txn_id,
                vc=meta.vc,
                read_versions=read_versions,
                write_items=write_items,
            ),
            trace_txn=txn_id,
        )

        commit_vc = meta.vc
        if outcome:
            # Fold the whole vote round in one batch merge instead of
            # one intermediate clock per vote.
            commit_vc = commit_vc.merge_many([vote.vc for vote in collected])

        if outcome:
            # Lines 21-24: every write-replica entry takes the transaction
            # version number (the maximum across the write replicas).
            write_indices = sorted(write_replicas)
            xact_vn = commit_vc.max_over(write_indices)
            commit_vc = commit_vc.with_entries(write_indices, xact_vn)
            meta.commit_vc = commit_vc
            # The transaction version number orders this transaction against
            # every other writer of the same keys (the commit queues install
            # versions in xactVN order), which is what the consistency
            # checker uses to recover per-key version orders.
            meta.version_hints = {key: float(xact_vn) for key in meta.write_set}

        # Register for the external acks *before* the decision is sent so an
        # ack arriving instantly (loopback) is not lost.
        ack_event = None
        if outcome:
            ack_event = self.sim.event(name=f"external:{txn_id}")
            self._ack_waits[txn_id] = (ack_event, set(write_replicas))

        propagated = self._propagated_for_decide(meta)
        for participant in participants:
            self.channel.send(
                participant,
                Decide(
                    txn_id=txn_id,
                    commit_vc=commit_vc if outcome else meta.vc,
                    outcome=outcome,
                    propagated=propagated,
                ),
            )
            if outcome and propagated:
                for entry in propagated:
                    self.note_propagation(entry.txn_id, participant)

        if not outcome:
            # Release any external-commit subscribers (none should exist for
            # an aborted writer, but a dangling watcher must never hang).
            self._external_commit_completed(txn_id, ())
            reason = meta.abort_reason or "validation-or-lock"
            return self._finish_abort(meta, reason, "update_aborts")

        meta.phase = TransactionPhase.INTERNALLY_COMMITTED
        meta.internal_commit_time = self.sim.now

        # External commit: wait for every write replica's pre-commit ack and
        # for every observed still-pre-committing writer's external commit.
        meta.phase = TransactionPhase.PRE_COMMIT
        tracer = self.sim.tracer
        trace_start = self.sim.now if tracer is not None else 0.0

        # A write replica that crashed mid-pre-commit lost both the wait
        # process and the ack; when a message can be lost, redrive asks the
        # remaining replicas to replay from their durable logs — a restarted
        # one at once, all of them between waves.
        def unacked():
            return sorted(self._ack_waits.get(txn_id, (None, ()))[1])

        def query(replicas):
            self.counters["precommit_retries"] += 1
            for replica in replicas:
                # The query doubles as a decision retransmission: a replica
                # whose Decide was lost (voted, then crashed, or a drop-mode
                # partition ate it) applies the decision from its durable
                # redo record.
                self.send(
                    replica,
                    PrecommitQuery(
                        txn_id=txn_id,
                        commit_vc=meta.commit_vc,
                        propagated=self._propagated_for_decide(meta),
                    ),
                )

        yield from self.redrive(
            ack_event, unacked, query, lambda: ack_event.triggered or not unacked()
        )
        if tracer is not None:
            tracer.span(
                "wait.precommit_ack",
                trace_start,
                txn=txn_id,
                args={"replicas": len(write_replicas)},
            )
        yield from self._wait_pending_writers(meta)
        # Ordered external-commit resolution: readers that ambiguously
        # excluded this writer gated its client answer behind their own
        # completion — hold the answer until every gate is released.
        trace_start = self.sim.now if tracer is not None else 0.0
        yield from self._wait_answer_gates(txn_id)
        if tracer is not None and self.sim.now > trace_start:
            tracer.span("wait.answer_gate", trace_start, txn=txn_id)
        self._finish_commit(meta, "update_commits")
        self._external_commit_completed(txn_id, sorted(write_replicas))
        return True

    # ------------------------------------------------------------------
    # ExternalAck handling
    # ------------------------------------------------------------------
    def on_external_ack(self, message: ExternalAck) -> None:
        """Collect pre-commit acks; fire the wait event when all arrived."""
        waiting = self._ack_waits.get(message.txn_id)
        if waiting is None:
            return
        event, remaining = waiting
        remaining.discard(message.sender)
        if not remaining:
            del self._ack_waits[message.txn_id]
            if not event.triggered:
                event.succeed()
