"""The participant side of an SSS update commit: Algorithms 2-4.

:class:`CommitPathMixin` handles ``Prepare`` / ``Decide`` (Algorithm 2),
applies the ready transactions at the commit-queue head (Algorithm 2,
lines 29-36), runs each one's pre-commit (Algorithm 3) with its wait and
``ExternalAck`` (Algorithm 4), records ``ExternalDone`` notifications, and
forwards a returned reader's ``Remove`` down its anti-dependency chain.
"""

from __future__ import annotations

from typing import Optional

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import NodeId, TransactionId
from repro.core.messages import (
    Decide,
    ExternalAck,
    ExternalDone,
    Prepare,
    PrecommitQuery,
    Remove,
    SubscribeExternal,
    Vote,
)
from repro.core.metadata import TransactionPhase
from repro.storage.commit_queue import ParticipantRecord
from repro.storage.nlog import NLogEntry
from repro.storage.snapshot_queue import READ_KIND, SQueueEntry, WRITE_KIND


class CommitPathMixin:
    """Participant commit-path methods mixed into :class:`repro.core.node.SSSNode`."""

    def on_prepare(self, message: Prepare):
        """2PC prepare: lock, validate, vote (runs as a process)."""
        txn_id = message.txn_id
        if not self.admit_prepare(message, self._recorded_vote):
            return
        service = self.service
        local_read_versions = tuple(
            (k, vc) for k, vc in message.read_versions if self.is_replica_of(k)
        )
        local_reads = tuple(k for k, _vc in local_read_versions)
        local_writes = tuple((k, v) for k, v in message.write_items if self.is_replica_of(k))
        write_keys = tuple(k for k, _v in local_writes)

        yield self.cpu(service.lock_op_us * max(1, len(local_reads) + len(write_keys)))
        locked = yield from self.locks.acquire_all(
            txn_id,
            exclusive_keys=write_keys,
            shared_keys=local_reads,
            timeout_us=self.config.timeouts.lock_timeout_us,
        )

        outcome = locked
        if locked:
            yield self.cpu(service.validate_key_us * max(1, len(local_reads)))
            outcome = self._validate(local_read_versions)

        if not outcome:
            if locked:
                self.locks.release(txn_id, list(write_keys) + list(local_reads))
            self.counters["prepare_rejects"] += 1
            self.cast_vote(message, Vote(txn_id=txn_id, vc=message.vc, success=False))
            return

        if local_writes:
            # Lines 8-11: propose NodeVC with the local entry incremented and
            # enqueue the transaction as pending.  The redo record is
            # force-written before the vote leaves the node, so a crash
            # between vote and internal commit can no longer lose the queue
            # entry and the pending writes (the in-doubt stall).
            self.node_vc = self.node_vc.increment(self.node_id)
            prep_vc = self.node_vc
            self.commit_queue.put(txn_id, prep_vc)
            self.redo_log[txn_id] = ParticipantRecord(txn_id, local_reads, local_writes, prep_vc)
        else:
            prep_vc = self.nlog.most_recent_vc
            self._read_prepared[txn_id] = local_reads
        self.counters["prepares"] += 1
        self.cast_vote(message, Vote(txn_id=txn_id, vc=prep_vc, success=True))

        # A decision that raced ahead of this prepare is applied now.
        early = self._decided_early.pop(txn_id, None)
        if early is not None:
            self._apply_decide(early)
        elif message.send_time < self._up_since:
            # The Decide may have been lost with the crash this prepare
            # outlived: ask, as for a vote cast before the crash.
            self.spawn_process(
                self._resolve_in_doubt(txn_id), name=f"in-doubt:{txn_id}@{self.node_id}"
            )

    def _recorded_vote(self, txn_id: TransactionId) -> Optional[Vote]:
        """The yes-vote this node's participant records hold for ``txn_id``.

        A write replica repeats the redo-logged proposal (never a fresh
        ``node_vc`` tick).
        """
        record = self.redo_log.get(txn_id)
        if record is not None:
            return Vote(txn_id=txn_id, vc=record.vc, success=True)
        if txn_id in self._read_prepared:
            return Vote(txn_id=txn_id, vc=self.nlog.most_recent_vc, success=True)
        return None

    def _voted(self, txn_id: TransactionId) -> bool:
        return txn_id in self.redo_log or txn_id in self._read_prepared

    def _validate(self, read_versions) -> bool:
        """Algorithm 1 lines 27-33: reject overwritten read keys.

        The pseudo-code compares the latest version against ``T.VC[i]``; the
        text states the intent — "abort if some read key has been overwritten
        meanwhile" — so the check compares the latest local version against
        the version the transaction actually read (the two coincide when the
        read was served by this replica, and the version-based form also
        rejects stale reads served by a lagging replica).
        """
        i = self.node_id
        for key, read_vc in read_versions:
            chain = self.store.chain(key)
            if len(chain) == 0:
                continue
            if chain.latest.vc[i] > read_vc[i]:
                return False
        return True

    def on_decide(self, message: Decide) -> None:
        """2PC decision (Algorithm 2 lines 16-28)."""
        if not self._voted(message.txn_id):
            # Prepare still in flight (possible with prioritized queues):
            # stash the decision and apply it right after the vote.
            self._decided_early[message.txn_id] = message
            return
        self._apply_decide(message)

    def _apply_decide(self, message: Decide) -> None:
        txn_id = message.txn_id
        record = self.redo_log.get(txn_id)
        read_keys = record.read_keys if record is not None else self._read_prepared.get(txn_id)
        if read_keys is None:  # pragma: no cover - defensive
            return
        self._decided.add(txn_id)
        if message.outcome:
            self.node_vc = self.node_vc.merge(message.commit_vc)
            if record is not None:
                record.vc = message.commit_vc
                record.decided = True
                record.propagated = message.propagated
                self.commit_queue.update(txn_id, message.commit_vc)
            else:
                # Read-only participants are done once the decision arrives.
                self.locks.release(txn_id, read_keys)
                del self._read_prepared[txn_id]
        else:
            self.commit_queue.remove(txn_id)
            write_keys = [k for k, _v in record.write_items] if record is not None else []
            self.locks.release(txn_id, write_keys + list(read_keys))
            self.redo_log.pop(txn_id, None)
            self._read_prepared.pop(txn_id, None)
            self.counters["participant_aborts"] += 1
        self._drain_commit_queue()

    def _drain_commit_queue(self) -> None:
        """Apply every ready transaction standing at the commit-queue head."""
        while self.commit_queue.head_is_ready():
            entry = self.commit_queue.head()
            self._apply_internal_commit(entry.txn_id, entry.vc)

    def _apply_internal_commit(self, txn_id: TransactionId, commit_vc: VectorClock) -> None:
        # From here the NLog entry is the durable truth; retire the redo
        # record (PrecommitQuery replays from the log).
        record = self.redo_log.pop(txn_id)
        write_items = record.write_items
        propagated = record.propagated
        write_keys = tuple(k for k, _v in write_items)

        for key, value in write_items:
            self.store.install(key, value, commit_vc, writer=txn_id)
        if write_items:
            self._applied_local_value[txn_id] = commit_vc[self.node_id]
        self.nlog.append(
            NLogEntry(
                txn_id=txn_id,
                vc=commit_vc,
                write_keys=write_keys,
                commit_time=self.sim.now,
            )
        )
        self.commit_queue.remove(txn_id)
        self.locks.release(txn_id, list(write_keys) + list(record.read_keys))
        self.counters["internal_commits"] += 1

        # Algorithm 3: enter the pre-commit phase for the local written keys.
        # spawn_process (not sim.process) so the pre-commit dies with the
        # node under the fault plane's crash epoch.
        self.spawn_process(
            self._pre_commit(txn_id, commit_vc, write_keys, propagated),
            name=f"precommit:{txn_id}@{self.node_id}",
        )

    def _pre_commit(self, txn_id, commit_vc, write_keys, propagated):
        """Algorithms 3 and 4: snapshot-queue insertion, wait, ack."""
        i = self.node_id
        snapshot = commit_vc[i]
        coordinator = txn_id.node

        for key in write_keys:
            squeue = self.store.squeue(key)
            squeue.insert(SQueueEntry(txn_id, snapshot, WRITE_KIND))
            for entry in propagated:
                if entry.txn_id in self._removed_readers:
                    continue
                squeue.insert(SQueueEntry(entry.txn_id, entry.snapshot, READ_KIND, only_for=txn_id))
                self._reader_keys[entry.txn_id].add(key)
            yield self.cpu(self.service.queue_op_us)

        # Algorithm 4: wait, per written key, until no entry with a smaller
        # insertion-snapshot remains in the queue.  The pattern in the
        # pseudo-code (`<T'.id, T'.sid, −>`) covers readers *and* writers, so
        # conflicting update transactions hand their clients the responses in
        # serialization order; the prose emphasises the read-only case because
        # that is the one that can hold a writer for a long time.
        for key in write_keys:
            squeue = self.store.squeue(key)
            # Loop, don't trust a fired condition: between the condition
            # firing and this process resuming, a read handler can insert a
            # fresh reader entry below the snapshot — proceeding then would
            # answer the client while a reader serialized before us is still
            # outstanding (an ungated exclusion, i.e. a real external-
            # consistency hole, not just wasted latency).
            while squeue.has_entry_below(snapshot, exclude_txn=txn_id):
                self.counters["precommit_waits"] += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    wait_start = self.sim.now
                    blocked_on = sorted(
                        {
                            entry.txn_id
                            for entry in squeue.entries()
                            if entry.insertion_snapshot < snapshot and entry.txn_id != txn_id
                        }
                    )
                yield self.sim.condition(
                    lambda sq=squeue: not sq.has_entry_below(snapshot, exclude_txn=txn_id),
                    squeue.signal,
                    name=f"precommit-wait:{txn_id}",
                )
                if tracer is not None:
                    tracer.span(
                        "wait.precommit_queue",
                        wait_start,
                        txn=txn_id,
                        node=i,
                        link=blocked_on,
                        args={"key": str(key)},
                    )
            squeue.remove(txn_id)

        self.counters["external_acks_sent"] += 1
        self.send(coordinator, ExternalAck(txn_id=txn_id, snapshot=snapshot))

    def on_precommit_query(self, message: PrecommitQuery) -> None:
        """Fault-plane recovery: replay a pre-commit whose ack was lost.

        If the transaction internally committed here (durable NLog entry),
        its pre-commit is replayed from the log — re-inserting the write
        entries, waiting out any genuinely older snapshot-queue entries and
        re-sending the ExternalAck; every step is idempotent (duplicate
        queue insertions are suppressed, duplicate removes and acks are
        no-ops).

        If the transaction is *not* in the log the Decide itself was lost in
        the crash.  When the node holds a durable redo record of its vote
        (the voted-then-crashed case), the query's ``commit_vc`` acts as the
        decision retransmission: the commit queue entry — rebuilt as
        *pending* by the restart replay — is finalized and drained exactly
        as the original Decide would have, closing SSS's remaining in-doubt
        stall.  With neither log nor redo record the query is ignored (the
        prepare itself never happened here).
        """
        txn_id = message.txn_id
        entry = self.nlog.find(txn_id)
        if entry is not None:
            self.counters["precommit_replays"] += 1
            # The wait may be held by entries no Remove will reach (a reader
            # restarted on a refused read, a re-sent read copy served after
            # its reader finished); this query recurs every silent wave, so
            # ask the holding readers' coordinators whether they finished.
            snapshot = entry.vc[self.node_id]
            blocking = {
                reader.txn_id
                for key in entry.write_keys
                for reader in self.store.squeue(key).readers_below(snapshot, for_txn=txn_id)
            }
            self._revalidate(sorted(blocking))
            self.spawn_process(
                self._pre_commit(entry.txn_id, entry.vc, entry.write_keys, ()),
                name=f"precommit-replay:{entry.txn_id}@{self.node_id}",
            )
            return
        if txn_id in self.redo_log and message.commit_vc is not None:
            self.counters["redo_decides"] += 1
            self._apply_decide(
                Decide(
                    txn_id=txn_id,
                    commit_vc=message.commit_vc,
                    outcome=True,
                    propagated=message.propagated,
                )
            )
            return
        self.counters["precommit_query_misses"] += 1

    def on_external_done(self, message: ExternalDone) -> None:
        """Record that a writer's client has been answered (external commit)."""
        self._mark_externally_done(message.txn_id, message.done_time)

    def _done_time_of(self, txn_id: TransactionId) -> Optional[float]:
        """External-commit timestamp of a transaction this node coordinated.

        ``None`` for transactions that never answered a client (aborts and
        crash teardowns): they impose no real-time order on readers.
        """
        meta = self.txn_state(txn_id)
        if meta is None or meta.phase is not TransactionPhase.EXTERNALLY_COMMITTED:
            return None
        return meta.external_commit_time

    def _mark_externally_done(
        self, txn_id: TransactionId, done_time: Optional[float] = None
    ) -> None:
        existing = self._externally_done.get(txn_id)
        if existing is None:
            self._externally_done[txn_id] = done_time
        self._subscriptions_sent.pop(txn_id, None)
        local_value = self._applied_local_value.pop(txn_id, None)
        if local_value is not None and local_value > self._done_local_watermark:
            self._done_local_watermark = local_value
        event = self._ext_done_events.pop(txn_id, None)
        if event is not None and not event.triggered:
            event.succeed()

    def external_done_event(self, txn_id: TransactionId):
        """Event firing when ``txn_id``'s ExternalDone notification arrives."""
        event = self._ext_done_events.get(txn_id)
        if event is None:
            event = self.sim.event(name=f"ext-done:{txn_id}")
            self._ext_done_events[txn_id] = event
        return event

    def on_subscribe_external(self, message: SubscribeExternal) -> None:
        """Register (or immediately serve) an external-commit subscription."""
        self._register_external_watcher(message.txn_id, message.target)

    def _register_external_watcher(self, txn_id: TransactionId, target: NodeId) -> None:
        meta = self.coordinated.get(txn_id)
        if meta is None or meta.phase in (
            TransactionPhase.EXTERNALLY_COMMITTED,
            TransactionPhase.ABORTED,
        ):
            self._send_external_done(txn_id, target)
            return
        self._external_watchers[txn_id].add(target)

    def _send_external_done(self, txn_id: TransactionId, target: NodeId) -> None:
        done_time = self._done_time_of(txn_id)
        if target == self.node_id:
            self._mark_externally_done(txn_id, done_time)
        else:
            self.send(target, ExternalDone(txn_id=txn_id, done_time=done_time))

    def _external_commit_completed(self, txn_id: TransactionId, write_replicas) -> None:
        """Fan out the external-commit announcement of a coordinated writer."""
        done_time = self._done_time_of(txn_id)
        self._mark_externally_done(txn_id, done_time)
        targets = set(write_replicas) | self._external_watchers.pop(txn_id, set())
        targets.discard(self.node_id)
        for target in sorted(targets):
            self.send(target, ExternalDone(txn_id=txn_id, done_time=done_time))

    def on_remove(self, message: Remove) -> None:
        """Delete a returned read-only transaction from local snapshot queues."""
        txn_id = message.txn_id
        if not message.mark_returned:
            # Narrow cleanup of a lost fastest-answer race: drop only the
            # listed keys' entries, without treating the reader as finished.
            for key in message.keys:
                self.store.squeue(key).remove(txn_id)
                reader_keys = self._reader_keys.get(txn_id)
                if reader_keys is not None:
                    reader_keys.discard(key)
            self.counters["removes_handled"] += 1
            return
        self._removed_readers.add(txn_id)
        # A finished (or withdrawn/crashed) reader releases any answer gates
        # it holds on writers this node coordinates.
        self._release_answer_gates(txn_id)
        keys = set(message.keys) if message.keys else set()
        keys |= self._reader_keys.pop(txn_id, set())
        # Sorted for determinism: set iteration order over string keys varies
        # with the interpreter's hash seed, and removal order is visible
        # through signal notifications.
        for key in sorted(keys, key=repr):
            if self.store.has_key(key) or key in self.store.squeues():
                self.store.squeue(key).remove(txn_id)
        self.counters["removes_handled"] += 1

        # Forward along the anti-dependency propagation chain: every node we
        # shipped this reader's entry to must clean up as well.
        for destination in sorted(self._forward_map.pop(txn_id, set())):
            if destination != self.node_id:
                self.channel.send(destination, Remove(txn_id=txn_id, keys=()))

    def note_propagation(self, reader: TransactionId, destination: NodeId) -> None:
        """Record that ``reader``'s queue entry was shipped to ``destination``."""
        if destination == self.node_id:
            return
        if reader in self._removed_readers:
            # The reader already returned to its client; its entries are being
            # (or have been) cleaned up, so there is nothing to forward later.
            return
        self._forward_map[reader].add(destination)
