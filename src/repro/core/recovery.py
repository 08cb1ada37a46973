"""Crash and restart of an SSS node.

:class:`RecoveryMixin` holds the hooks around the crash model that
:class:`repro.core.node.SSSNode` declares.  A restart rebuilds the
Algorithm 2 commit queue from the redo log, so decided transactions resume
their Algorithm 3 pre-commit; it resolves in-doubt votes, recovers what
the crash tore down, and re-validates the surviving reader entries.
"""

from __future__ import annotations

from repro.common.ids import TransactionId
from repro.core.messages import Decide, ExternalStatusQuery, ExternalStatusReply, Remove
from repro.core.metadata import TransactionPhase


class RecoveryMixin:
    """Crash and restart hooks mixed into :class:`repro.core.node.SSSNode`."""

    def on_crash(self) -> None:
        """Keep only the redo-logged locks, drop the commit queue (rebuilt
        from the redo log on restart) and the writers' snapshot-queue
        entries, and reset the done-watermark."""
        self.locks.reset_except(set(self.redo_log))
        self.commit_queue.clear()
        for squeue in self.store.squeues().values():
            for entry in squeue.writers():
                squeue.remove(entry.txn_id)
        self._done_local_watermark = -1

    def on_restart(self, torn_down) -> None:
        """Replay durable state and run crash recovery after a restart.

        The store, the NLog and ``node_vc`` were never dropped; the
        external-commit cache refills through SubscribeExternal (this node
        now answers ExternalDone immediately for its torn-down writers), and
        the reset done-watermark merely re-enables the bounded
        ambiguous-zone wait for old versions.  What *must* be actively
        recovered is remote state pinned by transactions whose client died
        with the crash:

        * an update transaction that crashed **before its decision was
          sent** (``PREPARING``) left prepared locks and commit-queue
          entries at its participants — a decided abort is fanned out so
          they release (otherwise their commit-queue heads block forever:
          the classic 2PC in-doubt window);
        * a read-only transaction left snapshot-queue entries at the
          replicas of its read keys — ``Remove`` is fanned out exactly as a
          normal read-only completion would.

        Transactions that crashed after their decision went out need no
        fan-out: participants finish on their own, stray ExternalAcks are
        ignored, and gated readers resolve through re-subscription.

        Participant-side, the redo log is replayed first: every voted
        transaction that neither aborted nor reached the NLog gets its
        commit-queue entry back (as *ready* when the decision had already
        arrived, else as *pending*, to be finalized by the original
        coordinator's PrecommitQuery retransmission), and the queue is
        drained so already-decided transactions apply and restart their
        pre-commit immediately — held by the read-only entries that
        survived the crash, each re-validated at its reader's coordinator (a
        Remove sent while down was lost).
        """
        self._up_since = self.sim.now
        for record in self.redo_log.records():
            self.counters["redo_replays"] += 1
            self.commit_queue.put(record.txn_id, record.vc)
            if record.decided:
                self.commit_queue.update(record.txn_id, record.vc)
        self._drain_commit_queue()
        for record in self.redo_log.records():
            if not record.decided:
                # The decision may have been lost with the crash; ask the
                # coordinator (see _resolve_in_doubt) or the pending head
                # would block this node's installs forever.
                self.spawn_process(
                    self._resolve_in_doubt(record.txn_id),
                    name=f"in-doubt:{record.txn_id}@{self.node_id}",
                )
        for meta, crash_phase in torn_down:
            txn_id = meta.txn_id
            self.counters["crash_recoveries"] += 1
            if crash_phase is TransactionPhase.PREPARING:
                participants = set(
                    self.placement.replicas_of(list(meta.read_set) + list(meta.write_set))
                )
                participants.discard(self.node_id)
                for participant in sorted(participants):
                    self.channel.send(
                        participant,
                        Decide(
                            txn_id=txn_id,
                            commit_vc=meta.vc,
                            outcome=False,
                            propagated=(),
                        ),
                    )
            elif meta.is_read_only:
                # The Remove of a normal completion, to the replicas of the
                # read-set and of the read in flight at the crash (its reply
                # died, but the serving replica inserted an entry), each
                # forwarding it down its durable propagation chain.
                self._send_removes(meta)
        self._revalidate(sorted(reader for reader, keys in self._reader_keys.items() if keys))

    def _revalidate(self, readers) -> None:
        """Ask each reader's coordinator whether it finished, one query in
        flight per reader (:meth:`_revalidate_reader`)."""
        for reader in readers:
            if reader not in self._revalidating:
                self._revalidating.add(reader)
                self.spawn_process(
                    self._revalidate_reader(reader), name=f"revalidate:{reader}@{self.node_id}"
                )

    def _revalidate_reader(self, reader: TransactionId):
        """Drop a surviving reader's entries if its coordinator says it is done."""
        reply = yield from self.reliable_request(
            reader.node, lambda: ExternalStatusQuery(txn_id=reader)
        )
        self._revalidating.discard(reader)
        if reply.done:
            self.on_remove(Remove(txn_id=reader))

    def _resolve_in_doubt(self, txn_id: TransactionId):
        """Crash recovery: learn the fate of a voted-but-undecided transaction.

        The Decide may have been lost while this node was down (or dropped
        by a partition); without resolution the *pending* commit-queue
        entry — rebuilt from the redo log, or created by a prepare that a
        buffering partition delivered after the restart — would block every
        later install on this node.  The coordinator is asked for its
        recorded decision (re-sent until answered — a coordinator that is
        itself down answers after its own restart); a decision still
        pending at the coordinator resolves through the normal Decide,
        which reaches this node now that it is back up.
        """
        reply: ExternalStatusReply = yield from self.reliable_request(
            txn_id.node, lambda: ExternalStatusQuery(txn_id=txn_id)
        )
        if not self._voted(txn_id) or txn_id in self._decided:
            return  # resolved by a Decide/PrecommitQuery that raced the reply
        if reply.outcome is None:
            return  # not decided yet: the normal Decide will arrive
        self.counters["in_doubt_resolved"] += 1
        self._apply_decide(
            Decide(
                txn_id=txn_id,
                commit_vc=reply.commit_vc,
                outcome=reply.outcome,
                propagated=reply.propagated,
            )
        )
