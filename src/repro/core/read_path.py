"""The replica side of an SSS read: Algorithm 6.

:class:`ReadPathMixin` answers the ``ReadRequest`` of Algorithm 5, line 9.
An update transaction gets the latest version and the key's queued reader
entries to propagate (lines 23-27).  A read-only one waits for the
installs inside its bound (line 5), gets the newest version within the
visible bound (lines 6-21) and leaves its entry in the key's snapshot
queue.  The writers above its bound are settled by
:mod:`repro.core.ambiguous`.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import NodeId, TransactionId
from repro.core.messages import ReadRequest, ReadReturn, SubscribeExternal
from repro.core.metadata import PropagatedEntry
from repro.storage.snapshot_queue import READ_KIND, SQueueEntry


class ReadPathMixin:
    """Replica read-path methods mixed into :class:`repro.core.node.SSSNode`."""

    def _installed_through(self, target: int) -> bool:
        """True once every install with a node-local clock entry at or below
        ``target`` has been applied: the log has reached ``target`` and no
        queued install lies inside it.  Holds for every smaller target too
        (both terms compare ``target`` with one number), which is what
        :class:`~repro.sim.events.ThresholdWaiters` needs."""
        if self.nlog.local_value() < target:
            return False
        return not self.commit_queue.has_entry_at_or_below(target)

    def on_read_request(self, message: ReadRequest):
        """Version-selection handler (runs as a simulation process)."""
        key = message.key
        i = self.node_id
        service = self.service

        if message.is_update:
            # Lines 23-27: update transactions read the latest version and
            # collect the key's queued read-only entries for propagation.
            yield self.cpu(service.read_local_us)
            max_vc = self.nlog.most_recent_vc
            squeue = self.store.squeue(key)
            propagated = tuple(
                PropagatedEntry(entry.txn_id, entry.insertion_snapshot)
                for entry in squeue.readers()
                # Entries scoped to another carrier encode an anti-dependency
                # on that carrier only; they do not travel further.
                if entry.only_for is None
            )
            # Remember where those reader entries are shipped so that their
            # Remove can be forwarded along the anti-dependency chain.
            for entry in propagated:
                self.note_propagation(entry.txn_id, message.sender)
            version = self.store.latest(key)
            self.counters["reads_update"] += 1
            self.respond(
                message,
                ReadReturn(
                    txn_id=message.txn_id,
                    key=key,
                    value=version.value,
                    max_vc=max_vc,
                    version_vc=version.vc,
                    writer=version.writer,
                    propagated=propagated,
                    writer_pending=self._flag_pending_writer(version.writer, message.sender),
                ),
            )
            return

        # ---- read-only transactions -------------------------------------
        reader_vc = message.vc
        has_read = message.has_read
        # The read coordinates as one clock selector: every bound check
        # below is a masked clock comparison, not a loop over the flags.
        read = VectorClock.selector(has_read)
        squeue = self.store.squeue(key)

        # Starvation avoidance: back off when the key's writers have been
        # stuck in the snapshot queue for longer than the threshold, giving
        # them a chance to externally commit before we enqueue yet another
        # reader in front of them.
        yield from self._starvation_backoff(key, squeue, txn_id=message.txn_id)

        # Line 5: wait until every transaction already inside the reader's
        # visibility bound has internally committed locally.  The NLog scalar
        # alone is not enough: ``xactVN`` is copied to every write-replica
        # coordinate, so two distinct installs can carry the same node-local
        # value and the log can reach the bound while an install inside the
        # bound still sits in the commit queue — serving then would let the
        # reader observe the writer at one key and miss it at another.
        target = reader_vc[i]
        if not self._installed_through(target):
            self.counters["read_waits"] += 1
            tracer = self.sim.tracer
            if tracer is not None:
                wait_start = self.sim.now
                blocked_on = sorted(
                    entry.txn_id
                    for entry in self.commit_queue.entries()
                    if entry.txn_id != message.txn_id
                )
            yield self._read_waiters.wait(target, name=f"read-wait:{message.txn_id}")
            if tracer is not None:
                tracer.span(
                    "wait.commit_queue",
                    wait_start,
                    txn=message.txn_id,
                    node=i,
                    link=blocked_on,
                    args={"key": str(key)},
                )

        yield self.cpu(service.read_local_us)

        # A writer above the reader's bound that is not yet known to be
        # externally committed either gets excluded from the snapshot (the
        # reader is serialized before it, and the reader's queue entry delays
        # the writer's client response), or — when the writer's local
        # pre-commit wait has already passed, so an entry could no longer
        # delay it — is briefly waited for until its ExternalDone
        # notification arrives (ambiguous zone).  Without the wait, two
        # readers bridging two independent such writers can each observe one
        # and exclude the other, producing the contradictory serialization
        # orders of the paper's Figure 2; writers still in flight on expiry
        # get their client answer gated behind this reader before they may
        # be excluded.  A later read at this node serves a fixed bound that
        # cannot observe anything newly installed, so a writer that
        # installed *and passed its pre-commit wait* since the first read
        # would be missed with no entry gating its answer: it gates every
        # writer confirmed in flight (``gate_all``).
        gated, refused, excluded_vcs = yield from self._resolve_ambiguous_writers(
            message, key, reader_vc, read, gate_all=has_read[i]
        )
        if refused:
            self._refuse_read(message, gated, "reads_gate_refused")
            return

        if has_read[i]:
            # Lines 15-21: this node already served this transaction; the
            # visibility bound is the transaction's own vector clock.
            max_vc = reader_vc
        else:
            # Lines 6-9: visible snapshot minus pre-committing writers above
            # the reader's bound.
            max_vc = self.nlog.visible_max_vc(
                reader_vc, read, excluded_vcs, strict=self.strict_visibility
            )
            # Clamp the served bound below the oldest install still queued:
            # the log's cumulative clock can already cover a queued install's
            # node-local value (scalar collisions, see the line-5 wait), and
            # serving such a bound would let the reader later accept that
            # writer's versions elsewhere while having missed them here.
            # The line-5 wait guarantees the floor lies above the reader's
            # own bound, so reads stay non-blocking.
            floor = self.commit_queue.min_pending_local()
            if floor is not None and max_vc[i] >= floor:
                max_vc = max_vc.with_entry(i, floor - 1)

        # Lines 11-14 / 18-21: walk the version chain newest-to-oldest until a
        # version within the visibility bound (and not excluded) is found —
        # refusing the read as *stale* when the bound hides a version whose
        # writer's client was already answered (no serving choice could then
        # keep the exclusion answer-ordered; the coordinator restarts the
        # transaction under a fresh snapshot).
        version, rt_stale = self._select_version(
            key, read, max_vc, excluded_vcs, check_stale=True
        )
        if rt_stale:
            yield self.cpu(service.version_walk_us * max(1, len(self.store.chain(key))))
            self._refuse_read(message, gated, "reads_rt_stale")
            return

        # Line 10 / 17: leave a trace of the read in the snapshot queue —
        # *before* any further yield: the entry is what gates a concurrently
        # pre-committing writer's client answer behind this reader, and a
        # version installed during a yield taken after the bound was fixed
        # but before the entry existed could otherwise answer its client
        # unordered against this read.
        self._insert_reader(key, message.txn_id, max_vc[i])
        yield self.cpu(service.version_walk_us * max(1, len(self.store.chain(key))))

        self.counters["reads_read_only"] += 1
        self.respond(
            message,
            ReadReturn(
                txn_id=message.txn_id,
                key=key,
                value=version.value,
                max_vc=max_vc,
                version_vc=version.vc,
                writer=version.writer,
                propagated=(),
                writer_pending=self._flag_pending_writer(version.writer, message.sender),
                gated=tuple(sorted(gated)),
            ),
        )

    def _refuse_read(self, message: ReadRequest, gated, counter: str) -> None:
        """Answer a read-only read as *stale*: its coordinator withdraws the
        transaction, releases ``gated``, and restarts it under a fresh
        snapshot."""
        self.counters[counter] += 1
        self.respond(
            message,
            ReadReturn(
                txn_id=message.txn_id,
                key=message.key,
                stale=True,
                gated=tuple(sorted(gated)),
            ),
        )

    def _flag_pending_writer(
        self, writer: Optional[TransactionId], reader_coordinator: NodeId
    ) -> bool:
        """Flag (and subscribe for) a possibly still pre-committing writer.

        Every version installed on this node belongs to a writer that went
        through its pre-commit phase here; the writer's coordinator announces
        the external commit with :class:`ExternalDone`, so "not yet announced"
        is the safe (possibly slightly stale) notion of *pending*.  Preloaded
        versions (``writer is None``) are never pending.  For a pending
        writer, the reader's coordinator is subscribed to the writer's
        external-commit notification right away so that by the time the
        reading transaction commits the notification has usually arrived.
        """
        if writer is None or writer in self._externally_done:
            return False
        targets = self._subscriptions_sent[writer]
        if reader_coordinator not in targets:
            targets.add(reader_coordinator)
            if writer.node == self.node_id:
                self._register_external_watcher(writer, reader_coordinator)
            else:
                self.send(
                    writer.node,
                    SubscribeExternal(txn_id=writer, target=reader_coordinator),
                )
        return True

    def _covered(self, vc: VectorClock, reader_vc: VectorClock, read: int) -> bool:
        """True when the reader's bound admits ``vc`` on every read coordinate
        (``read``: the :meth:`VectorClock.selector` of the reader's ``hasRead``).

        A covered writer must *not* be excluded from the reader's snapshot:
        the reader's earlier reads were served under a bound that admits it
        (it may even have observed the writer's version of another key), so
        the reader is serialized after the writer and excluding it here would
        fracture the reader's snapshot — and deadlock the reader's
        external-commit dependency wait against the writer's pre-commit wait.
        """
        return bool(read) and vc.le_on(reader_vc, read)

    def _select_version(
        self,
        key: object,
        read: int,
        max_vc: VectorClock,
        excluded_vcs: Set[VectorClock],
        check_stale: bool = False,
    ):
        """Newest version within the visibility bound, plus an rt-staleness flag.

        ``read`` is the :meth:`VectorClock.selector` of the reader's
        ``hasRead`` flags.  Returns ``(version, rt_stale)``.  ``rt_stale`` is
        True when a version the bound rejects belongs to a writer whose
        client was *already answered* (a recorded external-commit timestamp,
        carried by ExternalDone).  Missing such a version would serialize
        the reader before a writer that answers first — an exclusion edge
        with no answer-order gate behind it, which is exactly the ingredient
        that lets contradictory serialization decisions at different nodes
        commit (the paper's Figure 2 cycle).  Serializing the reader after the
        writer is impossible under its frozen coordinates, so the reader
        must restart with a fresh snapshot.  Pending (excluded) writers are
        handled by the exclusion/gate machinery, and torn-down writers
        (``done`` without a timestamp) never answered anyone and may be
        missed freely.
        """
        i = self.node_id
        chain = self.store.chain(key)
        rt_stale = False
        done = self._externally_done
        bound = max_vc[i]
        for version in chain.newest_to_oldest():
            vc = version.vc
            out_of_bound = vc[i] > bound
            excluded = out_of_bound and vc in excluded_vcs
            if not out_of_bound and read:
                out_of_bound = not vc.le_on(max_vc, read)
            if not excluded and not out_of_bound:
                return version, rt_stale
            if not excluded and check_stale and version.writer is not None:
                if done.get(version.writer) is not None:
                    rt_stale = True
        # The preloaded version zero is visible to everyone; reaching this
        # point means the key was never preloaded on this node.
        raise KeyError(f"node {self.node_id} has no visible version of {key!r}")

    def _insert_reader(self, key: object, txn_id: TransactionId, snapshot: int) -> None:
        if txn_id in self._removed_readers:
            return
        self.store.squeue(key).insert(SQueueEntry(txn_id, snapshot, READ_KIND))
        self._reader_keys[txn_id].add(key)

    def _starvation_backoff(self, key: object, squeue, txn_id=None):
        """Exponential back-off of read-only reads on starving keys."""
        timeouts = self.config.timeouts
        age = squeue.oldest_writer_age(self.sim.now)
        if age is not None and age > timeouts.starvation_threshold_us:
            level = min(self._backoff_level[key], 6)
            delay = min(timeouts.backoff_initial_us * (2**level), timeouts.backoff_max_us)
            self._backoff_level[key] += 1
            self.counters["starvation_backoffs"] += 1
            tracer = self.sim.tracer
            backoff_start = self.sim.now if tracer is not None else 0.0
            yield self.sim.timeout(delay)
            if tracer is not None:
                tracer.span(
                    "wait.backoff",
                    backoff_start,
                    txn=txn_id,
                    node=self.node_id,
                    link=sorted(
                        {entry.txn_id for entry in squeue.writers() if entry.txn_id != txn_id}
                    ),
                    args={"key": str(key), "level": level},
                )
        else:
            # A missing key reads as level 0 (defaultdict): drop it rather
            # than store a zero for every key a reader ever touched.
            self._backoff_level.pop(key, None)
        return None
