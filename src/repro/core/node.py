"""One SSS protocol node.

:class:`SSSNode` is the server side of the protocol: it stores a shard of the
multi-version key space and answers the messages defined in
:mod:`repro.core.messages`:

* ``ReadRequest`` — version selection for read-only and update transactions
  (Algorithm 6), including the ``wait until NLog.mostRecentVC[i] >= T.VC[i]``
  gate, the Visible/Excluded set computation, snapshot-queue insertion and
  the starvation-avoidance back-off.
* ``Prepare`` / ``Decide`` — 2PC participant logic (Algorithm 2): lock
  acquisition, read-set validation, proposed vector clock, commit-queue
  insertion, and the ordered apply of ready transactions at the queue head
  followed by the start of their pre-commit phase (Algorithm 3).
* ``Remove`` — snapshot-queue cleanup when a read-only transaction returns
  to its client, with forwarding along anti-dependency propagation chains.

The client-side execution of transactions (Algorithm 5 reads and the
Algorithm 1 commit) lives in :class:`repro.core.coordinator.CoordinatorMixin`,
which this class inherits: in SSS the coordinator of a transaction is simply
the node its client is co-located with.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.common.config import ClusterConfig
from repro.common.ids import NodeId, TransactionId
from repro.core.coordinator import CoordinatorMixin
from repro.core.messages import (
    Decide,
    ExternalAck,
    ExternalDone,
    ExternalStatusQuery,
    ExternalStatusReply,
    Prepare,
    PrecommitQuery,
    ReadRequest,
    ReadReturn,
    ReleaseGate,
    Remove,
    SubscribeExternal,
    Vote,
)
from repro.core.metadata import PropagatedEntry, TransactionPhase
from repro.protocols.runtime import ProtocolRuntime, RoundRequests
from repro.replication.placement import KeyPlacement
from repro.sim.events import ThresholdWaiters
from repro.storage.commit_queue import CommitQueue, ParticipantRecord, RedoLog
from repro.storage.locks import LockTable
from repro.storage.mvstore import MultiVersionStore
from repro.storage.nlog import NLog, NLogEntry
from repro.storage.snapshot_queue import (
    READ_KIND,
    SQueueEntry,
    WRITE_KIND,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.history import HistoryRecorder
    from repro.network.transport import Network
    from repro.sim.engine import Simulation


class SSSNode(CoordinatorMixin, ProtocolRuntime):
    """A node of the SSS key-value store.

    The crash model (see :class:`ProtocolRuntime`): the multi-version store,
    the NLog, ``node_vc`` (persisted with the commit log, so a restarted
    node never re-proposes a local clock value it already handed out), the
    redo log (force-written before every yes-vote), the snapshot queues'
    reader entries with their index (they hold back replayed writers as
    before) and the record of removed readers (it keeps a replay from
    re-inserting their propagated entries) are durable.  Locks follow the
    textbook participant model: only the redo-logged transactions' locks
    survive — they must keep blocking until the decision is re-learned,
    2PC's in-doubt window.  The rest is volatile, the writers'
    snapshot-queue entries and the commit queue (rebuilt from the redo log
    on restart) included.  The ``_externally_done`` cache is dropped
    *conservatively*: versions are re-gated until a fresh SubscribeExternal
    round-trip re-learns the writer's fate, trading post-restart latency for
    safety.
    """

    _WAITS = ("_ack_waits", "_ext_done_events", "_answer_gate_events")
    _VOLATILE = _WAITS + (
        "_read_prepared",
        "_decided_early",
        "_forward_map",
        "_backoff_level",
        "_externally_done",
        "_done_local_watermark",
        "_applied_local_value",
        "_answer_gates",
        "_gates_by_reader",
        "_external_watchers",
        "_subscriptions_sent",
        "commit_queue",
    )
    _DURABLE = (
        "store",
        "nlog",
        "node_vc",
        "redo_log",
        "_reader_keys",
        "_removed_readers",
        "locks",
        "_up_since",
        "strict_visibility",
        "_read_waiters",
    )

    def __init__(
        self,
        sim: "Simulation",
        network: "Network",
        node_id: NodeId,
        placement: KeyPlacement,
        config: ClusterConfig,
        history: Optional["HistoryRecorder"] = None,
        strict_visibility: bool = False,
    ):
        super().__init__(sim, network, node_id, placement=placement, config=config, history=history)
        self.strict_visibility = strict_visibility
        n_nodes = config.n_nodes

        # Data plane.
        self.store = MultiVersionStore(node_id, sim=sim)
        self.locks = LockTable(sim, name=f"locks@{node_id}", owner=node_id)
        self.nlog = NLog(node_id, n_nodes, sim=sim)
        self.commit_queue = CommitQueue(node_id, sim=sim)
        # Read requests waiting for the installs inside their visibility
        # bound (Algorithm 6, line 5), woken by either structure's mutations.
        self._read_waiters = ThresholdWaiters(
            sim, self._installed_through, [self.nlog.signal, self.commit_queue.signal]
        )
        self.node_vc = VectorClock.zeros(n_nodes)

        # Participant state of in-flight 2PC rounds, one record per vote: a
        # write replica's goes to the durable redo log (it closes the
        # voted-then-crashed in-doubt window, see on_restart), a read-only
        # participant keeps only its read keys.
        self.redo_log = RedoLog()
        self._read_prepared: Dict[TransactionId, Tuple[object, ...]] = {}
        # Decisions that arrived before (or without) a matching Prepare.
        self._decided_early: Dict[TransactionId, Decide] = {}
        # When this incarnation of the node came up.  A Prepare sent before
        # that outlived a crash of this node (a buffering partition held
        # it), and its Decide may have been sent into the down window.
        self._up_since = 0.0

        # Remove-forwarding: reader transaction -> nodes we shipped its
        # snapshot-queue entry to (via ReadReturn propagated sets or Decide).
        self._forward_map: Dict[TransactionId, Set[NodeId]] = defaultdict(set)
        # Readers already removed; late propagated insertions are suppressed.
        self._removed_readers: Set[TransactionId] = set()
        # Local index: reader transaction -> keys whose squeue holds it.
        self._reader_keys: Dict[TransactionId, Set[object]] = defaultdict(set)
        # Starvation back-off: per-key consecutive back-off count.
        self._backoff_level: Dict[object, int] = defaultdict(int)
        # Writers whose external commit this node has been notified of,
        # mapped to the coordinator's external-commit timestamp (None for
        # writers that finished without answering a client — abort or crash
        # teardown — which impose no real-time order).  Their versions may
        # be handed to clients without an external-commit dependency wait,
        # and the timestamp feeds the real-time staleness test of read-only
        # reads.  (Preloaded versions have writer None and need no
        # tracking.)  The map grows with the number of committed writers and
        # is deliberately never pruned: "not in the map" *means* pending, so
        # dropping an entry would silently re-gate old versions.  At
        # simulation scale (<=1e6 transactions per run) this is cheap;
        # GC-ing it would need a per-version done-bit instead.
        self._externally_done: Dict[TransactionId, Optional[float]] = {}
        # Largest node-local clock value among locally installed versions
        # whose writer is known externally committed, and the per-writer
        # local values feeding it (consumed on the Done notification).
        self._done_local_watermark: int = -1
        self._applied_local_value: Dict[TransactionId, int] = {}
        # Per still-pending writer, the event local transactions wait on for
        # the writer's ExternalDone notification.
        self._ext_done_events: Dict[TransactionId, object] = {}
        # Targets to notify when a transaction this node coordinates
        # externally commits (fed by SubscribeExternal).
        self._external_watchers: Dict[TransactionId, Set[NodeId]] = defaultdict(set)
        # Answer gates: readers that ambiguously *excluded* a writer this
        # node coordinates while the writer was confirmed in flight.  The
        # writer's client answer waits until every gating reader finishes or
        # restarts — the ordering a snapshot-queue entry would have enforced
        # had the writer not already passed its local pre-commit wait, which
        # is what keeps the exclusion externally consistent.
        self._answer_gates: Dict[TransactionId, Set[TransactionId]] = {}
        self._gates_by_reader: Dict[TransactionId, Set[TransactionId]] = {}
        self._answer_gate_events: Dict[TransactionId, object] = {}
        # Per still-pending writer, the coordinator targets this node already
        # forwarded subscriptions for (so one reader hammering a hot version
        # does not flood the coordinator); pruned when the writer's
        # ExternalDone arrives.
        self._subscriptions_sent: Dict[TransactionId, Set[NodeId]] = defaultdict(set)

        # Coordinator side (CoordinatorMixin): txn -> (external-commit
        # event, write replicas still to ack).  The transaction-id
        # generator, the coordinated-transaction map and the metrics
        # counters live in ProtocolRuntime.
        self._ack_waits: Dict[TransactionId, Tuple[object, Set[NodeId]]] = {}

        # Message handlers.
        self.register_handler(ReadRequest, self.on_read_request)
        self.register_handler(Prepare, self.on_prepare)
        self.register_handler(Decide, self.on_decide)
        self.register_handler(ExternalAck, self.on_external_ack)
        self.register_handler(ExternalDone, self.on_external_done)
        self.register_handler(SubscribeExternal, self.on_subscribe_external)
        self.register_handler(PrecommitQuery, self.on_precommit_query)
        self.register_handler(ExternalStatusQuery, self.on_external_status_query)
        self.register_handler(ReleaseGate, self.on_release_gate)
        self.register_handler(Remove, self.on_remove)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def preload(self, keys, initial_value=0) -> None:
        """Install version zero of ``keys``, this node's replicas."""
        self.store.preload(keys, initial_value=initial_value, n_nodes=self.config.n_nodes)

    # ------------------------------------------------------------------
    # ReadRequest handling — Algorithm 6
    # ------------------------------------------------------------------
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

        if not has_read[i]:
            yield self.cpu(service.read_local_us)

            # A writer above the reader's bound that is not yet known to be
            # externally committed either gets excluded from the snapshot
            # (the reader is serialized before it, and the reader's queue
            # entry delays the writer's client response), or — when the
            # writer's local pre-commit wait has already passed, so an entry
            # could no longer delay it — is briefly waited for until its
            # ExternalDone notification arrives (ambiguous zone).  Without
            # the wait, two readers bridging two independent such writers
            # can each observe one and exclude the other, producing the
            # contradictory serialization orders of the paper's Figure 2;
            # writers still in flight on expiry get their client answer
            # gated behind this reader before they may be excluded.
            gated, refused = yield from self._resolve_ambiguous_writers(
                message, key, reader_vc, read
            )
            if refused:
                self.counters["reads_gate_refused"] += 1
                self.respond(
                    message,
                    ReadReturn(
                        txn_id=message.txn_id,
                        key=key,
                        stale=True,
                        gated=tuple(sorted(gated)),
                    ),
                )
                return

            # Lines 6-9: visible snapshot minus pre-committing writers above
            # the reader's bound.
            excluded_vcs = self._excluded_vcs(key, reader_vc, read, force_exclude=gated)
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
            insertion_snapshot = max_vc[i]
        else:
            # Lines 15-21: this node already served this transaction before;
            # the visibility bound is the transaction's own vector clock.
            yield self.cpu(service.read_local_us)
            # The fixed bound cannot observe anything newly installed, so a
            # writer that installed *and passed its pre-commit wait* between
            # this transaction's reads at this node would be missed with no
            # entry gating its answer — resolve the ambiguous zone here too,
            # and gate every writer confirmed in flight (``gate_all``:
            # observation is not an option under a fixed bound, so the
            # below-watermark preference of the first-read path does not
            # apply).
            gated, refused = yield from self._resolve_ambiguous_writers(
                message, key, reader_vc, read, gate_all=True
            )
            if refused:
                self.counters["reads_gate_refused"] += 1
                self.respond(
                    message,
                    ReadReturn(
                        txn_id=message.txn_id,
                        key=key,
                        stale=True,
                        gated=tuple(sorted(gated)),
                    ),
                )
                return
            max_vc = reader_vc
            insertion_snapshot = max_vc[i]
            excluded_vcs = set()

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
            self.counters["reads_rt_stale"] += 1
            self.respond(
                message,
                ReadReturn(
                    txn_id=message.txn_id,
                    key=key,
                    stale=True,
                    gated=tuple(sorted(gated)),
                ),
            )
            return

        # Line 10 / 17: leave a trace of the read in the snapshot queue —
        # *before* any further yield: the entry is what gates a concurrently
        # pre-committing writer's client answer behind this reader, and a
        # version installed during a yield taken after the bound was fixed
        # but before the entry existed could otherwise answer its client
        # unordered against this read.
        self._insert_reader(key, message.txn_id, insertion_snapshot)
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

    def _excluded_vcs(
        self, key: object, reader_vc: VectorClock, read: int, force_exclude=frozenset()
    ) -> Set[VectorClock]:
        """Commit clocks of writers the reader must not observe (ExcludedSet).

        A version above the reader's bound whose writer has neither
        externally committed (as far as this node knows) nor is covered by
        the reader's bound is excluded: the reader is serialized before that
        writer, and its snapshot-queue entry (inserted below the writer's
        snapshot) delays the writer's client response while the reader is
        outstanding.  Writers in ``force_exclude`` — ambiguous-zone writers
        whose client answer was just gated behind this reader — are excluded
        unconditionally: observing a gated writer would deadlock the
        observation's dependency wait against the gate.
        """
        i = self.node_id
        bound = reader_vc[i]
        excluded: Set[VectorClock] = set()
        done = self._externally_done
        watermark = self._done_local_watermark
        for version in self.store.chain(key).newest_to_oldest():
            vc = version.vc
            if vc[i] <= bound:
                break
            writer = version.writer
            if writer is None or writer in done:
                continue
            if writer in force_exclude:
                excluded.add(vc)
                continue
            if vc[i] <= watermark:
                # Excluding this writer would cap the reader's bound below an
                # already-done writer's local value; the ambiguous-zone wait
                # handles it instead (see _ambiguous_writers).
                continue
            if not self._covered(vc, reader_vc, read):
                excluded.add(vc)
        return excluded

    def _ambiguous_writers(
        self, key: object, reader_vc: VectorClock, read: int
    ) -> List[Tuple[TransactionId, int]]:
        """Writers above the reader's bound in the "ambiguous zone".

        Such a writer is internally committed here, has already passed its
        local pre-commit wait for ``key`` (its snapshot-queue entry is gone,
        so a reader entry could no longer delay its client response), but is
        not yet known to be externally committed.  Excluding it outright
        would serialize the reader before a writer that may answer its
        client first.  Returns ``(writer, local clock value)`` pairs (the
        local value is the writer's ``xactVN`` here, used to decide whether
        exclusion or observation handles it).
        """
        i = self.node_id
        bound = reader_vc[i]
        done = self._externally_done
        watermark = self._done_local_watermark
        squeue = self.store.squeue(key)
        ambiguous: List[Tuple[TransactionId, int]] = []
        for version in self.store.chain(key).newest_to_oldest():
            vc = version.vc
            if vc[i] <= bound:
                break
            writer = version.writer
            if writer is None or writer in done:
                continue
            if self._covered(vc, reader_vc, read):
                continue
            if vc[i] > watermark and squeue.has_writer(writer):
                # Still locally gated and above every done writer's local
                # value: plain exclusion is coherent (and the reader's queue
                # entry will delay the writer's client response).
                continue
            ambiguous.append((writer, vc[i]))
        return ambiguous

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

        On expiry the reader no longer excludes blindly.  A notification
        delayed past the bound (fail-free) or swallowed by a crash (fault
        mode) used to make the fallback exclusion serialize the reader
        *before* a writer whose client was already answered — a genuine
        external-consistency violation (the seed-17 regression).  Instead
        the reader asks each ambiguous writer's coordinator for a definitive
        status (:class:`ExternalStatusQuery`): *done* writers stop gating,
        and a writer confirmed still in flight is excluded only after its
        coordinator *gated its client answer* behind this reader — the
        excluded writer then answers after the reader finishes (or
        restarts), exactly the ordering its snapshot-queue entry would have
        enforced, so contradictory serialization decisions at different
        nodes can at worst deadlock (and the dependency-wait breaker then
        restarts a reader) but never commit.  An unreachable coordinator
        (fault mode) keeps the reader waiting — trading liveness (visible
        in the availability metrics), never safety.

        Returns ``(gated, stale)``: the writers gated on the reader's
        behalf (the coordinator must release them when the reader
        finishes), and whether the read must be refused because a gate was
        refused (the reader was already withdrawn elsewhere).
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
            ambiguous = self._ambiguous_writers(key, reader_vc, read)
            pending = [
                (writer, local)
                for writer, local in ambiguous
                if writer not in resolved
            ]
            if not pending:
                # Every ambiguous writer is done, gated, or observed — and
                # this evaluation is synchronous with the caller's exclusion
                # computation, so no unresolved writer can slip in between.
                if resolved:
                    self.counters["ambiguous_wait_timeouts"] += 1
                return gated_total, False
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
                    return gated_total, True
                # Loop: writers that became ambiguous during the query
                # round-trip must be resolved too before the exclusion set
                # is computed, or they would be excluded without a gate.
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

    # ------------------------------------------------------------------
    # Answer gates (ordered external-commit resolution)
    # ------------------------------------------------------------------
    def _register_answer_gate(self, writer: TransactionId, reader: Optional[TransactionId]) -> bool:
        """Gate ``writer``'s client answer behind ``reader``.

        Refused (returns False) when the reader's Remove already passed
        through this node — the reader was withdrawn elsewhere and could
        never release the gate.

        Release coverage: fail-free, replies are never dropped, so the
        reader's coordinator always learns the gate (``ReadReturn.gated``)
        and releases it on finish/restart (ReleaseGate), with
        ``_cleanup_losing_replies`` covering replicas that lost the
        fastest-answer race.  In fault mode a gate can be orphaned from the
        coordinator's view (a retried read wave drops the late reply that
        carried it), but fault-mode Removes are *broadcast to every node*,
        and ``on_remove`` releases all of a reader's gates — so every
        reader that finishes, restarts, or is torn down by crash recovery
        still releases, and only a coordinator that never restarts can pin
        a gate (the documented crash-forever liveness trade).
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
        dependency-wait breaker guarantees it), so the wait always
        resolves; registrations can race in while waiting, hence the loop.
        """
        while self._answer_gates.get(txn_id):
            self.counters["answer_gate_waits"] += 1
            event = self.sim.event(name=f"answer-gates:{txn_id}")
            self._answer_gate_events[txn_id] = event
            yield event

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

    # ------------------------------------------------------------------
    # Prepare / Decide — Algorithm 2
    # ------------------------------------------------------------------
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
        if self._fault_mode:
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

    # ------------------------------------------------------------------
    # Commit-queue head processing + pre-commit (Algorithms 2 l.29-36, 3, 4)
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # External-commit dependency tracking
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Remove handling and forwarding
    # ------------------------------------------------------------------
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
                self.send(destination, Remove(txn_id=txn_id, keys=()))

    def note_propagation(self, reader: TransactionId, destination: NodeId) -> None:
        """Record that ``reader``'s queue entry was shipped to ``destination``."""
        if destination == self.node_id:
            return
        if reader in self._removed_readers:
            # The reader already returned to its client; its entries are being
            # (or have been) cleaned up, so there is nothing to forward later.
            return
        self._forward_map[reader].add(destination)

    # ------------------------------------------------------------------
    # Fault plane
    # ------------------------------------------------------------------
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
                    self.send(
                        participant,
                        Decide(
                            txn_id=txn_id,
                            commit_vc=meta.vc,
                            outcome=False,
                            propagated=(),
                        ),
                    )
            elif meta.is_read_only:
                # The fault-mode Remove is a broadcast, which must not depend
                # on the recorded read-set: a read whose reply died with the
                # crash left entries at the serving replicas while the
                # read-set stayed empty; each node's own reader-key index
                # resolves the empty key list.
                self._send_removes(meta)
        for reader in sorted(reader for reader, keys in self._reader_keys.items() if keys):
            self.spawn_process(
                self._revalidate_reader(reader), name=f"revalidate:{reader}@{self.node_id}"
            )

    def _revalidate_reader(self, reader: TransactionId):
        """Drop a surviving reader's entries if its coordinator says it is done."""
        reply = yield from self.reliable_request(
            reader.node, lambda: ExternalStatusQuery(txn_id=reader)
        )
        if reply.done:
            self.on_remove(Remove(txn_id=reader))

    # ------------------------------------------------------------------
    # Introspection used by the harness and tests
    # ------------------------------------------------------------------
    def queued_writer_count(self) -> int:
        """Number of update transactions currently held in local squeues."""
        return sum(len(squeue.writers()) for squeue in self.store.squeues().values())

    def stats(self) -> Dict[str, int]:
        stats = dict(self.counters)
        stats["nlog_length"] = len(self.nlog)
        stats["commit_queue_length"] = len(self.commit_queue)
        stats["messages_handled"] = self.messages_handled
        stats["lock_timeouts"] = self.locks.timeout_count
        return stats
