"""Walter — Parallel Snapshot Isolation with vector timestamps.

Walter (Sovran et al., SOSP 2011) is the paper's "upper bound" competitor: it
synchronizes nodes with vector clocks like SSS but provides PSI, a weaker
isolation level, and therefore pays far less coordination:

* every key has a *preferred site* (its primary replica);
* a transaction reads from the snapshot defined by its start vector timestamp
  and never validates reads — read-only transactions never abort, never wait
  for writers and involve no commit-time communication;
* an update transaction whose written keys are all preferred-local commits on
  the **fast path**: a local write-write conflict check, a local sequence
  number, and asynchronous propagation of the new versions to the other
  replicas;
* otherwise the **slow path** runs a 2PC-like round over the written keys'
  preferred sites (lock, conflict check, vote, decide) and then propagates
  asynchronously.  The client is informed as soon as the decision is taken —
  without waiting for propagation — which is the principal reason Walter's
  transaction latency is lower than SSS's.

Only write-write conflicts abort transactions, so Walter's abort rate is far
below the 2PC-baseline's.  The reproduction keeps these performance-relevant
properties; PSI's long-fork anomaly is observable in the recorded histories
(the external-consistency checker is expected to fail on adversarial
interleavings, which is demonstrated in the test suite).

Under the fault plane (and only then) the node is crash-consistent: the
slow-path prepare buffers are durable 2PC-style (locks of prepared
transactions survive a crash, decides are delivered reliably from a durable
:class:`DecisionRecord` per decision), and the propagation stream
is genuinely durable — every outbound batch is force-written to a
:class:`~repro.storage.durable_log.PropagationLog` (which also owns the
site's commit sequence counter), receivers apply per-sender streams
gap-checked and idempotent behind a durable watermark, and everything above
the acked watermark is retransmitted on restart, on the destination's
rejoin and on the fault-mode fallback timer until acknowledged.  Fail-free
runs never touch any of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.common.errors import TransactionStateError
from repro.common.ids import TransactionId
from repro.consistency.checkers import CheckResult, check_committed_reads
from repro.core.messages import vc_wire_size
from repro.core.metadata import TransactionMeta, TransactionPhase
from repro.network.message import Message, MessagePriority
from repro.protocols.cluster import ProtocolCluster
from repro.protocols.runtime import ProtocolRuntime
from repro.storage.durable_log import PropagationLog
from repro.storage.locks import LockTable


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
class WalterRead(Message):
    __slots__ = ("txn_id", "key", "start_vts")
    priority = MessagePriority.READ
    base_size = 40

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        start_vts: VectorClock = None,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.start_vts = start_vts

    def size_estimate(self) -> int:
        return 40 + vc_wire_size(self.start_vts)


class WalterReadReturn(Message):
    __slots__ = ("txn_id", "key", "value", "site", "seqno", "writer")
    priority = MessagePriority.READ
    base_size = 64

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        value: object = None,
        site: int = 0,
        seqno: int = 0,
        writer: Optional[TransactionId] = None,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.value = value
        self.site = site
        self.seqno = seqno
        self.writer = writer


class WalterPrepare(Message):
    """Slow-path prepare sent to the preferred sites of written keys."""

    __slots__ = ("txn_id", "start_vts", "write_items")
    priority = MessagePriority.COMMIT
    base_size = 48

    def __init__(
        self,
        txn_id: TransactionId = None,
        start_vts: VectorClock = None,
        write_items: Tuple[Tuple[object, object], ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.start_vts = start_vts
        self.write_items = write_items

    def size_estimate(self) -> int:
        return 48 + 32 * len(self.write_items)


class WalterVote(Message):
    __slots__ = ("txn_id", "success")
    priority = MessagePriority.COMMIT
    base_size = 40

    def __init__(self, txn_id: TransactionId = None, success: bool = False):
        Message.__init__(self)
        self.txn_id = txn_id
        self.success = success


class WalterDecide(Message):
    __slots__ = ("txn_id", "outcome", "site", "seqno")
    priority = MessagePriority.CONTROL
    base_size = 48

    def __init__(
        self,
        txn_id: TransactionId = None,
        outcome: bool = False,
        site: int = 0,
        seqno: int = 0,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.outcome = outcome
        self.site = site
        self.seqno = seqno


class WalterPropagate(Message):
    """Asynchronous replication of committed versions to the other replicas.

    In fault mode each batch additionally carries ``stream_seq``, its
    1-based position in the sender's per-destination durable propagation
    stream, so the receiver can detect gaps and apply idempotently;
    fail-free batches leave it 0 (and pay no wire cost for it).
    """

    __slots__ = ("txn_id", "site", "seqno", "write_items", "stream_seq")
    priority = MessagePriority.BULK
    base_size = 48

    def __init__(
        self,
        txn_id: TransactionId = None,
        site: int = 0,
        seqno: int = 0,
        write_items: Tuple[Tuple[object, object], ...] = (),
        stream_seq: int = 0,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.site = site
        self.seqno = seqno
        self.write_items = write_items
        self.stream_seq = stream_seq

    def size_estimate(self) -> int:
        size = 48 + 32 * len(self.write_items)
        if self.stream_seq:
            size += 8
        return size


class WalterPropagateAck(Message):
    """Fault mode: cumulative per-sender propagation watermark."""

    __slots__ = ("watermark",)
    priority = MessagePriority.CONTROL
    base_size = 40

    def __init__(self, watermark: int = 0):
        Message.__init__(self)
        self.watermark = watermark


class WalterDecideAck(Message):
    """Fault mode: acknowledges a reliably-delivered slow-path decide."""

    __slots__ = ("txn_id",)
    priority = MessagePriority.CONTROL
    base_size = 40

    def __init__(self, txn_id: TransactionId = None):
        Message.__init__(self)
        self.txn_id = txn_id


@dataclass
class _WalterVersion:
    value: object
    site: int
    seqno: int
    writer: Optional[TransactionId]


@dataclass
class DecisionRecord:
    """One slow-path decision awaiting reliable delivery to its sites."""

    outcome: bool
    seqno: int
    sites: Tuple[int, ...]


class WalterNode(ProtocolRuntime):
    """One node of the Walter (PSI) store.

    The version chains, the committed vector timestamp, the propagation log
    (with the site sequence counter), the slow-path prepare buffers with
    their recorded votes, the decisions and the propagation watermark are
    durable.  Prepared transactions keep their locks across a crash —
    2PC-style — so a decide arriving after the restart still finds the
    write-set it covers; the other locks, the gap buffers and the
    retransmit-loop flag (re-armed by the restart) are volatile.
    """

    _VOLATILE = ("_prop_buffer", "_retx_running")
    _DURABLE = (
        "_chains",
        "committed_vts",
        "plog",
        "locks",
        "_prepared",
        "decisions",
        "_prop_applied",
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n_nodes = self.config.n_nodes
        # Per-key version chains (oldest first, newest last).
        self._chains: Dict[object, List[_WalterVersion]] = {}
        # Committed vector timestamp: highest sequence number applied per site.
        self.committed_vts = VectorClock.zeros(n_nodes)
        # Durable outbound propagation streams; also owns the site commit
        # sequence counter, so a restarted preferred site never reuses a
        # seqno it already handed out.
        self.plog = PropagationLog()
        self.locks = LockTable(self.sim, name=f"walter-locks@{self.node_id}", owner=self.node_id)
        self._prepared: Dict[TransactionId, Tuple[Tuple[object, object], ...]] = {}
        # Fault mode only — durable slow-path state: coordinator decisions
        # awaiting reliable delivery, force-written before the decide
        # fan-out and dropped once every site acked, and the per-sender
        # propagation watermark (``_prepared`` is the vote record, the
        # runtime's ``_decided`` the delivered decides); fail-free runs
        # never write them.
        self.decisions: Dict[TransactionId, DecisionRecord] = {}
        self._prop_applied: Dict[int, int] = {}
        # Fault mode only: out-of-order propagation batches awaiting their
        # gap, and the retransmit-loop guard.
        self._prop_buffer: Dict[int, Dict[int, tuple]] = {}
        self._retx_running = False
        self.register_handler(WalterRead, self.on_read)
        self.register_handler(WalterPrepare, self.on_prepare)
        self.register_handler(WalterDecide, self.on_decide)
        self.register_handler(WalterPropagate, self.on_propagate)
        self.register_handler(WalterPropagateAck, self.on_propagate_ack)

    # ------------------------------------------------------------------
    def preload(self, keys, initial_value=0) -> None:
        for key in keys:
            self._chains[key] = [_WalterVersion(value=initial_value, site=0, seqno=0, writer=None)]

    # ------------------------------------------------------------------
    # Fault plane
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        self.locks.reset_except(set(self._prepared))

    def on_restart(self, torn_down) -> None:
        """Re-deliver decisions and retransmit unacked propagation.

        Transactions this node was coordinating that died mid-vote-round
        never decided — record a durable abort decision for them (their
        prepared sites hold locks that would otherwise leak).  Then re-fan
        every undelivered decision — including this node's own prepared
        entry — and retransmit everything above the acked propagation
        watermarks.
        """
        for meta, crash_phase in torn_down:
            if crash_phase is not TransactionPhase.PREPARING:
                continue
            self.counters["crash_recoveries"] += 1
            if meta.txn_id not in self.decisions:
                sites = tuple(sorted({self.primary(key) for key in meta.write_set}))
                self.decisions[meta.txn_id] = DecisionRecord(False, 0, sites)
        for txn_id in sorted(self.decisions):
            self.spawn_process(
                self._decide_fanout(txn_id), name=f"walter-decide:{txn_id}"
            )
        # The pre-crash retransmit loop died with the node's epoch.
        self._retx_running = False
        self._retransmit_unacked(self.plog.destinations_with_unacked())
        self._ensure_retransmit_loop()

    # ------------------------------------------------------------------
    # Storage helpers
    # ------------------------------------------------------------------
    def _install(
        self,
        key: object,
        value: object,
        site: int,
        seqno: int,
        writer: Optional[TransactionId],
    ) -> None:
        chain = self._chains.setdefault(key, [])
        chain.append(_WalterVersion(value=value, site=site, seqno=seqno, writer=writer))
        if self.committed_vts[site] < seqno:
            self.committed_vts = self.committed_vts.with_entry(site, seqno)

    def _visible_version(self, key: object, start_vts: VectorClock) -> _WalterVersion:
        chain = self._chains.get(key, [])
        for version in reversed(chain):
            if version.writer is None or version.seqno <= start_vts[version.site]:
                return version
        # A key always has its preloaded version.
        return _WalterVersion(value=0, site=0, seqno=0, writer=None)

    def _newer_version_exists(self, key: object, start_vts: VectorClock) -> bool:
        """Write-write conflict check against the transaction's snapshot."""
        chain = self._chains.get(key, [])
        for version in reversed(chain):
            if version.writer is None:
                return False
            if version.seqno > start_vts[version.site]:
                return True
            return False
        return False

    # ------------------------------------------------------------------
    # Server-side handlers
    # ------------------------------------------------------------------
    def on_read(self, message: WalterRead):
        yield self.cpu(self.service.read_local_us)
        version = self._visible_version(message.key, message.start_vts)
        self.respond(
            message,
            WalterReadReturn(
                txn_id=message.txn_id,
                key=message.key,
                value=version.value,
                site=version.site,
                seqno=version.seqno,
                writer=version.writer,
            ),
        )

    def _recorded_vote(self, txn_id: TransactionId) -> Optional[WalterVote]:
        """``_prepared`` is the durable vote record: an entry is a yes-vote."""
        return WalterVote(txn_id=txn_id, success=True) if txn_id in self._prepared else None

    def on_prepare(self, message: WalterPrepare):
        txn_id = message.txn_id
        if not self.admit_prepare(message, self._recorded_vote):
            return
        local_items = tuple(
            (key, value)
            for key, value in message.write_items
            if self.primary(key) == self.node_id
        )
        keys = tuple(key for key, _value in local_items)
        yield self.cpu(self.service.lock_op_us * max(1, len(keys)))
        locked = yield from self.locks.acquire_all(
            txn_id,
            exclusive_keys=keys,
            timeout_us=self.config.timeouts.lock_timeout_us,
        )
        success = locked
        if locked:
            for key in keys:
                if self._newer_version_exists(key, message.start_vts):
                    success = False
                    break
        if txn_id in self._decided:
            # The decision (a fail-fast abort) overtook this prepare;
            # preparing now would pin locks no second decision releases.
            success = False
        if not success and locked:
            self.locks.release(txn_id, keys)
        if success:
            self._prepared[txn_id] = local_items
        self.cast_vote(message, WalterVote(txn_id=txn_id, success=success))

    def on_decide(self, message: WalterDecide):
        """Apply a decide exactly once; ``_decided`` records it, which also
        keeps a prepare this decide overtook from pinning locks.

        The prepared entry stays until the installation lands.  In fault
        mode decides arrive through the coordinator's re-sending fan-out (a
        crash mid-apply redoes it from the re-send) and every copy is
        acknowledged.
        """
        txn_id = message.txn_id
        if txn_id not in self._decided:
            items = self._prepared.get(txn_id, ())
            if message.outcome and items:
                yield self.cpu(self.service.commit_apply_us * max(1, len(items)))
            if txn_id not in self._decided:
                # Re-checked after the yield: a duplicate decide may have
                # completed the installation while we held the CPU.
                if message.outcome and items:
                    for key, value in items:
                        self._install(key, value, message.site, message.seqno, txn_id)
                    # Propagate asynchronously to the other replicas.
                    self._async_propagate(txn_id, message.site, message.seqno, items)
                self._decided.add(txn_id)
                items = self._prepared.pop(txn_id, ())
                keys = [key for key, _value in items]
                if keys:
                    self.locks.release(txn_id, keys)
        if self._fault_mode:
            self.respond(message, WalterDecideAck(txn_id=txn_id))

    def on_propagate(self, message: WalterPropagate) -> None:
        if self._fault_mode and message.stream_seq:
            sender = message.sender
            applied = self._prop_applied.get(sender, 0)
            if message.stream_seq <= applied:
                # Retransmission of a batch we already applied.
                self.counters["propagation_duplicates"] += 1
            elif message.stream_seq > applied + 1:
                # Gap: an earlier batch of this sender's stream is missing
                # (lost while we were crashed or partitioned).  Buffer this
                # one and keep acking the old watermark so the sender's
                # retransmit loop re-sends the gap.
                self._prop_buffer.setdefault(sender, {})[message.stream_seq] = (
                    message.txn_id,
                    message.site,
                    message.seqno,
                    message.write_items,
                )
                self.counters["propagation_gaps_buffered"] += 1
            else:
                self._apply_propagation(
                    message.site, message.seqno, message.txn_id, message.write_items
                )
                applied += 1
                buffered = self._prop_buffer.get(sender)
                while buffered:
                    successor = buffered.pop(applied + 1, None)
                    if successor is None:
                        break
                    txn_id, site, seqno, write_items = successor
                    self._apply_propagation(site, seqno, txn_id, write_items)
                    applied += 1
                # Same step as the installs: the watermark is force-written.
                self._prop_applied[sender] = applied
            self.send(sender, WalterPropagateAck(watermark=self._prop_applied.get(sender, 0)))
            return
        self._apply_propagation(
            message.site, message.seqno, message.txn_id, message.write_items
        )

    def _apply_propagation(self, site, seqno, txn_id, write_items) -> None:
        for key, value in write_items:
            if self.is_replica_of(key):
                self._install(key, value, site, seqno, txn_id)
        self.counters["propagations_applied"] += 1

    def on_propagate_ack(self, message: WalterPropagateAck) -> None:
        self.plog.ack(message.sender, message.watermark)

    def _async_propagate(
        self,
        txn_id: TransactionId,
        site: int,
        seqno: int,
        items: Tuple[Tuple[object, object], ...],
    ) -> None:
        destinations: Set[int] = set()
        for key, _value in items:
            destinations.update(self.replicas(key))
        destinations.discard(self.node_id)
        for destination in destinations:
            payload = tuple(
                (key, value)
                for key, value in items
                if destination in self.replicas(key)
            )
            if payload:
                if self._fault_mode:
                    # Force-write the batch to the durable stream before the
                    # send; the retransmit loop re-sends it until acknowledged.
                    record = self.plog.append(destination, txn_id, site, seqno, payload)
                    self.send(
                        destination,
                        WalterPropagate(
                            txn_id=txn_id,
                            site=site,
                            seqno=seqno,
                            write_items=payload,
                            stream_seq=record.stream_seq,
                        ),
                    )
                else:
                    self.send(
                        destination,
                        WalterPropagate(txn_id=txn_id, site=site, seqno=seqno, write_items=payload),
                    )
        if self._fault_mode:
            self._ensure_retransmit_loop()

    # ------------------------------------------------------------------
    # Fault mode: reliable propagation and decide delivery
    # ------------------------------------------------------------------
    def _ensure_retransmit_loop(self) -> None:
        if self._retx_running or not self.plog.has_unacked():
            return
        self._retx_running = True
        self.spawn_process(self._retransmit_loop(), name=f"walter-retx@{self.node_id}")

    def _retransmit_loop(self):
        """Re-send unacked propagation batches until every stream is acked:
        to a destination the instant it rejoins, to all on the fallback timer."""
        plog = self.plog
        try:
            yield from self.redrive(
                None,
                plog.destinations_with_unacked,
                self._retransmit_unacked,
                lambda: not plog.has_unacked(),
            )
        finally:
            self._retx_running = False

    def _retransmit_unacked(self, destinations) -> None:
        for destination in destinations:
            for record in self.plog.unacked(destination):
                self.counters["propagation_retransmits"] += 1
                self.send(
                    destination,
                    WalterPropagate(
                        txn_id=record.txn_id,
                        site=record.origin_site,
                        seqno=record.seqno,
                        write_items=record.write_items,
                        stream_seq=record.stream_seq,
                    ),
                )

    def _decide_fanout(self, txn_id: TransactionId):
        """Reliably deliver one durable decision to its prepared sites.

        ``request_round`` re-drives the fan-out in fault mode until every site
        (this node included — its own prepared entry and locks need the
        decide too) acknowledged; the decide handler is idempotent, so
        re-sends and restart re-fans are harmless.  The record is dropped
        only once every site acked.
        """
        decision = self.decisions.get(txn_id)
        if decision is None:
            return
        yield from self.request_round(
            list(decision.sites),
            None,
            lambda _site: WalterDecide(
                txn_id=txn_id,
                outcome=decision.outcome,
                site=self.node_id,
                seqno=decision.seqno,
            ),
            trace_txn=txn_id,
            trace_name="decide",
        )
        self.decisions.pop(txn_id, None)

    # ------------------------------------------------------------------
    # Coordinator side (Session interface)
    # ------------------------------------------------------------------
    def txn_read(self, meta: TransactionMeta, key: object):
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"read after completion of {meta}")
        if key in meta.write_set:
            return meta.write_set[key]
        if not meta.first_read_done:
            meta.vc = self.committed_vts
            meta.first_read_done = True

        replicas = self.replicas(key)
        # Prefer the local replica (Walter reads are local whenever possible).
        if self.node_id in replicas:
            yield self.cpu(self.service.read_local_us)
            version = self._visible_version(key, meta.vc)
            reply_value, writer, served_by = version.value, version.writer, self.node_id
            version_seq = version.seqno
        else:
            reply, _events = yield from self.fastest_round(
                replicas,
                lambda _replica: WalterRead(txn_id=meta.txn_id, key=key, start_vts=meta.vc),
                trace_txn=meta.txn_id,
            )
            reply_value, writer, served_by = reply.value, reply.writer, reply.sender
            version_seq = reply.seqno

        meta.mark_has_read(served_by)
        meta.record_read(
            key=key,
            value=reply_value,
            version_vc=VectorClock.zeros(self.config.n_nodes).with_entry(served_by, version_seq),
            writer=writer,
            served_by=served_by,
        )
        self.counters["client_reads"] += 1
        return reply_value

    def txn_commit(self, meta: TransactionMeta):
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"double commit of {meta}")

        if not meta.write_set:
            # Read-only: nothing to do beyond informing the client.
            return self._finish_commit(meta, "read_only_commits")

        meta.phase = TransactionPhase.PREPARING
        meta.prepare_time = self.sim.now
        txn_id = meta.txn_id
        write_items = tuple(meta.write_set.items())
        preferred_sites: Set[int] = {self.primary(key) for key in meta.write_set}

        if preferred_sites == {self.node_id}:
            committed = yield from self._fast_commit(meta, write_items)
        else:
            committed = yield from self._slow_commit(meta, write_items, preferred_sites)
        if not committed:
            return self._finish_abort(meta, reason="ww-conflict")
        meta.internal_commit_time = self.sim.now
        return self._finish_commit(meta, "update_commits")

    def _fast_commit(self, meta: TransactionMeta, write_items):
        """All written keys are preferred-local: commit without coordination."""
        txn_id = meta.txn_id
        keys = tuple(key for key, _value in write_items)
        locked = yield from self.locks.acquire_all(
            txn_id,
            exclusive_keys=keys,
            timeout_us=self.config.timeouts.lock_timeout_us,
        )
        if not locked:
            return False
        conflict = any(self._newer_version_exists(key, meta.vc) for key in keys)
        if conflict:
            self.locks.release(txn_id, keys)
            return False
        yield self.cpu(self.service.commit_apply_us * max(1, len(keys)))
        seqno = self.plog.next_seqno()
        for key, value in write_items:
            self._install(key, value, self.node_id, seqno, txn_id)
        self.locks.release(txn_id, keys)
        self._async_propagate(txn_id, self.node_id, seqno, write_items)
        self.counters["fast_commits"] += 1
        return True

    def _slow_commit(self, meta: TransactionMeta, write_items, preferred_sites):
        """2PC-like round over the written keys' preferred sites."""
        txn_id = meta.txn_id
        sites = sorted(preferred_sites)

        def make_prepare(_site):
            return WalterPrepare(txn_id=txn_id, start_vts=meta.vc, write_items=write_items)

        outcome, _votes = yield from self.vote_round(sites, make_prepare, trace_txn=txn_id)
        seqno = self.plog.next_seqno()
        self.counters["slow_commits"] += 1
        if self._fault_mode:
            # The decision is force-written and delivered reliably by a
            # background fan-out — the client is answered now, as on the
            # fail-free path.
            self.decisions[txn_id] = DecisionRecord(outcome, seqno, tuple(sites))
            self.spawn_process(
                self._decide_fanout(txn_id), name=f"walter-decide:{txn_id}"
            )
            return outcome
        for site in sites:
            self.send(
                site,
                WalterDecide(
                    txn_id=txn_id,
                    outcome=outcome,
                    site=self.node_id,
                    seqno=seqno,
                ),
            )
        return outcome


class WalterCluster(ProtocolCluster):
    """Cluster facade for the Walter (PSI) baseline."""

    node_class = WalterNode
    protocol_name = "walter"

    @staticmethod
    def contract(history, replica_versions) -> List[CheckResult]:
        """Walter's PSI contract under faults.

        PSI permits long forks and torn cross-site snapshot cuts, so the
        external-consistency and consistent-cut checks legitimately fail on
        adversarial interleavings; what Walter *does* promise — and what the
        durable propagation plane restores under crashes — is dirty-read
        freedom (every read from a committed writer) and convergence of
        every key's replicas once propagation drains.
        """
        return [check_committed_reads(history), replica_convergence(replica_versions)]

    def replica_versions(self) -> Dict[object, Dict[int, set]]:
        """The committed ``(site, seqno)`` versions each owned replica holds."""
        summary: Dict[object, Dict[int, set]] = {}
        for key in self.keys:
            replicas = self.placement.replicas(key)
            if len(replicas) < 2:
                continue
            # Every replicated key gets an entry, owned replica or not, so
            # shard summaries share one key order and merge by update.
            summary[key] = {
                node_id: {
                    (version.site, version.seqno)
                    for version in self.nodes[node_id]._chains.get(key, [])
                    if version.writer is not None
                }
                for node_id in replicas
                if self.nodes[node_id] is not None
            }
        return summary


def replica_convergence(replica_versions: Dict[object, Dict[int, set]]) -> CheckResult:
    """Every replica of a key holds the same committed version set.

    A propagation batch lost to a crash or partition (and never
    retransmitted) surfaces here as a replica missing a ``(site, seqno)``
    version that its peers hold.  Meaningful at quiescence — after the
    run's drain, when the durable streams have been acked.
    """
    violations: List[str] = []
    for key, held in replica_versions.items():
        union = set().union(*held.values())
        for node_id in sorted(held):
            missing = union - held[node_id]
            if missing:
                violations.append(
                    f"replica {node_id} of {key!r} is missing committed "
                    f"versions {sorted(missing)}"
                )
    return CheckResult(
        ok=not violations,
        name="walter-replica-convergence",
        violations=violations,
        checked_transactions=len(replica_versions),
    )

