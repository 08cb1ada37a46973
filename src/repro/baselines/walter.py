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

The node is crash-consistent: the slow-path prepare buffers are durable
2PC-style (locks of prepared transactions survive a crash), the site's
commit sequence counter is durable (a restarted site never reuses a
seqno), and decides and propagation batches go out through the node's
reliable channel (:meth:`~repro.protocols.stream.ReliableChannel.send`), so
neither is lost to a crash or a partition.
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
    """Asynchronous replication of committed versions to the other replicas."""

    __slots__ = ("txn_id", "site", "seqno", "write_items")
    priority = MessagePriority.BULK
    base_size = 48

    def __init__(
        self,
        txn_id: TransactionId = None,
        site: int = 0,
        seqno: int = 0,
        write_items: Tuple[Tuple[object, object], ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.site = site
        self.seqno = seqno
        self.write_items = write_items

    def size_estimate(self) -> int:
        return 48 + 32 * len(self.write_items)


@dataclass
class _WalterVersion:
    value: object
    site: int
    seqno: int
    writer: Optional[TransactionId]


class WalterNode(ProtocolRuntime):
    """One node of the Walter (PSI) store.

    The version chains, the committed vector timestamp, the site sequence
    counter and the slow-path prepare buffers with their recorded votes are
    durable.  Prepared transactions keep their locks across a crash —
    2PC-style — so a decide arriving after the restart still finds the
    write-set it covers; the other locks are volatile.
    """

    _DURABLE = ("_chains", "committed_vts", "_seqno", "locks", "_prepared")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n_nodes = self.config.n_nodes
        # Per-key version chains (oldest first, newest last).
        self._chains: Dict[object, List[_WalterVersion]] = {}
        # Committed vector timestamp: highest sequence number applied per site.
        self.committed_vts = VectorClock.zeros(n_nodes)
        # The site's last commit sequence number: a restarted preferred
        # site never reuses a seqno it already handed out.
        self._seqno = 0
        self.locks = LockTable(self.sim, name=f"walter-locks@{self.node_id}", owner=self.node_id)
        # The vote record (the runtime's ``_decided`` holds the decides).
        self._prepared: Dict[TransactionId, Tuple[Tuple[object, object], ...]] = {}
        self.register_handler(WalterRead, self.on_read)
        self.register_handler(WalterPrepare, self.on_prepare)
        self.register_handler(WalterDecide, self.on_decide)
        self.register_handler(WalterPropagate, self.on_propagate)

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
        """Decide abort for the transactions this node was coordinating that
        died mid-vote-round: their prepared sites hold locks that would
        otherwise leak."""
        for meta, crash_phase in torn_down:
            if crash_phase is TransactionPhase.PREPARING:
                self.counters["crash_recoveries"] += 1
                sites = {self.primary(key) for key in meta.write_set}
                self._send_decides(meta.txn_id, False, 0, sites)

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

        The prepared entry stays until the installation lands: decides
        arrive through the reliable channel, whose stream re-sends a decide
        a crash interrupted mid-apply.
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

    def on_propagate(self, message: WalterPropagate) -> None:
        for key, value in message.write_items:
            if self.is_replica_of(key):
                self._install(key, value, message.site, message.seqno, message.txn_id)
        self.counters["propagations_applied"] += 1

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
                self.channel.send(
                    destination,
                    WalterPropagate(txn_id=txn_id, site=site, seqno=seqno, write_items=payload),
                )

    def _send_decides(self, txn_id: TransactionId, outcome: bool, seqno: int, sites) -> None:
        """Send the decision to every prepared site, this node included."""
        for site in sorted(sites):
            self.channel.send(
                site, WalterDecide(txn_id=txn_id, outcome=outcome, site=self.node_id, seqno=seqno)
            )

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
        self._seqno += 1
        seqno = self._seqno
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
        self._seqno += 1
        self.counters["slow_commits"] += 1
        self._send_decides(txn_id, outcome, self._seqno, sites)
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

