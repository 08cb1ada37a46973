"""The 2PC-baseline competitor.

From the paper's evaluation section: "all transactions execute as SSS's
update transactions; read-only transactions validate their execution,
therefore they can abort; and no multi-version data repository is deployed.
As SSS, 2PC-baseline guarantees external consistency."

Concretely:

* Each node keeps a *single-version* store: one value and one monotonically
  increasing version number per key.
* Reads contact every replica of the key, use the fastest reply and remember
  the version number observed.
* Commit — for **every** transaction, read-only included — runs two-phase
  commit over the replicas of the read and write sets: prepare acquires
  shared locks on reads and exclusive locks on writes and validates that the
  read version numbers are still current; decide applies the writes (bumping
  the per-key version) and releases locks; the client is informed after every
  participant acknowledged the decision (which is what makes the protocol
  externally consistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.common.errors import TransactionStateError
from repro.common.ids import TransactionId
from repro.core.metadata import TransactionMeta, TransactionPhase
from repro.network.message import Message, MessagePriority
from repro.protocols.cluster import ProtocolCluster
from repro.protocols.registry import register
from repro.protocols.runtime import ProtocolRuntime
from repro.storage.locks import LockTable


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
class ReadRequest2PC(Message):
    __slots__ = ("txn_id", "key")
    priority = MessagePriority.READ
    base_size = 40

    def __init__(self, txn_id: TransactionId = None, key: object = None):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key

    def size_estimate(self, codec=None, peer=None) -> int:
        return 40


class ReadReturn2PC(Message):
    __slots__ = ("txn_id", "key", "value", "version", "writer")
    priority = MessagePriority.READ
    base_size = 56

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        value: object = None,
        version: int = 0,
        writer: Optional[TransactionId] = None,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.value = value
        self.version = version
        self.writer = writer

    def size_estimate(self, codec=None, peer=None) -> int:
        return 56


class Prepare2PC(Message):
    __slots__ = ("txn_id", "read_versions", "write_items")
    priority = MessagePriority.COMMIT
    base_size = 48

    def __init__(
        self,
        txn_id: TransactionId = None,
        read_versions: Tuple[Tuple[object, int], ...] = (),
        write_items: Tuple[Tuple[object, object], ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.read_versions = read_versions
        self.write_items = write_items

    def size_estimate(self, codec=None, peer=None) -> int:
        return 48 + 24 * len(self.read_versions) + 32 * len(self.write_items)


class Vote2PC(Message):
    __slots__ = ("txn_id", "success")
    priority = MessagePriority.COMMIT
    base_size = 40

    def __init__(self, txn_id: TransactionId = None, success: bool = False):
        Message.__init__(self)
        self.txn_id = txn_id
        self.success = success

    def size_estimate(self, codec=None, peer=None) -> int:
        return 40


class Decide2PC(Message):
    __slots__ = ("txn_id", "outcome")
    priority = MessagePriority.CONTROL
    base_size = 40

    def __init__(self, txn_id: TransactionId = None, outcome: bool = False):
        Message.__init__(self)
        self.txn_id = txn_id
        self.outcome = outcome

    def size_estimate(self, codec=None, peer=None) -> int:
        return 40


class DecideAck2PC(Message):
    """Decide acknowledgement, carrying the installed per-key version numbers.

    The version numbers are the participant's post-apply counters: the true
    per-key installation order.  The coordinator records them as version
    hints so the consistency checker does not have to fall back to response
    order, which can disagree with the lock order when transactions with
    different participant sets complete their decide rounds at different
    speeds.
    """

    __slots__ = ("txn_id", "versions")
    priority = MessagePriority.CONTROL
    base_size = 32

    def __init__(
        self,
        txn_id: TransactionId = None,
        versions: Tuple[Tuple[object, int], ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.versions = versions

    def size_estimate(self, codec=None, peer=None) -> int:
        return 32 + 24 * len(self.versions)


@dataclass
class _KeyState:
    """Single-version record of one key."""

    value: object = 0
    version: int = 0
    writer: Optional[TransactionId] = None


class TwoPCNode(ProtocolRuntime):
    """One node of the 2PC-baseline store."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._data: Dict[object, _KeyState] = {}
        self.locks = LockTable(self.sim, name=f"2pc-locks@{self.node_id}", owner=self.node_id)
        # Participant state for in-flight rounds.
        self._prepared: Dict[TransactionId, Prepare2PC] = {}
        self.register_handler(ReadRequest2PC, self.on_read_request)
        self.register_handler(Prepare2PC, self.on_prepare)
        self.register_handler(Decide2PC, self.on_decide)

    # ------------------------------------------------------------------
    def preload(self, keys, initial_value=0) -> None:
        for key in keys:
            self._data[key] = _KeyState(value=initial_value)

    # ------------------------------------------------------------------
    # Fault plane
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Textbook participant crash: only *prepared* state is durable.

        A participant force-writes the prepare record before voting yes, so
        ``_prepared`` and the prepared transactions' locks survive the crash
        (and keep blocking — 2PC's in-doubt window, resolved when the
        coordinator re-sends the decision).  Everything else — lock waiters
        and holders of transactions that never reached the vote — dies with
        the process.  The single-version store is the node's recovered data.
        """
        self.locks.reset_except(set(self._prepared))

    def on_restart(self) -> None:
        """Resolve in-doubt 2PC rounds pinned by transactions that died with us.

        A coordinated transaction that crashed mid-round left durable
        prepared entries and locks at its participants (this node included —
        it is its own participant, and ``on_crash`` deliberately preserved
        its prepared state).  The *recorded decision* is re-fanned to every
        participant: abort when the crash hit before the commit decision was
        taken (``internal_commit_time`` unset — the decide fan-out, when it
        happened at all, carried the same abort), commit when the decision
        was already taken and sent — a participant the original Decide never
        reached (crash, drop-mode partition) must apply, not abort, or the
        round's outcome would split across replicas.  ``on_decide`` is
        idempotent, so participants that already applied simply re-ack into
        the void.
        """
        for txn_id in sorted(self.coordinated):
            meta = self.coordinated[txn_id]
            crash_phase = meta.crash_phase
            if crash_phase is None:
                continue
            meta.crash_phase = None
            if crash_phase is not TransactionPhase.PREPARING:
                continue
            self.counters["crash_recoveries"] += 1
            outcome = meta.internal_commit_time is not None
            participants = set(
                self.placement.replicas_of(list(meta.read_set) + list(meta.write_set))
            )
            participants.add(self.node_id)
            for participant in sorted(participants):
                self.send(participant, Decide2PC(txn_id=txn_id, outcome=outcome))

    # ------------------------------------------------------------------
    # Server-side handlers
    # ------------------------------------------------------------------
    def on_read_request(self, message: ReadRequest2PC):
        yield self.cpu(self.service.read_local_us)
        state = self._data.get(message.key, _KeyState())
        self.respond(
            message,
            ReadReturn2PC(
                txn_id=message.txn_id,
                key=message.key,
                value=state.value,
                version=state.version,
                writer=state.writer,
            ),
        )

    def _recorded_vote(self, txn_id: TransactionId) -> Optional[Vote2PC]:
        """``_prepared`` is the durable vote record: an entry is a yes-vote."""
        return Vote2PC(txn_id=txn_id, success=True) if txn_id in self._prepared else None

    def on_prepare(self, message: Prepare2PC):
        txn_id = message.txn_id
        if self._fault_mode and not self.admit_prepare(message, self._recorded_vote):
            return
        local_reads = tuple(
            (key, version)
            for key, version in message.read_versions
            if self.is_replica_of(key)
        )
        local_writes = tuple(
            (key, value)
            for key, value in message.write_items
            if self.is_replica_of(key)
        )
        write_keys = tuple(key for key, _value in local_writes)
        read_keys = tuple(key for key, _version in local_reads)

        yield self.cpu(self.service.lock_op_us * max(1, len(read_keys) + len(write_keys)))
        locked = yield from self.locks.acquire_all(
            txn_id,
            exclusive_keys=write_keys,
            shared_keys=read_keys,
            timeout_us=self.config.timeouts.lock_timeout_us,
        )
        success = locked
        if locked:
            yield self.cpu(self.service.validate_key_us * max(1, len(read_keys)))
            for key, version in local_reads:
                current = self._data.get(key, _KeyState())
                if current.version != version:
                    success = False
                    break
        if txn_id in self._decided:
            # Fault mode: the decision overtook this prepare; preparing now
            # would pin locks no second decision releases.
            success = False
        if not success and locked:
            self.locks.release(txn_id, list(write_keys) + list(read_keys))
        if success:
            self._prepared[txn_id] = Prepare2PC(
                txn_id=txn_id, read_versions=local_reads, write_items=local_writes
            )
        self.counters["prepares"] += 1
        self.cast_vote(message, Vote2PC(txn_id=txn_id, success=success))

    def on_decide(self, message: Decide2PC):
        txn_id = message.txn_id
        if self._fault_mode:
            self._decided.add(txn_id)
        prepared = self._prepared.pop(txn_id, None)
        installed = []
        if prepared is not None:
            read_keys = [key for key, _version in prepared.read_versions]
            write_keys = [key for key, _value in prepared.write_items]
            if message.outcome:
                yield self.cpu(self.service.commit_apply_us * max(1, len(write_keys)))
                for key, value in prepared.write_items:
                    state = self._data.setdefault(key, _KeyState())
                    state.value = value
                    state.version += 1
                    state.writer = txn_id
                    installed.append((key, state.version))
                self.counters["applies"] += 1
            self.locks.release(txn_id, read_keys + write_keys)
        self.respond(message, DecideAck2PC(txn_id=txn_id, versions=tuple(installed)))

    # ------------------------------------------------------------------
    # Coordinator side (Session interface)
    # ------------------------------------------------------------------
    def txn_read(self, meta: TransactionMeta, key: object):
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"read after completion of {meta}")
        if key in meta.write_set:
            return meta.write_set[key]

        reply, _events = yield from self.fastest_round(
            self.replicas(key),
            lambda _replica: ReadRequest2PC(txn_id=meta.txn_id, key=key),
            trace_txn=meta.txn_id,
        )
        meta.record_read(
            key=key,
            value=reply.value,
            version_vc=meta.vc.with_entry(0, 0),
            writer=reply.writer,
            served_by=reply.sender,
        )
        # The scalar version number is what validation uses; stash it in the
        # read record via the metadata's generic container.
        meta.read_set[key].version_number = reply.version  # type: ignore[attr-defined]
        self.counters["client_reads"] += 1
        return reply.value

    def txn_commit(self, meta: TransactionMeta):
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"double commit of {meta}")
        meta.phase = TransactionPhase.PREPARING
        meta.prepare_time = self.sim.now
        txn_id = meta.txn_id

        read_versions = tuple(
            (key, getattr(record, "version_number", 0))
            for key, record in meta.read_set.items()
        )
        write_items = tuple(meta.write_set.items())
        participants: Set[int] = set(
            self.placement.replicas_of(list(meta.read_set) + list(meta.write_set))
        )
        participants.add(self.node_id)

        # Prepare phase: one shared vote round (crash guard included).
        outcome, _votes = yield from self.vote_round(
            sorted(participants),
            lambda _participant: Prepare2PC(
                txn_id=txn_id,
                read_versions=read_versions,
                write_items=write_items,
            ),
            trace_txn=txn_id,
        )

        # Decide phase; wait for every participant's acknowledgement so the
        # client response order matches the data-store state (external
        # consistency).  In fault mode the decision is re-sent until every
        # participant answers — a crashed participant recovers its durable
        # prepared state and applies on the re-send (on_decide is
        # idempotent), which is what closes the in-doubt window.
        if outcome:
            meta.internal_commit_time = self.sim.now
        ordered_participants = sorted(participants)
        acks = yield from self.request_all(
            ordered_participants,
            lambda _participant: Decide2PC(txn_id=txn_id, outcome=outcome),
            trace_txn=txn_id,
            trace_name="decide",
        )

        if not outcome:
            return self._finish_abort(meta, reason="validation-or-lock")
        for participant in ordered_participants:
            ack: DecideAck2PC = acks[participant]
            for key, version in ack.versions:
                meta.version_hints[key] = float(version)
        counter = "update_commits" if meta.is_update else "read_only_commits"
        return self._finish_commit(meta, counter)


class TwoPCCluster(ProtocolCluster):
    """Cluster facade for the 2PC-baseline."""

    node_class = TwoPCNode
    protocol_name = "2pc"


register("2pc", TwoPCCluster)
