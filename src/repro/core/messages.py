"""Wire messages of the SSS protocol.

Message priorities follow the paper's implementation note: messages that
unblock other transactions (Remove, Ack, Decide) are served first by the
per-node network queues, 2PC prepare/vote traffic next, read traffic after
that.

All message types are ``__slots__`` classes (see
:mod:`repro.network.message`): one instance is allocated per protocol send,
so they carry no per-instance ``__dict__``, their priority and fixed size
component are class-level constants, and their ``size_estimate`` charges
every vector clock at its dense wire size (``8 * width``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import NodeId, TransactionId
from repro.core.metadata import PropagatedEntry
from repro.network.message import Message, MessagePriority


def vc_wire_size(vc: Optional[VectorClock]) -> int:
    """Dense wire size of a message-borne clock (0 when absent)."""
    return 0 if vc is None else 8 * vc.size


class ReadRequest(Message):
    """Algorithm 5 line 9: request one key from a replica."""

    __slots__ = ("txn_id", "key", "vc", "has_read", "is_update")
    priority = MessagePriority.READ
    base_size = 48

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        vc: VectorClock = None,
        has_read: Tuple[bool, ...] = (),
        is_update: bool = False,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.vc = vc
        self.has_read = has_read
        self.is_update = is_update

    def size_estimate(self) -> int:
        return 48 + vc_wire_size(self.vc) + len(self.has_read)


class ReadReturn(Message):
    """Algorithm 6 line 28: value, snapshot vector clock and propagated set.

    ``writer_pending`` is set when the returned version's writer is not yet
    known (at the serving node) to have externally committed.  The reader's
    coordinator must then delay the transaction's own external commit until
    that writer has externally committed, otherwise the client response would
    leak state that no external observer is allowed to have seen yet.

    ``stale`` means the read was *refused*: the reader's visibility bound
    hides a version whose writer's client was already answered, so serving
    under this bound would create an exclusion edge with no answer-order
    behind it (the ungated half of a Figure-2 cycle) — the value fields are
    meaningless and the coordinator restarts the read-only transaction
    under a fresh snapshot.

    ``gated`` lists writers whose *client answer* was gated behind this
    reading transaction during the read's ambiguous-zone resolution (see
    :class:`ExternalStatusQuery`): the reader's coordinator must release
    those gates when the transaction finishes or restarts.
    """

    __slots__ = (
        "txn_id",
        "key",
        "value",
        "max_vc",
        "version_vc",
        "writer",
        "propagated",
        "writer_pending",
        "stale",
        "gated",
    )
    priority = MessagePriority.READ
    base_size = 66

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        value: object = None,
        max_vc: VectorClock = None,
        version_vc: VectorClock = None,
        writer: Optional[TransactionId] = None,
        propagated: Tuple[PropagatedEntry, ...] = (),
        writer_pending: bool = False,
        stale: bool = False,
        gated: Tuple[TransactionId, ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.value = value
        self.max_vc = max_vc
        self.version_vc = version_vc
        self.writer = writer
        self.propagated = propagated
        self.writer_pending = writer_pending
        self.stale = stale
        self.gated = gated

    def size_estimate(self) -> int:
        return (
            66
            + vc_wire_size(self.max_vc)
            + vc_wire_size(self.version_vc)
            + 16 * len(self.propagated)
            + 16 * len(self.gated)
        )


class Prepare(Message):
    """2PC prepare carrying the read and write keys stored by the participant.

    ``read_versions`` pairs every read key with the commit vector clock of
    the version the transaction actually observed; participants validate that
    the key has not been overwritten since (the paper's validation intent:
    "abort if some read key has been overwritten meanwhile").
    """

    __slots__ = ("txn_id", "vc", "read_versions", "write_items")
    priority = MessagePriority.COMMIT
    base_size = 64

    def __init__(
        self,
        txn_id: TransactionId = None,
        vc: VectorClock = None,
        read_versions: Tuple[Tuple[object, VectorClock], ...] = (),
        write_items: Tuple[Tuple[object, object], ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.vc = vc
        self.read_versions = read_versions
        self.write_items = write_items

    @property
    def read_keys(self) -> Tuple[object, ...]:
        return tuple(key for key, _vc in self.read_versions)

    def size_estimate(self) -> int:
        size = 64 + vc_wire_size(self.vc) + 32 * len(self.write_items)
        for _key, read_vc in self.read_versions:
            size += 16 + vc_wire_size(read_vc)
        return size


class Vote(Message):
    """2PC vote with the participant's proposed commit vector clock."""

    __slots__ = ("txn_id", "vc", "success")
    priority = MessagePriority.COMMIT
    base_size = 48

    def __init__(
        self,
        txn_id: TransactionId = None,
        vc: VectorClock = None,
        success: bool = False,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.vc = vc
        self.success = success

    def size_estimate(self) -> int:
        return 48 + vc_wire_size(self.vc)


class Decide(Message):
    """2PC decision carrying the final commit vector clock and outcome.

    The coordinator also ships the transaction's ``PropagatedSet`` so that
    write replicas can re-insert the propagated read-only entries into the
    written keys' snapshot queues when the pre-commit phase starts
    (Algorithm 3, lines 4-6).
    """

    __slots__ = ("txn_id", "commit_vc", "outcome", "propagated")
    priority = MessagePriority.CONTROL
    base_size = 56

    def __init__(
        self,
        txn_id: TransactionId = None,
        commit_vc: VectorClock = None,
        outcome: bool = False,
        propagated: Tuple[PropagatedEntry, ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.commit_vc = commit_vc
        self.outcome = outcome
        self.propagated = propagated

    def size_estimate(self) -> int:
        return (
            56
            + vc_wire_size(self.commit_vc)
            + 16 * len(self.propagated)
        )


class ExternalAck(Message):
    """Algorithm 4 line 5: a write replica finished its pre-commit wait."""

    __slots__ = ("txn_id", "snapshot")
    priority = MessagePriority.CONTROL
    base_size = 40

    def __init__(self, txn_id: TransactionId = None, snapshot: int = 0):
        Message.__init__(self)
        self.txn_id = txn_id
        self.snapshot = snapshot


class ExternalDone(Message):
    """Post-external-commit notification of a writer.

    Sent by the writer's coordinator, after the writer's client has been
    answered, to the writer's write replicas and to every node subscribed via
    :class:`SubscribeExternal`.  Once received, a node knows the writer's
    versions are safe to expose to clients without an external-commit
    dependency wait (the writer's client already got its reply, so no
    external observer can be surprised by the data).

    ``done_time`` is the coordinator's external-commit timestamp.  The
    load-bearing bit is its *presence*: ``None`` marks a writer that
    finished without answering its client (abort, crash teardown) and may
    therefore be missed by later readers freely, while any timestamp marks
    an answered writer whose hidden versions make a read refuse as stale
    (see :class:`ReadReturn`).  The value itself is carried for
    diagnostics — it is what "answered" means in the model, and tests pin
    it against the coordinator's recorded commit time.
    """

    __slots__ = ("txn_id", "done_time")
    priority = MessagePriority.CONTROL
    base_size = 40

    def __init__(self, txn_id: TransactionId = None, done_time: Optional[float] = None):
        Message.__init__(self)
        self.txn_id = txn_id
        self.done_time = done_time


class PrecommitQuery(Message):
    """Fault-plane recovery: re-request a write replica's pre-commit ack.

    Sent (fault mode only) by a coordinator whose external-commit wait
    outlived the coarse retry interval — typically because the write replica
    crashed after internally committing but before its snapshot-queue wait
    finished, losing the in-flight pre-commit process and its ExternalAck.
    The replica replays the pre-commit from its durable NLog entry.

    If the transaction never internally committed there, the Decide itself
    was lost in the crash; the query therefore doubles as a decision
    retransmission: ``commit_vc`` and ``propagated`` carry the coordinator's
    recorded commit decision, and a replica holding a durable redo record of
    its vote (see :class:`repro.storage.commit_queue.RedoLog`)
    applies the decision exactly as the original Decide would have — closing
    the voted-then-crashed in-doubt window.
    """

    __slots__ = ("txn_id", "commit_vc", "propagated")
    priority = MessagePriority.CONTROL
    base_size = 32

    def __init__(
        self,
        txn_id: TransactionId = None,
        commit_vc: VectorClock = None,
        propagated: Tuple[PropagatedEntry, ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.commit_vc = commit_vc
        self.propagated = propagated

    def size_estimate(self) -> int:
        return (
            32
            + vc_wire_size(self.commit_vc)
            + 16 * len(self.propagated)
        )


class ExternalStatusQuery(Message):
    """Ask a writer's coordinator whether the writer is externally done.

    The ambiguous-zone wait normally resolves through ExternalDone
    notifications, but the notification can be delayed past the bounded wait
    (fail-free) or swallowed for good by a crash (fault mode).  Instead of
    excluding on timeout — which would serialize the reader before a writer
    whose client may already have been answered, a real external-consistency
    violation — the reader asks the coordinator directly: a *done*
    (externally committed or torn down) answer releases the wait, an
    *in-flight* answer makes exclusion safe, and no answer (coordinator
    down, fault mode only) keeps the reader waiting — trading liveness,
    never safety.  The same query resolves stuck external-commit dependency
    waits at commit time and in-doubt redo records after a restart.

    ``gate`` (with ``reader`` naming the reading transaction) asks the
    coordinator to *gate the writer's client answer* behind the reader when
    the writer is confirmed in flight: an exclusion is externally consistent
    only if the excluded writer answers after the reader finishes — exactly
    the ordering the snapshot-queue entry would have enforced had the writer
    not already passed its local pre-commit wait.  The gate is released by
    :class:`ReleaseGate` (or the reader's Remove) when the reader commits or
    restarts.
    """

    __slots__ = ("txn_id", "reader", "gate")
    priority = MessagePriority.CONTROL
    base_size = 33

    def __init__(
        self,
        txn_id: TransactionId = None,
        reader: TransactionId = None,
        gate: bool = False,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.reader = reader
        self.gate = gate

    def size_estimate(self) -> int:
        return 33 + (8 if self.reader is not None else 0)


class ExternalStatusReply(Message):
    """Definitive status of a writer, from its coordinator.

    ``done`` answers the reader-path question (client answered, or torn
    down).  ``outcome`` carries the recorded 2PC decision for restarted
    participants resolving in-doubt redo records: ``True`` (decided commit,
    with ``commit_vc``/``propagated`` reproducing the lost Decide), ``False``
    (aborted / presumed abort), or ``None`` (no decision yet — the normal
    Decide will reach the now-recovered participant).
    """

    __slots__ = (
        "txn_id",
        "done",
        "done_time",
        "gated",
        "outcome",
        "commit_vc",
        "propagated",
    )
    priority = MessagePriority.CONTROL
    base_size = 42

    def __init__(
        self,
        txn_id: TransactionId = None,
        done: bool = False,
        done_time: Optional[float] = None,
        gated: bool = False,
        outcome: Optional[bool] = None,
        commit_vc: VectorClock = None,
        propagated: Tuple[PropagatedEntry, ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.done = done
        self.done_time = done_time
        self.gated = gated
        self.outcome = outcome
        self.commit_vc = commit_vc
        self.propagated = propagated

    def size_estimate(self) -> int:
        return (
            42
            + vc_wire_size(self.commit_vc)
            + 16 * len(self.propagated)
        )


class SubscribeExternal(Message):
    """Ask a writer's coordinator to notify ``target`` of the external commit.

    Sent by a node that served a read from a version whose writer has not yet
    externally committed; ``target`` is the coordinator of the reading
    transaction, whose client response must wait for the writer's
    (external-commit dependency).  Subscribing at read time lets the
    notification travel while the reading transaction is still executing, so
    the commit-time wait is usually already satisfied.
    """

    __slots__ = ("txn_id", "target")
    priority = MessagePriority.CONTROL
    base_size = 36

    def __init__(self, txn_id: TransactionId = None, target: NodeId = 0):
        Message.__init__(self)
        self.txn_id = txn_id
        self.target = target


class ReleaseGate(Message):
    """Release a reading transaction's answer gates on the listed writers.

    Sent by the reader's coordinator to each gated writer's coordinator when
    the reader commits or restarts (and by the losing-reply cleanup for
    gates registered by replicas that lost the fastest-answer race).  Sent
    once: the gated writer's wait re-validates its readers when it stalls.
    """

    __slots__ = ("txn_id", "writers")
    priority = MessagePriority.CONTROL
    base_size = 32

    def __init__(
        self,
        txn_id: TransactionId = None,
        writers: Tuple[TransactionId, ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.writers = writers

    def size_estimate(self) -> int:
        return 32 + 8 * len(self.writers)


class Remove(Message):
    """Notification that a read-only transaction returned to its client.

    ``keys`` restricts the cleanup to the snapshot queues of the given keys
    when provided; an empty tuple means "every local queue containing the
    transaction" (used when the message is forwarded along anti-dependency
    propagation chains, where the forwarding node does not know which keys
    the entry reached).

    ``mark_returned=False`` turns the message into a narrow entry cleanup
    that does *not* mean the transaction finished: the coordinator sends it
    to the replicas whose read replies lost the fastest-answer race, whose
    snapshot-queue entries record a serialization decision the transaction
    never adopted (and which could otherwise gate an unrelated writer's
    external commit forever).
    """

    __slots__ = ("txn_id", "keys", "mark_returned")
    priority = MessagePriority.CONTROL
    base_size = 33

    def __init__(
        self,
        txn_id: TransactionId = None,
        keys: Tuple[object, ...] = (),
        mark_returned: bool = True,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.keys = keys
        self.mark_returned = mark_returned

    def size_estimate(self) -> int:
        return 33 + 16 * len(self.keys)
