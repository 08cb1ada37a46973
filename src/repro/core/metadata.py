"""Per-transaction metadata of the SSS protocol.

A transaction in SSS carries two vector clocks — ``T.VC`` (the visibility
bound, merged with every read reply) and ``T.hasRead`` (which nodes it has
already read from) — plus a private read-set and write-set and the
``PropagatedSet`` of read-only snapshot-queue entries observed through reads
of keys written by pre-committing transactions.

The metadata object also records the timestamps of the transaction's phase
transitions (begin, internal commit, external commit), which are the raw
material for the latency and latency-breakdown figures (Figures 4b and 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import NodeId, TransactionId


#: Abort reason marking an *externally invisible* restart of a read-only
#: transaction: its dependency wait sat on writers confirmed still in flight
#: past ``readonly_restart_wait_us`` (the 4-party wait-cycle breaker).  The
#: session layer re-executes the transaction with a fresh snapshot instead of
#: surfacing an abort, and the attempt is not recorded in the history — the
#: client observes one committed transaction, exactly once.
READONLY_RESTART_REASON = "readonly-snapshot-restart"


class TransactionPhase(enum.Enum):
    """Lifecycle phases of an SSS transaction (Section III-B)."""

    EXECUTING = "executing"
    PREPARING = "preparing"
    INTERNALLY_COMMITTED = "internally-committed"
    PRE_COMMIT = "pre-commit"
    EXTERNALLY_COMMITTED = "externally-committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class PropagatedEntry:
    """A read-only snapshot-queue entry carried along anti-dependency chains.

    ``snapshot`` is the insertion-snapshot the read-only transaction had when
    it was (originally) enqueued; the entry is re-inserted verbatim into the
    snapshot queues of the written keys of the transaction that observed it
    (Algorithm 3, lines 4-6).
    """

    txn_id: TransactionId
    snapshot: int


@dataclass
class ReadRecord:
    """One entry of the transaction's read-set."""

    key: object
    value: object
    version_vc: VectorClock
    writer: Optional[TransactionId]
    served_by: NodeId


@dataclass
class TransactionMeta:
    """All protocol state of one in-flight transaction."""

    txn_id: TransactionId
    coordinator: NodeId
    is_update: bool
    n_nodes: int
    vc: VectorClock = field(init=False)
    has_read: List[bool] = field(init=False)
    read_set: Dict[object, ReadRecord] = field(default_factory=dict)
    write_set: Dict[object, object] = field(default_factory=dict)
    propagated_set: Set[PropagatedEntry] = field(default_factory=set)
    pending_writers: Set[TransactionId] = field(default_factory=set)
    """Writers of observed versions not yet confirmed externally committed;
    this transaction's own external commit must wait for all of them."""
    gated_writers: Set[TransactionId] = field(default_factory=set)
    """Writers whose client answer was gated behind this (read-only)
    transaction during ambiguous-zone resolution; the gates are released
    when the transaction finishes or restarts."""
    reading_key: object = None
    """The key of the read in flight, if any: a reader torn down mid-read
    left snapshot-queue entries at its replicas the read-set cannot name."""
    phase: TransactionPhase = TransactionPhase.EXECUTING
    first_read_done: bool = False
    commit_vc: Optional[VectorClock] = None
    abort_reason: Optional[str] = None
    crash_phase: Optional[TransactionPhase] = None
    """Phase the transaction was in when its coordinator crashed, recorded so
    the restart recovery knows which remote state to release (fault plane)."""
    version_hints: Dict[object, float] = field(default_factory=dict)
    """Per written key, a value that sorts this transaction's version against
    other writers of the same key in installation order (protocol specific;
    SSS uses the transaction version number ``xactVN``)."""

    # Phase-transition timestamps (simulated microseconds).
    begin_time: float = 0.0
    prepare_time: Optional[float] = None
    internal_commit_time: Optional[float] = None
    external_commit_time: Optional[float] = None
    abort_time: Optional[float] = None

    def __post_init__(self) -> None:
        self.vc = VectorClock.zeros(self.n_nodes)
        self.has_read = [False] * self.n_nodes

    # ------------------------------------------------------------- helpers
    @property
    def is_read_only(self) -> bool:
        return not self.is_update

    def read_keys(self) -> Tuple[object, ...]:
        return tuple(self.read_set)

    def write_keys(self) -> Tuple[object, ...]:
        return tuple(self.write_set)

    def record_read(
        self,
        key: object,
        value: object,
        version_vc: VectorClock,
        writer: Optional[TransactionId],
        served_by: NodeId,
    ) -> None:
        """Add a key to the read-set (last read of a key wins)."""
        self.read_set[key] = ReadRecord(
            key=key,
            value=value,
            version_vc=version_vc,
            writer=writer,
            served_by=served_by,
        )

    def record_write(self, key: object, value: object) -> None:
        self.write_set[key] = value

    def merge_vc(self, other: VectorClock) -> None:
        """Entry-wise maximum merge of ``T.VC`` with a received clock."""
        self.vc = self.vc.merge(other)

    def mark_has_read(self, node: NodeId) -> None:
        self.has_read[node] = True

    def add_propagated(self, entries) -> None:
        for entry in entries:
            self.propagated_set.add(entry)

    # ------------------------------------------------------------- outcomes
    @property
    def committed(self) -> bool:
        return self.phase is TransactionPhase.EXTERNALLY_COMMITTED

    @property
    def aborted(self) -> bool:
        return self.phase is TransactionPhase.ABORTED

    def latency(self) -> Optional[float]:
        """Begin-to-external-commit latency, if the transaction committed."""
        if self.external_commit_time is None:
            return None
        return self.external_commit_time - self.begin_time

    def internal_latency(self) -> Optional[float]:
        """Begin-to-internal-commit latency (update transactions only)."""
        if self.internal_commit_time is None:
            return None
        return self.internal_commit_time - self.begin_time

    def precommit_wait(self) -> Optional[float]:
        """Time spent between internal and external commit (Figure 5)."""
        if self.internal_commit_time is None or self.external_commit_time is None:
            return None
        return self.external_commit_time - self.internal_commit_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "U" if self.is_update else "RO"
        return f"<Txn {self.txn_id} {kind} {self.phase.value}>"


class TransactionOutcome:
    """What a finished transaction leaves at its coordinator.

    Its :class:`TransactionMeta` — read and write sets, ``hasRead``, clocks —
    is released when it finishes; status replies and external-commit
    notifications about it need only this.  The commit clock and the
    propagated entries are kept for a transaction that passed its vote round
    (``internal_commit_time`` set), the only one whose status reply
    carries them.
    """

    __slots__ = (
        "phase",
        "internal_commit_time",
        "external_commit_time",
        "commit_vc",
        "propagated_set",
    )

    def __init__(self, meta: TransactionMeta):
        self.phase = meta.phase
        self.internal_commit_time = meta.internal_commit_time
        self.external_commit_time = meta.external_commit_time
        decided = meta.internal_commit_time is not None
        self.commit_vc = meta.commit_vc if decided else None
        self.propagated_set = meta.propagated_set if decided and meta.propagated_set else ()
