"""The per-node commit queue (``CommitQ``) and the participant redo log.

``CommitQ`` serializes the *apply* step of internally committing update
transactions on each node: entries are ordered by the node-local component of
their commit vector clock, a transaction's versions are installed only when
it reaches the head of the queue with a ``ready`` status, and non-conflicting
transactions therefore commit in the same relative order on every node they
share (Section III-A).

An entry is inserted as ``pending`` during the 2PC prepare phase carrying the
proposed vector clock; the Decide message upgrades it to ``ready`` with the
final commit vector clock, which may move the entry within the queue.

The commit queue itself is volatile (a crash drops it), which historically
opened the classic 2PC in-doubt window on the SSS side: a write replica that
crashed after voting lost its queue entry and pending writes, and the
coordinator's ``PrecommitQuery`` recovery missed because nothing durable
recorded the vote.  The :class:`RedoLog` closes that window — a write
replica force-writes its :class:`ParticipantRecord` before voting yes
(exactly like the 2PC-baseline's durable prepared state) and the restart
replay rebuilds the queue from it.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import TransactionId

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation
    from repro.sim.events import Signal


class CommitStatus(enum.Enum):
    PENDING = "pending"
    READY = "ready"


@dataclass
class CommitQueueEntry:
    """One queued transaction ``<T, vc, status>``."""

    txn_id: TransactionId
    vc: VectorClock
    status: CommitStatus = CommitStatus.PENDING
    enqueue_time: float = field(default=0.0)


class CommitQueue:
    """Ordered queue of transactions committing at one node.

    Entries are ordered by their node-local vector clock entry, ties by
    transaction id.  Three structures say so and move together in every
    mutation: ``_entries`` (the entries in queue order), ``_keys`` (entry
    ``k``'s ``(vc[node], id.node, id.seq)`` at position ``k`` — plain
    integer tuples, unique because ids are, so ``bisect`` finds an entry's
    position) and ``_by_id`` (transaction id to entry).
    """

    def __init__(self, node_index: int, sim: Optional["Simulation"] = None):
        self.node_index = node_index
        self._entries: List[CommitQueueEntry] = []
        self._keys: List[Tuple[int, int, int]] = []
        self._by_id: Dict[TransactionId, CommitQueueEntry] = {}
        self._signal: Optional["Signal"] = (
            sim.signal(name=f"commitq:{node_index}") if sim is not None else None
        )
        self._sim = sim

    # ------------------------------------------------------------ mutation
    def put(self, txn_id: TransactionId, vc: VectorClock) -> CommitQueueEntry:
        """Insert a ``pending`` entry with the proposed vector clock."""
        if txn_id in self._by_id:
            raise ValueError(f"{txn_id} already queued")
        entry = CommitQueueEntry(
            txn_id=txn_id,
            vc=vc,
            status=CommitStatus.PENDING,
            enqueue_time=self._sim.now if self._sim is not None else 0.0,
        )
        self._by_id[txn_id] = entry
        self._place(entry)
        self._notify()
        return entry

    def update(self, txn_id: TransactionId, vc: VectorClock) -> CommitQueueEntry:
        """Set the final commit vector clock and mark the entry ``ready``."""
        entry = self._by_id.get(txn_id)
        if entry is None:
            raise KeyError(f"{txn_id} not in commit queue")
        self._unplace(entry)
        entry.vc = vc
        entry.status = CommitStatus.READY
        self._place(entry)
        self._notify()
        return entry

    def remove(self, txn_id: TransactionId) -> bool:
        """Drop the entry of ``txn_id`` (commit applied, or abort)."""
        entry = self._by_id.pop(txn_id, None)
        if entry is None:
            return False
        self._unplace(entry)
        self._notify()
        return True

    # ------------------------------------------------------------- queries
    def find(self, txn_id: TransactionId) -> Optional[CommitQueueEntry]:
        return self._by_id.get(txn_id)

    def head(self) -> Optional[CommitQueueEntry]:
        """The entry with the smallest node-local vector clock entry."""
        return self._entries[0] if self._entries else None

    def head_is_ready(self) -> bool:
        head = self.head()
        return head is not None and head.status is CommitStatus.READY

    def min_pending_local(self) -> Optional[int]:
        """Smallest node-local clock entry among queued installs, if any."""
        return self._entries[0].vc[self.node_index] if self._entries else None

    def has_entry_at_or_below(self, value: int) -> bool:
        """True if some queued install has a node-local clock entry <= ``value``.

        Entries are sorted by the node-local component, and a pending entry's
        proposed clock can only grow when the Decide finalizes it, so checking
        the head is sufficient and the answer can only flip to False.  Readers
        use this to make sure every install inside their visibility bound has
        been applied: the NLog scalar alone is ambiguous because distinct
        transactions can carry the same node-local clock value (``xactVN`` is
        copied to every write-replica coordinate, colliding with values other
        prepares already claimed there).
        """
        head = self._entries[0] if self._entries else None
        return head is not None and head.vc[self.node_index] <= value

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[CommitQueueEntry]:
        return list(self._entries)

    def clear(self) -> int:
        """Drop every queued entry (crash semantics); returns the count.

        The signal is *not* notified: waiters parked before the crash belong
        to processes that die with the node, and the next real mutation
        after a restart notifies as usual.
        """
        dropped = len(self._entries)
        self._entries = []
        self._keys = []
        self._by_id = {}
        return dropped

    # ------------------------------------------------------------- internals
    def _key(self, entry: CommitQueueEntry) -> Tuple[int, int, int]:
        txn_id = entry.txn_id
        return (entry.vc[self.node_index], txn_id.node, txn_id.seq)

    def _place(self, entry: CommitQueueEntry) -> None:
        key = self._key(entry)
        position = bisect_left(self._keys, key)
        self._keys.insert(position, key)
        self._entries.insert(position, entry)

    def _unplace(self, entry: CommitQueueEntry) -> None:
        position = bisect_left(self._keys, self._key(entry))
        del self._keys[position]
        del self._entries[position]

    def _notify(self) -> None:
        if self._signal is not None:
            self._signal.notify()

    @property
    def signal(self) -> Optional["Signal"]:
        """Signal notified on every mutation (drives head processing)."""
        return self._signal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CommitQueue node={self.node_index} len={len(self._entries)}>"


# ----------------------------------------------------------------------
# Participant redo log
# ----------------------------------------------------------------------
@dataclass
class ParticipantRecord:
    """One yes-vote of a write replica, force-written before the vote leaves.

    It lives from the vote until the transaction aborts or internally
    commits — from then on the NLog entry is the durable truth and
    ``PrecommitQuery`` replays from it.  ``vc`` is the proposed clock until
    the decision replaces it with the commit clock, sets ``decided`` and
    hands over the reader entries to ``propagated``; ``write_items`` is the
    payload to install, ``read_keys`` the shared locks the vote holds.
    """

    txn_id: TransactionId
    read_keys: Tuple[object, ...]
    write_items: Tuple[Tuple[object, object], ...]
    vc: VectorClock
    decided: bool = False
    propagated: Tuple = ()


class RedoLog(dict):
    """Transaction id -> :class:`ParticipantRecord`: a write replica's votes.

    Durable (the same assumption the 2PC baseline makes for its prepared
    state), so it survives crashes and the restart rebuilds the commit queue
    from it.
    """

    def records(self) -> List[ParticipantRecord]:
        """The records in transaction-id order: the restart's replay order."""
        return [self[txn_id] for txn_id in sorted(self)]
