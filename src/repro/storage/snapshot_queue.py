"""The snapshot queue (``SQueue``) — the heart of SSS's external consistency.

Each key replicated by a node owns one :class:`SnapshotQueue`.  Entries are
``<transaction id, insertion-snapshot, kind>`` tuples where the
insertion-snapshot is the scalar value of the transaction's vector clock at
this node's index at insertion time, and kind is ``"R"`` (read-only
transaction, inserted at read time) or ``"W"`` (update transaction, inserted
when it starts its Pre-Commit phase, i.e. only once its commit decision has
been reached).

Following the implementation note in the paper's evaluation section, the
queue is physically split into a read-only part and an update part so that
read-side scans (which only care about pending writers) and write-side scans
(which only care about older readers) stay short under read-dominated
workloads.

The queue owns a :class:`~repro.sim.events.Signal` when constructed with a
simulation: every mutation notifies the signal, which is what wakes update
transactions waiting in their Pre-Commit phase (Algorithm 4's ``wait until``)
and read-only back-off logic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.ids import TransactionId

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation
    from repro.sim.events import Signal

READ_KIND = "R"
WRITE_KIND = "W"


@dataclass(frozen=True, slots=True)
class SQueueEntry:
    """One snapshot-queue entry ``<T.id, insertion-snapshot, kind>``.

    ``only_for`` scopes a *propagated* read-only entry to the update
    transaction that carried it along the anti-dependency chain: the entry
    then gates only that transaction's external commit.  A directly inserted
    entry (``only_for is None``) gates every conflicting writer.  The scoping
    matters because a propagated entry carries the reader's original
    insertion snapshot, taken at a different node: compared against an
    unrelated writer's snapshot it can claim a serialization order the
    reader's own reads contradict, and an unrelated writer blocked on such an
    entry can deadlock against the reader's external-commit dependency wait.
    """

    txn_id: TransactionId
    insertion_snapshot: int
    kind: str
    only_for: Optional[TransactionId] = None

    def is_read_only(self) -> bool:
        return self.kind == READ_KIND

    def is_update(self) -> bool:
        return self.kind == WRITE_KIND

    def gates(self, writer: Optional[TransactionId]) -> bool:
        """True if this entry gates ``writer``'s external commit."""
        return self.only_for is None or self.only_for == writer


class _Entries:
    """One kind's entries of a snapshot queue, ordered by insertion snapshot."""

    __slots__ = ("entries", "snaps", "ids", "txns")

    def __init__(self) -> None:
        self.entries: List[SQueueEntry] = []
        # The parallel sorted snapshot list for O(log n) positioning, the
        # (txn, carrier) identity set for O(1) duplicate suppression, and per
        # transaction the time its entry was queued, for O(1) membership
        # checks (Remove handling probes every key a reader may have
        # touched, and the common case is "not here").
        self.snaps: List[int] = []
        self.ids: Set[Tuple[TransactionId, Optional[TransactionId]]] = set()
        self.txns: Dict[TransactionId, float] = {}


#: The containers of every empty side, shared and never mutated: ``insert``
#: gives a side its own on the first entry, ``remove`` hands this back when
#: the last one leaves.
_EMPTY = _Entries()


class SnapshotQueue:
    """Ordered per-key queue of snapshot-queue entries.

    Each kind's containers exist only while the queue holds an entry of that
    kind: most keys' queues are empty most of the time, and a run touches
    every key of a large key space.  The queue itself and its signal stay,
    because waiting conditions are bound to the signal.
    """

    __slots__ = ("key", "_sim", "_signal", "_readers", "_writers")

    def __init__(self, key: object, sim: Optional["Simulation"] = None):
        self.key = key
        self._sim = sim
        self._signal: Optional["Signal"] = (
            sim.signal(name=f"squeue:{key}") if sim is not None else None
        )
        self._readers = self._writers = _EMPTY

    # ------------------------------------------------------------- mutation
    def insert(self, entry: SQueueEntry) -> None:
        """Insert ``entry`` keeping each sub-queue ordered by snapshot.

        Duplicate insertions of the same transaction with the same kind (and
        carrier scope) are ignored: they occur naturally when
        anti-dependencies are propagated to a key whose queue already holds
        the read-only transaction.
        """
        read_only = entry.is_read_only()
        side = self._readers if read_only else self._writers
        if side is _EMPTY:
            side = _Entries()
            if read_only:
                self._readers = side
            else:
                self._writers = side
        identity = (entry.txn_id, entry.only_for)
        if identity in side.ids:
            return
        side.ids.add(identity)
        side.txns.setdefault(entry.txn_id, self._sim.now if self._sim is not None else 0.0)
        index = bisect_right(side.snaps, entry.insertion_snapshot)
        side.snaps.insert(index, entry.insertion_snapshot)
        side.entries.insert(index, entry)
        self._notify()

    def remove(self, txn_id: TransactionId) -> bool:
        """Remove every entry of ``txn_id``; return True if anything removed."""
        removed = False
        for read_only in (True, False):
            side = self._readers if read_only else self._writers
            if txn_id not in side.txns:
                continue
            removed = True
            kept = [entry for entry in side.entries if entry.txn_id != txn_id]
            if not kept:
                if read_only:
                    self._readers = _EMPTY
                else:
                    self._writers = _EMPTY
                continue
            del side.txns[txn_id]
            for entry in side.entries:
                if entry.txn_id == txn_id:
                    side.ids.discard((entry.txn_id, entry.only_for))
            side.entries[:] = kept
            side.snaps[:] = [entry.insertion_snapshot for entry in kept]
        if removed:
            self._notify()
        return removed

    def clear(self) -> int:
        """Drop every entry (crash semantics); returns the count.

        No signal notification: pre-crash waiters belong to processes that
        die with the node (see the runtime's epoch guard), and post-restart
        insertions notify as usual.
        """
        dropped = len(self)
        self._readers = self._writers = _EMPTY
        return dropped

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._readers.entries) + len(self._writers.entries)

    def __contains__(self, txn_id: TransactionId) -> bool:
        return txn_id in self._readers.txns or txn_id in self._writers.txns

    def entries(self) -> Iterable[SQueueEntry]:
        """All entries, readers then writers (each ordered by snapshot)."""
        return self._readers.entries + self._writers.entries

    def readers(self) -> List[SQueueEntry]:
        return list(self._readers.entries)

    def writers(self) -> List[SQueueEntry]:
        return list(self._writers.entries)

    def has_reader_below(self, snapshot: int, for_txn=None) -> bool:
        """True if a read-only entry with insertion-snapshot < ``snapshot`` exists.

        This is the Algorithm 4 blocking condition described in the paper's
        prose: an update transaction may only externally commit once no such
        reader remains for any of its written keys.  ``for_txn`` identifies
        the asking writer so that propagated entries scoped to another
        transaction are ignored.
        """
        end = bisect_left(self._readers.snaps, snapshot)
        readers = self._readers.entries
        for index in range(end):
            if readers[index].gates(for_txn):
                return True
        return False

    def has_entry_below(self, snapshot: int, exclude_txn=None) -> bool:
        """True if *any* entry (reader or writer) has a smaller snapshot.

        This is the literal Algorithm 4 pattern ``<T'.id, T'.sid, −>`` (the
        kind is a wildcard): an update transaction also waits for conflicting
        update transactions with smaller insertion snapshots, so conflicting
        writers release their clients in serialization order.  ``exclude_txn``
        is the asking writer: its own entry never blocks it, and propagated
        reader entries scoped to a different carrier are ignored.
        """
        if self.has_reader_below(snapshot, for_txn=exclude_txn):
            return True
        end = bisect_left(self._writers.snaps, snapshot)
        writers = self._writers.entries
        for index in range(end):
            if writers[index].txn_id != exclude_txn:
                return True
        return False

    def has_writer(self, txn_id: TransactionId) -> bool:
        """True while ``txn_id``'s pre-commit entry is still queued here."""
        return txn_id in self._writers.txns

    def writers_above(self, snapshot: int) -> List[SQueueEntry]:
        """Update entries with insertion-snapshot > ``snapshot``.

        Introspection/test helper.  (The reader-side ExcludedSet is no
        longer derived from the queue alone: see
        ``SSSNode._excluded_vcs``, which walks the version chain and applies
        the externally-done set, coverage, and the done-watermark rule.)
        """
        writers = self._writers
        return writers.entries[bisect_right(writers.snaps, snapshot):]

    def oldest_writer_age(self, now: float) -> Optional[float]:
        """Age (in simulated time) of the oldest queued writer, if any.

        The starvation-avoidance back-off uses this to detect keys whose
        writers have been stuck behind readers for too long.
        """
        enqueued = self._writers.txns
        if not enqueued or self._sim is None:
            return None
        return now - min(enqueued.values())

    # -------------------------------------------------------------- signalling
    @property
    def signal(self) -> Optional["Signal"]:
        """Signal notified on every mutation (``None`` outside a simulation)."""
        return self._signal

    def _notify(self) -> None:
        if self._signal is not None:
            self._signal.notify()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SQueue {self.key!r} readers={len(self._readers.entries)} "
            f"writers={len(self._writers.entries)}>"
        )
