"""The per-node commit log (``NLog``).

When an update transaction completes its internal commit at node *i*, its
commit vector clock is appended to the node's ``NLog`` and its written keys
become accessible to other transactions.  ``NLog.most_recent_vc`` is the
vector clock of the latest internally committed transaction, which is what a
starting transaction snapshots and what read requests wait on (Algorithm 6,
line 5: ``wait until NLog.mostRecentVC[i] >= T.VC[i]``).

Visible-snapshot queries
------------------------
Algorithm 6 computes ``VisibleSet`` as the set of NLog vector clocks visible
to the reader and then takes the entry-wise maximum.  Scanning the whole log
for every read is O(committed transactions) and would dominate runtime in a
long simulation, so :class:`NLog` offers two query modes:

* **strict** — the literal scan over all retained entries (used by the
  correctness-focused tests and available via ``strict=True``);
* **summary** (default) — an incremental computation: for nodes the
  reader has not read from, the visible maximum is the cumulative maximum
  over all entries; for nodes it has read from, the maximum is capped by
  the reader's own visibility bound ``T.VC[w]``.  The result never exceeds
  the reader's bounds.  It is *not* the strict scan's answer: on the
  long-reader recipe of ROADMAP direction 1 the summary's bound was above
  the scan's on some coordinate in 1 276 of 5 097 calls (below it on 8),
  and over that recipe's seeds 0–511 it commits 6.2 % more.  Whether it
  ever serves a different *version* than the scan is not measured.
  External consistency of the runs is machine-checked on the recorded
  histories (:mod:`repro.consistency`), not derived from this
  computation.  ROADMAP direction 10(a) is to prove the relation it does
  guarantee, or bound it to the scan's answer, and keep one mode.

The log is garbage collected to a bounded window; the cumulative maximum is
kept across truncations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import TransactionId

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation
    from repro.sim.events import Signal


@dataclass(frozen=True)
class NLogEntry:
    """One internally committed transaction recorded in the node log."""

    txn_id: TransactionId
    vc: VectorClock
    write_keys: tuple
    commit_time: float


class NLog:
    """Ordered log of commit vector clocks for one node."""

    def __init__(
        self,
        node_index: int,
        n_nodes: int,
        sim: Optional["Simulation"] = None,
        retention: int = 4_096,
    ):
        self.node_index = node_index
        self.n_nodes = n_nodes
        self.retention = retention
        self._entries: List[NLogEntry] = []
        #: Transaction id -> its retained entry.  Holds exactly the ids of
        #: ``_entries``; when an id is retained twice, the later entry.
        self._by_id: Dict[TransactionId, NLogEntry] = {}
        self._most_recent_vc = VectorClock.zeros(n_nodes)
        #: ``_most_recent_vc[node_index]``, read by every read request.
        self._local_value = 0
        self._cumulative_max = VectorClock.zeros(n_nodes)
        self._signal: Optional["Signal"] = (
            sim.signal(name=f"nlog:{node_index}") if sim is not None else None
        )
        self.total_appended = 0

    # ------------------------------------------------------------ mutation
    def append(self, entry: NLogEntry) -> None:
        """Record an internal commit and advance ``most_recent_vc``."""
        self._entries.append(entry)
        self.total_appended += 1
        self._most_recent_vc = entry.vc
        self._local_value = entry.vc[self.node_index]
        self._cumulative_max = self._cumulative_max.merge(entry.vc)
        self._by_id[entry.txn_id] = entry
        if self.retention and len(self._entries) > self.retention:
            overflow = len(self._entries) - self.retention
            for dropped in self._entries[:overflow]:
                # An id appended again since still has a retained entry.
                if self._by_id[dropped.txn_id] is dropped:
                    del self._by_id[dropped.txn_id]
            del self._entries[:overflow]
        if self._signal is not None:
            self._signal.notify()

    # ------------------------------------------------------------ accessors
    @property
    def most_recent_vc(self) -> VectorClock:
        """Vector clock of the latest internally committed transaction."""
        return self._most_recent_vc

    @property
    def cumulative_max_vc(self) -> VectorClock:
        """Entry-wise maximum over every entry ever appended."""
        return self._cumulative_max

    @property
    def signal(self) -> Optional["Signal"]:
        """Signal notified on every append (read requests wait on it)."""
        return self._signal

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Sequence[NLogEntry]:
        return tuple(self._entries)

    def local_value(self) -> int:
        """``most_recent_vc[i]`` for this node's own index."""
        return self._local_value

    # ------------------------------------------------------------ queries
    def visible_max_vc(
        self,
        reader_vc: VectorClock,
        read: int,
        excluded: Iterable[VectorClock] = (),
        strict: bool = False,
    ) -> VectorClock:
        """Entry-wise maximum vector clock visible to a reader.

        Parameters
        ----------
        reader_vc:
            The reader's current ``T.VC`` (its visibility upper bound).
        read:
            The :meth:`VectorClock.selector` of the reader's ``T.hasRead``
            flags; visibility is constrained only on indices already read
            from.
        excluded:
            Commit vector clocks of update transactions the reader must not
            observe (Algorithm 6's ``ExcludedSet``: pre-committing writers of
            the requested key with insertion-snapshot above the reader's
            bound).
        strict:
            Use the literal whole-log scan instead of the summary
            computation.
        """
        if strict:
            return self._visible_max_strict(reader_vc, read, set(excluded))
        return self._visible_max_summary(reader_vc, read, list(excluded))

    def _visible_max_strict(
        self, reader_vc: VectorClock, read: int, excluded: Set[VectorClock]
    ) -> VectorClock:
        visible_vcs = [
            entry.vc
            for entry in self._entries
            if entry.vc not in excluded and entry.vc.le_on(reader_vc, read)
        ]
        return VectorClock.zeros(self.n_nodes).merge_many(visible_vcs)

    def _visible_max_summary(
        self, reader_vc: VectorClock, read: int, excluded: List[VectorClock]
    ) -> VectorClock:
        cumulative = self._cumulative_max
        if not excluded and not read:
            # First read of a transaction: the visible maximum is simply the
            # cumulative maximum (no bounds to apply, nothing excluded).
            return cumulative
        visible = cumulative.clamp(reader_vc, read)
        if not excluded:
            return visible
        # Stay below every excluded writer on this node's own coordinate so
        # that the reader's insertion-snapshot orders it before those writers.
        local = self.node_index
        bound = reader_vc[local]
        value = visible[local]
        for vc in excluded:
            own = vc[local]
            if own > bound and value >= own:
                value = own - 1
        return visible.with_entry(local, value)

    def find(self, txn_id: TransactionId) -> Optional[NLogEntry]:
        """Retained entry of ``txn_id``, or ``None`` (fault-plane recovery)."""
        return self._by_id.get(txn_id)
