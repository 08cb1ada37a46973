"""Recording of executed transaction histories.

The recorder receives every committed (and aborted) transaction from the
protocol nodes and normalizes the information the consistency checkers need:

* which version each read observed — identified by the writer transaction
  that produced it (``None`` for the preloaded initial version);
* which keys the transaction wrote;
* when the transaction externally committed (the instant its client was
  informed), which defines the *completion order* that external consistency
  must not contradict.

Aborted transactions are retained only for statistics; they never appear in
the serialization graph (an aborted transaction's writes are never visible in
any of the protocols implemented here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.common.ids import TransactionId

if TYPE_CHECKING:  # pragma: no cover - avoid a circular import at runtime
    from repro.core.metadata import TransactionMeta


@dataclass(frozen=True)
class ReadObservation:
    """One read: the key and the identity of the version observed."""

    key: object
    writer: Optional[TransactionId]
    version_local_value: int = 0
    """The version's vector-clock entry at the serving node (diagnostics)."""


@dataclass(frozen=True)
class CommittedTransaction:
    """Normalized record of one committed transaction."""

    txn_id: TransactionId
    coordinator: int
    is_update: bool
    reads: Tuple[ReadObservation, ...]
    writes: Tuple[object, ...]
    begin_time: float
    external_commit_time: float
    write_version_hints: Tuple[Tuple[object, float], ...] = ()
    """Per written key, a protocol-provided value sorting this transaction's
    version against other writers of the same key (installation order)."""

    @property
    def is_read_only(self) -> bool:
        return not self.is_update

    def version_hint(self, key: object):
        for hint_key, hint in self.write_version_hints:
            if hint_key == key:
                return hint
        return None


@dataclass
class AbortedTransaction:
    """Record of an aborted transaction (statistics only)."""

    txn_id: TransactionId
    coordinator: int
    is_update: bool
    reason: Optional[str]
    abort_time: float


def committed_from_meta(meta: "TransactionMeta") -> CommittedTransaction:
    """Normalize a committed :class:`TransactionMeta` into the checker record.

    Shared by the post-hoc :class:`HistoryRecorder` and the windowed
    :class:`~repro.consistency.window.WindowedHistoryRecorder`, so both
    paths see byte-identical transaction records.
    """
    reads = tuple(
        ReadObservation(
            key=record.key,
            writer=record.writer,
            version_local_value=record.version_vc[record.served_by]
            if record.served_by < record.version_vc.size
            else 0,
        )
        for record in meta.read_set.values()
    )
    return CommittedTransaction(
        txn_id=meta.txn_id,
        coordinator=meta.coordinator,
        is_update=meta.is_update,
        reads=reads,
        writes=tuple(meta.write_set),
        begin_time=meta.begin_time,
        external_commit_time=meta.external_commit_time
        if meta.external_commit_time is not None
        else meta.begin_time,
        write_version_hints=tuple(meta.version_hints.items()),
    )


def aborted_from_meta(meta: "TransactionMeta") -> AbortedTransaction:
    """Normalize an aborted :class:`TransactionMeta` (statistics only)."""
    return AbortedTransaction(
        txn_id=meta.txn_id,
        coordinator=meta.coordinator,
        is_update=meta.is_update,
        reason=meta.abort_reason,
        abort_time=meta.abort_time if meta.abort_time is not None else 0.0,
    )


@dataclass
class HistoryRecorder:
    """Collects the history of one experiment or test run.

    Every record carries the *engine tag* of the event that produced it
    (``committed_tags`` / ``aborted_tags``, parallel to the record lists):
    engine keys are unique and totally ordered across the shards of a
    node-sharded run, so :meth:`merge` puts the recorders of any number of
    shards back into the one order a single recorder observing every node
    appends in.  ``tags`` issues them (an
    :class:`~repro.sim.shard.EngineTagSequencer`); the cluster facade binds
    it to its engine, and it does not travel with a pickled recorder.
    """

    committed: List[CommittedTransaction] = field(default_factory=list)
    aborted: List[AbortedTransaction] = field(default_factory=list)
    enabled: bool = True
    committed_tags: List[Tuple[float, int, int]] = field(default_factory=list)
    aborted_tags: List[Tuple[float, int, int]] = field(default_factory=list)
    tags: Optional[object] = field(default=None, repr=False, compare=False)
    external_consistency_memo: Optional[Tuple[int, object]] = field(
        default=None, repr=False, compare=False
    )
    """``(len(committed), verdict)`` of the last external-consistency check.
    Records are only ever appended, so the verdict stands exactly as long as
    the length does: the next recorded commit outdates it, :meth:`clear`
    drops it, and a recorder built by :meth:`merge` starts without one."""

    def __getstate__(self):
        # The sequencer reads a live engine; the records travel without it.
        return {**self.__dict__, "tags": None}

    # ------------------------------------------------------------------
    def record_commit(self, meta: "TransactionMeta") -> None:
        """Record the external commit of ``meta``."""
        if not self.enabled:
            return
        self.committed.append(committed_from_meta(meta))
        self.committed_tags.append(self.tags.next_tag())

    def record_abort(self, meta: "TransactionMeta") -> None:
        if not self.enabled:
            return
        self.aborted.append(aborted_from_meta(meta))
        self.aborted_tags.append(self.tags.next_tag())

    @classmethod
    def merge(cls, parts: Sequence["HistoryRecorder"]) -> "HistoryRecorder":
        """One recorder holding every part's records, in engine-tag order.

        Tags rise within a part, so merging a single part is the identity.
        """
        committed = sorted(
            (pair for part in parts for pair in zip(part.committed_tags, part.committed)),
            key=itemgetter(0),
        )
        aborted = sorted(
            (pair for part in parts for pair in zip(part.aborted_tags, part.aborted)),
            key=itemgetter(0),
        )
        return cls(
            committed=[record for _tag, record in committed],
            aborted=[record for _tag, record in aborted],
            committed_tags=[tag for tag, _record in committed],
            aborted_tags=[tag for tag, _record in aborted],
        )

    # ------------------------------------------------------------------
    @property
    def committed_updates(self) -> List[CommittedTransaction]:
        return [txn for txn in self.committed if txn.is_update]

    @property
    def committed_read_only(self) -> List[CommittedTransaction]:
        return [txn for txn in self.committed if txn.is_read_only]

    def abort_rate(self) -> float:
        """Aborts over attempts (committed + aborted)."""
        attempts = len(self.committed) + len(self.aborted)
        if attempts == 0:
            return 0.0
        return len(self.aborted) / attempts

    def by_id(self) -> Dict[TransactionId, CommittedTransaction]:
        return {txn.txn_id: txn for txn in self.committed}

    def completion_order(self) -> List[CommittedTransaction]:
        """Committed transactions sorted by client-visible completion time."""
        return sorted(self.committed, key=lambda txn: txn.external_commit_time)

    def clear(self) -> None:
        self.committed.clear()
        self.aborted.clear()
        self.committed_tags.clear()
        self.aborted_tags.clear()
        self.external_consistency_memo = None
