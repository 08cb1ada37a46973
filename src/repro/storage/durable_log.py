"""Durable per-node logs that hide an algorithm.

A protocol's plain durable records are dicts it declares durable (see
:class:`~repro.protocols.runtime.ProtocolRuntime`); the log here stays a
class because it owns more than a map, and follows the contract of every
durable record:

* **force-write before externalization** — a record is written *before* the
  reply/vote/propagation that makes the state externally observable, so a
  crash can never lose state another node has already acted on;
* **replay iteration** — after a restart the log enumerates its records in a
  deterministic order so recovery is reproducible;
* **idempotent discard** — records are dropped once their transaction's
  outcome no longer needs them, and dropping twice is harmless.

Like the rest of the fault plane, these logs model durability inside the
simulator: "force-written" means the record is mutated in the same simulation
step as the action it covers (no yield point in between), and a crash keeps
them because their node declares them durable.

* :class:`PieceRedoLog` — ROCOCO's per-server piece table, written on every
  run.  A piece is logged at dispatch and its assigned order before the
  execute-round reply; executing it replaces the record by the reply it
  observed and advances a per-key **order frontier**: a server refuses to
  execute any piece ordered below the frontier (order fencing), so a late
  re-send of an earlier-ordered piece can never replay behind
  already-executed successors.

The executed replies are retained for the rest of the run (they answer
duplicate commits faithfully), like the other fault-recovery indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.ids import TransactionId

NEG_INF = float("-inf")

#: What an executed piece observed: ``(value, version, writer)``.
PieceReply = Tuple[object, int, Optional[TransactionId]]


# ----------------------------------------------------------------------
# ROCOCO: piece table with order fencing
# ----------------------------------------------------------------------
@dataclass
class PieceRecord:
    """One durable, not yet executed piece of one transaction on one key."""

    txn_id: TransactionId
    key: object
    is_write: bool
    write_value: object
    order: Optional[float] = None


class PieceRedoLog:
    """Durable per-server table of ROCOCO pieces.

    Per key it holds the unexecuted pieces (:meth:`pending`, which the
    execution and read-only waits iterate) and the reply of every executed
    one (:meth:`reply`).  ``log_dispatch`` is force-written before the
    dispatch reply, ``log_order`` before the execute-round reply, and
    ``log_execution`` in the same step as the state mutation it records.
    ``frontier(key)`` is the highest executed order on the key — the order
    fence.
    """

    def __init__(self) -> None:
        self._pending: Dict[object, Dict[TransactionId, PieceRecord]] = {}
        self._replies: Dict[object, Dict[TransactionId, PieceReply]] = {}
        self._frontier: Dict[object, float] = {}

    # -- writes --------------------------------------------------------
    def log_dispatch(
        self,
        key: object,
        txn_id: TransactionId,
        is_write: bool,
        write_value: object,
    ) -> Optional[PieceRecord]:
        """Persist the piece payload, unless the piece is known: a re-sent
        dispatch keeps the record (or the reply) it finds.  Returns the
        unexecuted record, ``None`` once the piece executed."""
        if txn_id in self._replies.get(key, ()):
            return None
        pending = self.pending(key)
        record = pending.get(txn_id)
        if record is None:
            record = pending[txn_id] = PieceRecord(txn_id, key, is_write, write_value)
        return record

    def log_order(
        self,
        key: object,
        txn_id: TransactionId,
        order: float,
        is_write: bool = False,
        write_value: object = None,
    ) -> PieceRecord:
        """Persist the assigned execution order of an unexecuted piece
        (creating the record from the commit's payload if it is missing)."""
        record = self.log_dispatch(key, txn_id, is_write, write_value)
        record.order = order
        return record

    def log_execution(self, record: PieceRecord, reply: PieceReply) -> None:
        """Replace the executed piece by its reply and advance the key's
        order frontier."""
        key = record.key
        self._pending[key].pop(record.txn_id, None)
        self._replies.setdefault(key, {})[record.txn_id] = reply
        if record.order > self._frontier.get(key, NEG_INF):
            self._frontier[key] = record.order

    def withdraw(self, key: object, txn_id: TransactionId) -> bool:
        """Drop a piece that never received an order; idempotent.  An
        ordered piece stays: its transaction's outcome is decided and it
        must execute.  Returns whether a piece was dropped."""
        pending = self._pending.get(key)
        record = pending.get(txn_id) if pending is not None else None
        if record is None or record.order is not None:
            return False
        del pending[txn_id]
        return True

    # -- reads ---------------------------------------------------------
    def pending(self, key: object) -> Dict[TransactionId, PieceRecord]:
        """The unexecuted pieces on ``key`` in arrival order (a live view)."""
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = {}
        return pending

    def reply(self, key: object, txn_id: TransactionId) -> Optional[PieceReply]:
        """What the piece observed when it executed, ``None`` before."""
        replies = self._replies.get(key)
        return replies.get(txn_id) if replies is not None else None

    def frontier(self, key: object) -> float:
        """Highest executed order on ``key`` (``-inf`` before any execution)."""
        return self._frontier.get(key, NEG_INF)

    def replay_order(self) -> List[PieceRecord]:
        """The ordered, unexecuted pieces in deterministic replay order:
        keys sorted by repr, then pieces by (order, txn_id)."""
        out: List[PieceRecord] = []
        for key in sorted(self._pending, key=repr):
            out.extend(
                sorted(
                    (r for r in self._pending[key].values() if r.order is not None),
                    key=lambda r: (r.order, r.txn_id),
                )
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pending = sum(len(records) for records in self._pending.values())
        return f"<PieceRedoLog keys={len(self._pending)} pending={pending}>"
