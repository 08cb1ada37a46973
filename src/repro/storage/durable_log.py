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
them because their node declares them durable.  Fail-free runs never write
the log.

* :class:`PieceRedoLog` — ROCOCO's per-server piece log.  The piece payload
  is logged at dispatch, the assigned order before the execute-round reply,
  and execution advances a per-key **order frontier**: a recovered server
  refuses to execute any piece ordered below the frontier (order fencing),
  so a late fault-mode re-send of an earlier-ordered piece can never replay
  behind already-executed successors.

Executed piece records are retained for the rest of the run (they answer
fault-mode duplicate commits faithfully), like the other fault-recovery
indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.ids import TransactionId

NEG_INF = float("-inf")


# ----------------------------------------------------------------------
# ROCOCO: piece redo log with order fencing
# ----------------------------------------------------------------------
@dataclass
class PieceRecord:
    """One durable piece of one transaction on one key."""

    txn_id: TransactionId
    key: object
    is_write: bool
    write_value: object
    order: Optional[float] = None
    executed: bool = False
    reply: Optional[Tuple[object, int, Optional[TransactionId]]] = None
    """The (value, version, writer) the piece observed when it executed —
    the faithful answer for any later duplicate of its commit message."""


class PieceRedoLog:
    """Durable per-server log of dispatched ROCOCO pieces.

    ``log_dispatch`` is force-written before the dispatch reply,
    ``log_order`` before the execute-round reply, and ``log_execution``
    in the same step as the state mutation it records.  ``frontier(key)``
    is the highest executed order on the key — the order fence.
    """

    def __init__(self) -> None:
        self._by_key: Dict[object, Dict[TransactionId, PieceRecord]] = {}
        self._frontier: Dict[object, float] = {}

    # -- writes --------------------------------------------------------
    def log_dispatch(
        self,
        key: object,
        txn_id: TransactionId,
        is_write: bool,
        write_value: object,
    ) -> PieceRecord:
        """Persist the piece payload; idempotent for fault-mode re-sends."""
        records = self._by_key.setdefault(key, {})
        record = records.get(txn_id)
        if record is None:
            record = PieceRecord(
                txn_id=txn_id, key=key, is_write=is_write, write_value=write_value
            )
            records[txn_id] = record
        return record

    def log_order(
        self,
        key: object,
        txn_id: TransactionId,
        order: float,
        is_write: bool = False,
        write_value: object = None,
    ) -> PieceRecord:
        """Persist the assigned execution order (creating the record when the
        dispatch itself was lost and the commit payload recreated the piece)."""
        record = self.log_dispatch(key, txn_id, is_write, write_value)
        record.order = order
        return record

    def log_execution(
        self,
        key: object,
        txn_id: TransactionId,
        order: float,
        reply: Tuple[object, int, Optional[TransactionId]],
    ) -> None:
        """Mark the piece executed and advance the key's order frontier."""
        record = self.log_order(key, txn_id, order)
        record.executed = True
        record.reply = reply
        if order > self._frontier.get(key, NEG_INF):
            self._frontier[key] = order

    def discard(self, key: object, txn_id: TransactionId) -> None:
        """Drop a withdrawn (aborted-before-order) piece; idempotent."""
        records = self._by_key.get(key)
        if records is not None:
            records.pop(txn_id, None)

    # -- reads ---------------------------------------------------------
    def find(self, key: object, txn_id: TransactionId) -> Optional[PieceRecord]:
        records = self._by_key.get(key)
        if records is None:
            return None
        return records.get(txn_id)

    def frontier(self, key: object) -> float:
        """Highest executed order on ``key`` (``-inf`` before any execution)."""
        return self._frontier.get(key, NEG_INF)

    def unexecuted_records(self) -> List[PieceRecord]:
        """Logged-but-unexecuted pieces in deterministic replay order:
        keys sorted by repr, then ordered pieces by (order, txn_id), then
        unordered pieces by txn_id."""
        out: List[PieceRecord] = []
        for key in sorted(self._by_key, key=repr):
            records = [r for r in self._by_key[key].values() if not r.executed]
            ordered = sorted(
                (r for r in records if r.order is not None),
                key=lambda r: (r.order, r.txn_id),
            )
            unordered = sorted(
                (r for r in records if r.order is None), key=lambda r: r.txn_id
            )
            out.extend(ordered)
            out.extend(unordered)
        return out

    def __len__(self) -> int:
        return sum(len(records) for records in self._by_key.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PieceRedoLog keys={len(self._by_key)} records={len(self)}>"
