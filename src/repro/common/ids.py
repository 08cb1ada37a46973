"""Identifier types for nodes, transactions and clients.

Identifiers are deliberately simple value objects (ints and small frozen
dataclasses) so that they hash quickly, sort deterministically and print in a
readable form in traces and test failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NodeId = int
"""Nodes are identified by their dense index ``0 .. n_nodes - 1``.

Using the dense index directly means a node identifier doubles as the index
of that node's entry inside every vector clock, which is how the paper's
pseudo-code (``T.VC[i]``, ``NodeVC[i]``) addresses vector entries.
"""


class TransactionId:
    """Globally unique transaction identifier.

    The identifier is a pair ``(node, seq)``: the node where the transaction
    was started (its coordinator) and a per-node monotonically increasing
    sequence number.  The pair is unique without any coordination between
    nodes, which mirrors how a real deployment would generate identifiers.

    Implemented as a slotted value class with a precomputed hash rather than
    a frozen dataclass: transaction ids key nearly every hot dictionary and
    set in the protocol (snapshot queues, lock tables, pending maps), and the
    dataclass-generated ``__hash__`` rebuilt a tuple on every lookup.
    """

    __slots__ = ("node", "seq", "_hash")

    def __init__(self, node: NodeId, seq: int):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "_hash", hash((node, seq)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("TransactionId is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, TransactionId)
            and self.node == other.node
            and self.seq == other.seq
        )

    def __lt__(self, other: "TransactionId") -> bool:
        return (self.node, self.seq) < (other.node, other.seq)

    def __le__(self, other: "TransactionId") -> bool:
        return (self.node, self.seq) <= (other.node, other.seq)

    def __gt__(self, other: "TransactionId") -> bool:
        return (self.node, self.seq) > (other.node, other.seq)

    def __ge__(self, other: "TransactionId") -> bool:
        return (self.node, self.seq) >= (other.node, other.seq)

    def __reduce__(self):
        return (TransactionId, (self.node, self.seq))

    def __repr__(self) -> str:
        return f"TransactionId(node={self.node}, seq={self.seq})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"T{self.node}.{self.seq}"


@dataclass
class TxnIdGenerator:
    """Per-node factory of :class:`TransactionId` values."""

    node: NodeId
    _next_seq: int = field(default=0)

    def next_id(self) -> TransactionId:
        """Return a fresh identifier for a transaction coordinated by ``node``."""
        txn_id = TransactionId(self.node, self._next_seq)
        self._next_seq += 1
        return txn_id
