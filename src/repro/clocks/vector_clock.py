"""The vector clock value type.

A :class:`VectorClock` is an immutable tuple of non-negative integers, one
entry per node in the system.  The operations match the ones used by the SSS
pseudo-code:

* ``vc[i]`` — read entry *i* (``T.VC[i]``, ``NodeVC[i]``);
* :meth:`merge` — entry-wise maximum (``max(commitVC, VCj)``);
* :meth:`increment` — copy with entry *i* incremented (``NodeVC[i]++``);
* :meth:`with_entry` — copy with entry *i* replaced (the ``xactVN``
  assignment in Algorithm 1, lines 21–24);
* ``<=`` and ``<`` — the partial order defined in Section IV
  (``v1 <= v2`` iff every entry of ``v1`` is <= the corresponding entry of
  ``v2``; ``v1 < v2`` additionally requires strict inequality somewhere).

Immutability is deliberate: vector clocks are used as version identifiers and
dictionary keys by the storage layer, and sharing mutable clocks between the
coordinator and participants of a 2PC round would be a correctness hazard.

Sharing is what makes immutability cheap: clocks produced by the internal
constructors are *interned* in a pool keyed by their entry tuple, so the
same logical clock — a commit clock merged at every replica, a node clock
echoed in every vote — is one object cluster-wide.  Interned clocks make the
identity fast paths of ``merge`` and ``__eq__`` hit on the dominant
no-change case, and their cached hash is computed once per *value*
instead of once per copy.  The pool holds its clocks by weak reference: a
clock is shared while something else holds it and released with its last
holder, so the pool follows the clocks a run keeps, not the ones it made.
"""

from __future__ import annotations

from operator import ge as _ge, le as _le
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple
from weakref import WeakValueDictionary


class VectorClock:
    """Immutable fixed-width vector clock with copy-on-write sharing.

    The protocol hot path merges and compares clocks on every read, prepare
    and decide, so the operations avoid Python-level loops and redundant
    allocations: ``merge`` runs on C-level ``map(max, ...)`` and returns an
    existing operand when it already dominates (copy-on-write: a clock is
    only materialized when its value actually changes), the partial-order
    comparisons short-circuit through ``all(map(op, ...))``, the hash is
    computed once and cached, and internal results go through the interning
    pool (:meth:`_shared`), so equal clocks are usually the *same* object and
    downstream identity checks short-circuit.
    """

    __slots__ = ("_entries", "_hash", "__weakref__")

    # Interning pool: entry tuple -> canonical live instance (identity is an
    # optimization — equality semantics never depend on it).
    _pool: "WeakValueDictionary[Tuple[int, ...], VectorClock]" = WeakValueDictionary()
    _zeros: Dict[int, "VectorClock"] = {}

    def __init__(self, entries: Iterable[int]):
        entries_tuple: Tuple[int, ...] = tuple(int(entry) for entry in entries)
        if any(entry < 0 for entry in entries_tuple):
            raise ValueError(f"vector clock entries must be >= 0: {entries_tuple}")
        self._entries = entries_tuple
        self._hash: Optional[int] = None

    # ------------------------------------------------------------ constructors
    @classmethod
    def _wrap(cls, entries_tuple: Tuple[int, ...]) -> "VectorClock":
        """Wrap an already-validated entry tuple without re-checking it."""
        clock = object.__new__(cls)
        clock._entries = entries_tuple
        clock._hash = None
        return clock

    @classmethod
    def _shared(cls, entries_tuple: Tuple[int, ...]) -> "VectorClock":
        """Canonical interned instance for an already-validated entry tuple."""
        pool = cls._pool
        clock = pool.get(entries_tuple)
        if clock is None:
            clock = cls._wrap(entries_tuple)
            pool[entries_tuple] = clock
        return clock

    @classmethod
    def intern(cls, clock: "VectorClock") -> "VectorClock":
        """Return the canonical shared instance equal to ``clock``."""
        pool = cls._pool
        canonical = pool.get(clock._entries)
        if canonical is None:
            pool[clock._entries] = clock
            return clock
        return canonical

    @classmethod
    def zeros(cls, size: int) -> "VectorClock":
        """The all-zero clock of width ``size`` (one shared instance each)."""
        clock = cls._zeros.get(size)
        if clock is None:
            if size < 1:
                raise ValueError("vector clock size must be >= 1")
            clock = cls._zeros[size] = cls._shared((0,) * size)
        return clock

    # ------------------------------------------------------------ accessors
    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[int, ...]:
        return self._entries

    def __getitem__(self, index: int) -> int:
        return self._entries[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------ operations
    def merge(self, other: "VectorClock") -> "VectorClock":
        """Entry-wise maximum of the two clocks.

        Returns the dominating operand unchanged when one already covers the
        other — merges against an up-to-date clock are the common case on
        the read path and allocate nothing.
        """
        if self is other:
            return self
        a = self._entries
        b = other._entries if isinstance(other, VectorClock) else None
        if b is None or len(a) != len(b):
            self._check_compatible(other)
        if a is b:
            return self
        merged = tuple(map(max, a, b))
        if merged == a:
            return self
        if merged == b:
            return other
        return VectorClock._shared(merged)

    def merge_many(self, others: Iterable["VectorClock"]) -> "VectorClock":
        """Entry-wise maximum of this clock and every clock in ``others``.

        Batch form of :meth:`merge`: one C-level ``map(max, ...)`` pass over
        all operands instead of one intermediate clock per pairwise merge.
        This is the vote-collection / node-VC update pattern — a coordinator
        folding a wave of proposed commit clocks, a participant advancing its
        node clock past a decision — where the pairwise chain would allocate
        ``k - 1`` throwaway tuples.
        """
        first = self._entries
        width = len(first)
        clocks = []
        operand_entries = [first]
        for other in others:
            entries = other._entries if isinstance(other, VectorClock) else None
            if entries is None or len(entries) != width:
                self._check_compatible(other)
            clocks.append(other)
            operand_entries.append(entries)
        if not clocks:
            return self
        # map(max) tolerates duplicate operands, so no dedup pass is needed.
        merged = tuple(map(max, *operand_entries))
        if merged == first:
            return self
        for other in clocks:
            if merged == other._entries:
                return other
        return VectorClock._shared(merged)

    def increment(self, index: int, amount: int = 1) -> "VectorClock":
        """Copy of this clock with ``entries[index] += amount``."""
        if not 0 <= index < len(self._entries):
            raise IndexError(f"entry {index} out of range for size {self.size}")
        entries = list(self._entries)
        entries[index] += amount
        return VectorClock._shared(tuple(entries))

    def with_entry(self, index: int, value: int) -> "VectorClock":
        """Copy of this clock with ``entries[index] = value``."""
        if not 0 <= index < len(self._entries):
            raise IndexError(f"entry {index} out of range for size {self.size}")
        value = int(value)
        if value < 0:
            raise ValueError(f"vector clock entries must be >= 0: {value}")
        if self._entries[index] == value:
            return self
        entries = list(self._entries)
        entries[index] = value
        return VectorClock._shared(tuple(entries))

    def with_entries(self, indices: Sequence[int], value: int) -> "VectorClock":
        """Copy with every entry in ``indices`` set to ``value``.

        This is the Algorithm 1 step that sets all write-replica entries to
        the transaction version number ``xactVN``.
        """
        value = int(value)
        if value < 0:
            raise ValueError(f"vector clock entries must be >= 0: {value}")
        entries = list(self._entries)
        for index in indices:
            if not 0 <= index < len(entries):
                raise IndexError(f"entry {index} out of range for size {self.size}")
            entries[index] = value
        entries_tuple = tuple(entries)
        if entries_tuple == self._entries:
            return self
        return VectorClock._shared(entries_tuple)

    def max_over(self, indices: Sequence[int]) -> int:
        """Maximum of the entries selected by ``indices`` (``xactVN``)."""
        if not indices:
            raise ValueError("max_over requires at least one index")
        return max(self._entries[index] for index in indices)

    # ------------------------------------------------------------ comparisons
    def _check_compatible(self, other: "VectorClock") -> None:
        if not isinstance(other, VectorClock):
            raise TypeError(f"expected VectorClock, got {type(other).__name__}")
        if other.size != self.size:
            raise ValueError(f"vector clock size mismatch: {self.size} vs {other.size}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, VectorClock) and self._entries == other._entries

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._entries)
            self._hash = cached
        return cached

    def __le__(self, other: "VectorClock") -> bool:
        self._check_compatible(other)
        if self is other:
            return True
        return all(map(_le, self._entries, other._entries))

    def __lt__(self, other: "VectorClock") -> bool:
        return self <= other and self._entries != other._entries

    def __ge__(self, other: "VectorClock") -> bool:
        self._check_compatible(other)
        if self is other:
            return True
        return all(map(_ge, self._entries, other._entries))

    def __gt__(self, other: "VectorClock") -> bool:
        return self >= other and self._entries != other._entries

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True when neither clock is <= the other."""
        return not (self <= other) and not (other <= self)

    # ------------------------------------------------------------ display
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VC{list(self._entries)}"
