"""The vector clock value type.

A :class:`VectorClock` is an immutable vector of non-negative integers, one
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

Bit layout
----------
A clock is one Python ``int``.  Entry *i* occupies bits ``[32i, 32i + 31)``
and bit ``32i + 31`` is its *guard bit*, which is 0 in every stored clock.
Entries are therefore bounded by ``ENTRY_MAX = 2**31 - 1``; every
constructor, :meth:`increment`, :meth:`with_entry` and :meth:`with_entries`
raises ``ValueError`` rather than let an entry reach ``2**31`` and carry into
its neighbour.  The guard bits make the whole vector one SIMD-within-a-
register word (Lamport, "Multiple byte processing with full-word
instructions", CACM 18(8), 1975): with ``H`` the guard bits of the width,
``((a | H) - b) & H`` has the guard bit of field *i* set exactly when
``a[i] >= b[i]`` — each field borrows at most from its own guard — so a
merge, a partial-order test or a masked clamp costs a fixed number of
C-level big-int operations however wide the clock is, instead of one
Python-level step per entry.

There is no interning pool.  Equality and hashing are a comparison and a
hash of one ``int``, so two equal clocks are interchangeable whether or not
they are the same object; :meth:`merge` still returns an operand unchanged
when it already covers the other (copy-on-write), which is the common case
on the read path.  Only the all-zero clock of each width is kept shared
(:meth:`zeros`).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

#: Largest value an entry may hold: 31 value bits under the guard bit.
ENTRY_MAX = (1 << 31) - 1

#: ``_GUARDS[w]`` is the guard bits of a width-``w`` clock.  The public
#: constructors extend it (:func:`_register`), so operations index it directly.
_GUARDS: List[int] = [0]

_new = object.__new__


def _register(width: int) -> None:
    """Make ``_GUARDS[width]`` available."""
    while len(_GUARDS) <= width:
        _GUARDS.append(_GUARDS[-1] | 1 << ((len(_GUARDS) << 5) - 1))


def _make(bits: int, size: int) -> "VectorClock":
    """Wrap already-checked packed ``bits`` of width ``size`` (``merge`` and
    ``increment`` inline it: they are hot enough that the call shows)."""
    clock = _new(VectorClock)
    clock._bits = bits
    clock.size = size
    return clock


def _check_entry(value: int) -> int:
    value = int(value)
    if not 0 <= value <= ENTRY_MAX:
        raise ValueError(f"vector clock entries must lie in [0, {ENTRY_MAX}]: {value}")
    return value


class VectorClock:
    """Immutable fixed-width vector clock packed into one integer.

    ``size`` is the width (read-only by convention, like the clock itself).
    The hot operations — :meth:`merge`, :meth:`merge_many`, the comparisons,
    ``==`` and ``hash`` — are a fixed number of C-level big-int operations
    each; see the module docstring for the layout.  An operand of another
    type or width raises ``TypeError`` or ``ValueError``; the check reads
    ``__class__`` rather than calling ``isinstance`` (there are no
    subclasses), so it costs no call.
    """

    __slots__ = ("_bits", "size")

    _zeros: Dict[int, "VectorClock"] = {}

    def __init__(self, entries: Iterable[int]):
        values = tuple(map(_check_entry, entries))
        _register(len(values))
        self.size = size = len(values)
        self._bits = int.from_bytes(struct.pack(f"<{size}I", *values), "little")

    # ------------------------------------------------------------ constructors
    @classmethod
    def zeros(cls, size: int) -> "VectorClock":
        """The all-zero clock of width ``size`` (one shared instance each)."""
        clock = cls._zeros.get(size)
        if clock is None:
            if size < 1:
                raise ValueError("vector clock size must be >= 1")
            _register(size)
            clock = cls._zeros[size] = _make(0, size)
        return clock

    # ------------------------------------------------------------ accessors
    @property
    def entries(self) -> Tuple[int, ...]:
        size = self.size
        return struct.unpack(f"<{size}I", self._bits.to_bytes(size << 2, "little"))

    def __getitem__(self, index: int) -> int:
        if 0 <= index < self.size:
            return self._bits >> (index << 5) & 0x7FFFFFFF  # ENTRY_MAX
        raise IndexError(f"entry {index} out of range for size {self.size}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------ operations
    def merge(self, other: "VectorClock") -> "VectorClock":
        """Entry-wise maximum of the two clocks.

        Returns the dominating operand unchanged when one already covers the
        other — merges against an up-to-date clock are the common case on
        the read path and allocate nothing.
        """
        if self is other:
            return self
        size = self.size
        if other.__class__ is not VectorClock or other.size != size:
            self._reject(other)
        a = self._bits
        b = other._bits
        guards = _GUARDS[size]
        ge = ((a | guards) - b) & guards
        if ge == guards:
            return self
        # ``ge - (ge >> 31)`` turns each set guard bit into its field's 31
        # value bits: take ``a`` there and ``b`` everywhere else.
        bits = b ^ ((a ^ b) & (ge - (ge >> 31)))
        if bits == b:
            return other
        clock = _new(VectorClock)
        clock._bits = bits
        clock.size = size
        return clock

    def merge_many(self, others: Iterable["VectorClock"]) -> "VectorClock":
        """Entry-wise maximum of this clock and every clock in ``others``.

        Batch form of :meth:`merge`, the vote-collection / node-VC update
        pattern: the operands are folded into one running ``int`` and only
        the result is wrapped, so ``k`` operands cost ``k`` fixed-size steps
        and at most one allocation.  Returns this clock or an operand when
        one of them is already the maximum.
        """
        size = self.size
        first = bits = self._bits
        guards = _GUARDS[size]
        operands = []
        for other in others:
            if other.__class__ is not VectorClock or other.size != size:
                self._reject(other)
            b = other._bits
            operands.append(other)
            ge = ((bits | guards) - b) & guards
            if ge != guards:
                bits = b ^ ((bits ^ b) & (ge - (ge >> 31)))
        if bits == first:
            return self
        for other in operands:
            if other._bits == bits:
                return other
        return _make(bits, size)

    @staticmethod
    def selector(flags: Sequence[bool]) -> int:
        """Selector of the entries whose flag is set, for :meth:`le_on` and
        :meth:`clamp` (the guard bits of those fields).

        Walks only the set flags (``count`` and ``index`` scan in C), so a
        transaction that has read from a few of many nodes pays for those few.
        """
        guards, index = 0, -1
        for _ in range(flags.count(True)):
            index = flags.index(True, index + 1)
            guards |= 1 << (index << 5 | 31)
        return guards

    def clamp(self, bound: "VectorClock", selector: int) -> "VectorClock":
        """Copy with every entry *i* in ``selector`` lowered to ``bound[i]``.

        The entry-wise minimum restricted to the selected entries — the
        ``hasRead`` cap of the visible-snapshot query.  Returns this clock
        when no selected entry lies above its bound.
        """
        size = self.size
        if bound.__class__ is not VectorClock or bound.size != size:
            self._reject(bound)
        a = self._bits
        b = bound._bits
        # Guard bits of the selected fields where not b >= a, i.e. a > b.
        above = (((b | _GUARDS[size]) - a) & selector) ^ selector
        if not above:
            return self
        return _make(a ^ ((a ^ b) & (above - (above >> 31))), size)

    def increment(self, index: int, amount: int = 1) -> "VectorClock":
        """Copy of this clock with ``entries[index] += amount``."""
        size = self.size
        if 0 <= index < size and 0 <= amount <= ENTRY_MAX:
            # Entry plus amount stays below 2**32: an overflow sets the
            # field's guard bit and carries no further.
            bits = self._bits + (amount << (index << 5))
            if not bits & _GUARDS[size]:
                clock = _new(VectorClock)
                clock._bits = bits
                clock.size = size
                return clock
        return self.with_entry(index, self[index] + amount)

    def with_entry(self, index: int, value: int) -> "VectorClock":
        """Copy of this clock with ``entries[index] = value``."""
        old = self[index]
        value = _check_entry(value)
        if value == old:
            return self
        return _make(self._bits + ((value - old) << (index << 5)), self.size)

    def with_entries(self, indices: Sequence[int], value: int) -> "VectorClock":
        """Copy with every entry in ``indices`` set to ``value``.

        This is the Algorithm 1 step that sets all write-replica entries to
        the transaction version number ``xactVN``.
        """
        value = _check_entry(value)
        size = self.size
        fields = pattern = 0
        for index in indices:
            if not 0 <= index < size:
                raise IndexError(f"entry {index} out of range for size {size}")
            shift = index << 5
            fields |= ENTRY_MAX << shift
            pattern |= value << shift
        bits = self._bits & ~fields | pattern
        if bits == self._bits:
            return self
        return _make(bits, size)

    def max_over(self, indices: Sequence[int]) -> int:
        """Maximum of the entries selected by ``indices`` (``xactVN``)."""
        if not indices:
            raise ValueError("max_over requires at least one index")
        bits, size, best = self._bits, self.size, 0
        for index in indices:
            if not 0 <= index < size:
                raise IndexError(f"entry {index} out of range for size {size}")
            value = bits >> (index << 5) & ENTRY_MAX
            if value > best:
                best = value
        return best

    # ------------------------------------------------------------ comparisons
    def _reject(self, other: object) -> None:
        """Raise for an operand that is not a clock of this width."""
        if other.__class__ is not VectorClock:
            raise TypeError(f"expected VectorClock, got {type(other).__name__}")
        raise ValueError(f"vector clock size mismatch: {self.size} vs {other.size}")

    def __eq__(self, other: object) -> bool:
        return (
            other.__class__ is VectorClock
            and self._bits == other._bits
            and self.size == other.size
        )

    def __hash__(self) -> int:
        return hash(self._bits)

    def le_on(self, other: "VectorClock", selector: int) -> bool:
        """``self[i] <= other[i]`` for every entry *i* in ``selector``."""
        size = self.size
        if other.__class__ is not VectorClock or other.size != size:
            self._reject(other)
        return ((other._bits | _GUARDS[size]) - self._bits) & selector == selector

    def __le__(self, other: "VectorClock") -> bool:
        return self.le_on(other, _GUARDS[self.size])

    def __lt__(self, other: "VectorClock") -> bool:
        return self <= other and self._bits != other._bits

    def __ge__(self, other: "VectorClock") -> bool:
        if other.__class__ is not VectorClock:
            self._reject(other)
        return other.le_on(self, _GUARDS[self.size])

    def __gt__(self, other: "VectorClock") -> bool:
        return self >= other and self._bits != other._bits

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True when neither clock is <= the other."""
        return not (self <= other) and not (other <= self)

    # ------------------------------------------------------------ display
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VC{list(self.entries)}"
