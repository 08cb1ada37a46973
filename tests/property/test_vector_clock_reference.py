"""The packed VectorClock must behave exactly like a reference model.

The production :class:`~repro.clocks.vector_clock.VectorClock` packs every
entry into a 32-bit field of one ``int`` and computes merges, comparisons and
the masked clamp with guard-bit arithmetic over the whole word.  This file
pins its observable behaviour to a deliberately naive tuple-based reference
at the widths the repository runs (1, 6, 64 and 256 entries) and over the
whole entry range up to ``ENTRY_MAX = 2**31 - 1``, so a borrow or carry that
leaks across a field boundary shows up as a divergence rather than as a
subtle protocol anomaly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks.compression import VCCodec
from repro.clocks.vector_clock import ENTRY_MAX, VectorClock


class ReferenceClock:
    """Straightforward tuple model of the vector clock semantics."""

    def __init__(self, entries):
        self.entries = tuple(int(entry) for entry in entries)

    def merge(self, other):
        return ReferenceClock(max(a, b) for a, b in zip(self.entries, other.entries))

    def clamp(self, bound, flags):
        return ReferenceClock(
            min(a, b) if flag else a for a, b, flag in zip(self.entries, bound.entries, flags)
        )

    def increment(self, index, amount=1):
        entries = list(self.entries)
        entries[index] += amount
        return ReferenceClock(entries)

    def with_entry(self, index, value):
        entries = list(self.entries)
        entries[index] = int(value)
        return ReferenceClock(entries)

    def with_entries(self, indices, value):
        entries = list(self.entries)
        for index in indices:
            entries[index] = int(value)
        return ReferenceClock(entries)

    def le(self, other):
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def le_on(self, other, flags):
        return all(a <= b for a, b, flag in zip(self.entries, other.entries, flags) if flag)

    def ge(self, other):
        return all(a >= b for a, b in zip(self.entries, other.entries))


WIDTHS = (1, 6, 64, 256)

#: Entries across the whole range, with the field edges (0, ``ENTRY_MAX``)
#: and small values — where equal entries and dominance are common — drawn
#: often.
ENTRY = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.sampled_from((0, 1, ENTRY_MAX - 1, ENTRY_MAX)),
    st.integers(min_value=0, max_value=ENTRY_MAX),
)


def _spread(seed, size):
    """``size`` entries in the mix of :data:`ENTRY`, expanded from one seed."""
    rng = random.Random(seed)
    edges = (0, 1, ENTRY_MAX - 1, ENTRY_MAX)
    entries = []
    for _ in range(size):
        kind = rng.randrange(3)
        if kind == 0:
            entries.append(rng.randint(0, 40))
        elif kind == 1:
            entries.append(rng.choice(edges))
        else:
            entries.append(rng.randint(0, ENTRY_MAX))
    return entries


def clocks(size):
    """Entry lists of one width.  Up to six entries are drawn one by one (so
    they shrink); wider clocks are expanded from a drawn seed, which keeps a
    256-entry example as cheap as a 6-entry one."""
    if size <= 6:
        return st.lists(ENTRY, min_size=size, max_size=size)
    return st.integers(min_value=0, max_value=2**32).map(lambda seed: _spread(seed, size))


def flag_lists(size):
    return st.lists(st.booleans(), min_size=size, max_size=size)


@st.composite
def clock_sets(draw, count):
    """``count`` clocks of one width; later clocks are often a lightly
    edited copy of the first, so equal and dominating pairs appear."""
    size = draw(st.sampled_from(WIDTHS))
    first = draw(clocks(size))
    result = [first]
    for _ in range(count - 1):
        if draw(st.booleans()):
            entries = list(first)
            for index in draw(st.lists(st.integers(0, size - 1), max_size=4)):
                entries[index] = draw(ENTRY)
            result.append(entries)
        else:
            result.append(draw(clocks(size)))
    return result


@st.composite
def operation_sequences(draw):
    size = draw(st.sampled_from(WIDTHS))
    start = draw(clocks(size))
    index = st.integers(min_value=0, max_value=size - 1)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("merge"), clocks(size)),
                st.tuples(st.just("increment"), st.tuples(index, st.integers(0, 3))),
                st.tuples(st.just("with_entry"), st.tuples(index, ENTRY)),
                st.tuples(
                    st.just("with_entries"),
                    st.tuples(
                        st.lists(index, min_size=1, max_size=min(size, 6), unique=True), ENTRY
                    ),
                ),
                st.tuples(st.just("clamp"), st.tuples(clocks(size), flag_lists(size))),
            ),
            max_size=10,
        )
    )
    return start, ops


class TestAgainstReference:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(clock_sets(2), st.data())
    def test_binary_operations_match(self, pair, data):
        left_entries, right_entries = pair
        fast_left, fast_right = VectorClock(left_entries), VectorClock(right_entries)
        ref_left = ReferenceClock(left_entries)
        ref_right = ReferenceClock(right_entries)

        merged = fast_left.merge(fast_right)
        assert merged.entries == ref_left.merge(ref_right).entries
        # Copy-on-write: a covering operand comes back unchanged.
        if merged.entries == ref_left.entries:
            assert merged is fast_left
        elif merged.entries == ref_right.entries:
            assert merged is fast_right
        assert (fast_left <= fast_right) == ref_left.le(ref_right)
        assert (fast_left >= fast_right) == ref_left.ge(ref_right)
        assert (fast_left < fast_right) == (
            ref_left.le(ref_right) and left_entries != right_entries
        )
        assert (fast_left > fast_right) == (
            ref_left.ge(ref_right) and left_entries != right_entries
        )
        assert fast_left.concurrent_with(fast_right) == (
            not ref_left.le(ref_right) and not ref_right.le(ref_left)
        )
        assert (fast_left == fast_right) == (left_entries == right_entries)
        if left_entries == right_entries:
            assert hash(fast_left) == hash(fast_right)

        flags = data.draw(flag_lists(len(left_entries)))
        selector = VectorClock.selector(flags)
        assert fast_left.le_on(fast_right, selector) == ref_left.le_on(ref_right, flags)
        clamped = fast_left.clamp(fast_right, selector)
        assert clamped.entries == ref_left.clamp(ref_right, flags).entries
        if clamped.entries == ref_left.entries:
            assert clamped is fast_left

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=5).flatmap(lambda k: clock_sets(k + 1)))
    def test_merge_many_matches_reference_and_returns_operands(self, entries):
        first, *rest = [VectorClock(clock) for clock in entries]
        expected = ReferenceClock(entries[0])
        for clock in entries[1:]:
            expected = expected.merge(ReferenceClock(clock))
        merged = first.merge_many(rest)
        assert merged.entries == expected.entries
        # The receiver when it is already the maximum, else the first operand
        # that is, else a fresh clock.
        if first.entries == expected.entries:
            assert merged is first
        else:
            covering = [clock for clock in rest if clock.entries == expected.entries]
            if covering:
                assert merged is covering[0]
            else:
                assert all(merged is not clock for clock in rest)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(operation_sequences())
    def test_operation_sequences_match(self, sequence):
        start, ops = sequence
        fast = VectorClock(start)
        reference = ReferenceClock(start)
        for name, argument in ops:
            if name == "merge":
                fast = fast.merge(VectorClock(argument))
                reference = reference.merge(ReferenceClock(argument))
            elif name == "increment":
                index, amount = argument
                if reference.entries[index] + amount > ENTRY_MAX:
                    with pytest.raises(ValueError):
                        fast.increment(index, amount)
                    continue
                fast = fast.increment(index, amount)
                reference = reference.increment(index, amount)
            elif name == "with_entry":
                index, value = argument
                fast = fast.with_entry(index, value)
                reference = reference.with_entry(index, value)
            elif name == "with_entries":
                indices, value = argument
                fast = fast.with_entries(indices, value)
                reference = reference.with_entries(indices, value)
            else:
                bound, flags = argument
                fast = fast.clamp(VectorClock(bound), VectorClock.selector(flags))
                reference = reference.clamp(ReferenceClock(bound), flags)
            assert fast.entries == reference.entries
            assert list(fast) == list(reference.entries)
            assert [fast[index] for index in range(fast.size)] == list(reference.entries)
            # Equality and hash agree with a fresh construction of the value.
            rebuilt = VectorClock(reference.entries)
            assert fast == rebuilt
            assert hash(fast) == hash(rebuilt)
            assert fast.size == len(fast) == len(reference.entries)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=10).flatmap(clock_sets))
    def test_codec_round_trips_match_reference(self, sequence):
        size = len(sequence[0])
        encoder, decoder = VCCodec(size), VCCodec(size)
        for entries in sequence:
            clock = VectorClock(entries)
            encoding = encoder.encode("peer", clock)
            decoded = decoder.decode("peer", encoding)
            assert decoded == clock
            assert decoded.entries == ReferenceClock(entries).entries


class TestEntryBound:
    """An entry that would reach ``2**31`` raises; it never carries into the
    neighbouring field."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_writer_rejects_an_entry_of_two_to_the_31(self, width):
        top = VectorClock([ENTRY_MAX] * width)
        assert top.entries == (ENTRY_MAX,) * width
        index = width // 2
        with pytest.raises(ValueError):
            top.increment(index)
        with pytest.raises(ValueError):
            VectorClock.zeros(width).increment(index, ENTRY_MAX + 1)
        with pytest.raises(ValueError):
            top.with_entry(index, ENTRY_MAX + 1)
        with pytest.raises(ValueError):
            top.with_entries([index], ENTRY_MAX + 1)
        with pytest.raises(ValueError):
            VectorClock([0] * (width - 1) + [ENTRY_MAX + 1])
        with pytest.raises(ValueError):
            VectorClock([-1] + [0] * (width - 1))
        # The clock that refused is untouched, and the largest entry merges
        # and compares like any other.
        assert top.entries == (ENTRY_MAX,) * width
        low = VectorClock.zeros(width).with_entry(index, ENTRY_MAX - 1)
        assert low.increment(index).entries == top.with_entries(
            [i for i in range(width) if i != index], 0
        ).entries
        assert low <= top and low.merge(top) is top and top.merge(low) is top
