"""Unit tests for the vector clock algebra."""

from __future__ import annotations

import pytest

from repro.clocks.vector_clock import VectorClock


class TestConstruction:
    def test_zeros(self):
        vc = VectorClock.zeros(4)
        assert vc.size == 4
        assert list(vc) == [0, 0, 0, 0]

    def test_from_iterable(self):
        vc = VectorClock([1, 2, 3])
        assert vc.entries == (1, 2, 3)
        assert len(vc) == 3

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            VectorClock([1, -1])

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            VectorClock.zeros(0)

    def test_entries_coerced_to_int(self):
        vc = VectorClock([1.0, 2.0])
        assert vc.entries == (1, 2)


class TestOperations:
    def test_merge_is_entrywise_max(self):
        a = VectorClock([5, 1, 3])
        b = VectorClock([2, 4, 3])
        assert a.merge(b) == VectorClock([5, 4, 3])

    def test_merge_commutative(self):
        a = VectorClock([5, 1, 3])
        b = VectorClock([2, 4, 3])
        assert a.merge(b) == b.merge(a)

    def test_merge_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VectorClock([1, 2]).merge(VectorClock([1, 2, 3]))

    def test_increment(self):
        vc = VectorClock([1, 2, 3]).increment(1)
        assert vc == VectorClock([1, 3, 3])

    def test_increment_does_not_mutate(self):
        original = VectorClock([1, 2, 3])
        original.increment(0)
        assert original == VectorClock([1, 2, 3])

    def test_increment_out_of_range(self):
        with pytest.raises(IndexError):
            VectorClock([1, 2]).increment(5)

    def test_with_entry(self):
        assert VectorClock([1, 2, 3]).with_entry(2, 9) == VectorClock([1, 2, 9])

    def test_with_entries_sets_many(self):
        vc = VectorClock([1, 2, 3, 4]).with_entries([0, 2], 7)
        assert vc == VectorClock([7, 2, 7, 4])

    def test_max_over(self):
        vc = VectorClock([1, 9, 3, 4])
        assert vc.max_over([0, 2, 3]) == 4
        assert vc.max_over([1]) == 9

    def test_max_over_empty_rejected(self):
        with pytest.raises(ValueError):
            VectorClock([1, 2]).max_over([])


class TestOrdering:
    def test_le_when_all_entries_le(self):
        assert VectorClock([1, 2]) <= VectorClock([1, 3])
        assert VectorClock([1, 2]) <= VectorClock([1, 2])

    def test_lt_requires_strict_somewhere(self):
        assert VectorClock([1, 2]) < VectorClock([1, 3])
        assert not VectorClock([1, 2]) < VectorClock([1, 2])

    def test_concurrent_clocks(self):
        a = VectorClock([1, 5])
        b = VectorClock([2, 3])
        assert a.concurrent_with(b)
        assert not (a <= b) and not (b <= a)

    def test_not_concurrent_when_ordered(self):
        assert not VectorClock([1, 2]).concurrent_with(VectorClock([2, 3]))

    def test_ge_gt(self):
        assert VectorClock([3, 3]) >= VectorClock([3, 2])
        assert VectorClock([3, 3]) > VectorClock([3, 2])
        assert not VectorClock([3, 3]) > VectorClock([3, 3])

    def test_equality_and_hash(self):
        a = VectorClock([1, 2, 3])
        b = VectorClock([1, 2, 3])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_usable_as_dict_key(self):
        mapping = {VectorClock([1, 2]): "x"}
        assert mapping[VectorClock([1, 2])] == "x"

    def test_comparison_with_non_clock_rejected(self):
        with pytest.raises(TypeError):
            VectorClock([1]) <= 3  # noqa: B015


class TestValueSemantics:
    def test_equal_clocks_from_different_paths_are_interchangeable(self):
        # There is no interning pool: equality and hashing are by value, so a
        # clock built by any path finds a dict entry keyed by any other.
        read = VectorClock.selector([False, True, True])
        paths = [
            VectorClock([3, 0, 7]),
            VectorClock.zeros(3).increment(0, 3).with_entry(2, 7),
            VectorClock([1, 0, 7]).merge(VectorClock([3, 0, 2])),
            VectorClock([0, 0, 1]).merge_many([VectorClock([3, 0, 0]), VectorClock([0, 0, 7])]),
            VectorClock([3, 5, 9]).clamp(VectorClock([9, 0, 7]), read),
            VectorClock([9, 0, 9]).with_entries([0], 3).with_entries([2], 7),
        ]
        assert len({id(clock) for clock in paths}) == len(paths)
        mapping = {paths[0]: "x"}
        for clock in paths:
            assert clock == paths[0]
            assert hash(clock) == hash(paths[0])
            assert mapping[clock] == "x"
        assert len(set(paths)) == 1
        # Width is part of the value: all-zero clocks of two widths differ.
        assert VectorClock.zeros(3) != VectorClock.zeros(4)
