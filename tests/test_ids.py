"""Unit tests for the 32-bit level-tagged attribute-ID encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cube import ids
from repro.errors import HierarchyError, IdSpaceExhaustedError


class TestMakeId:
    def test_level_zero_counter_zero(self):
        assert ids.make_id(0, 0) == 0

    def test_level_occupies_high_four_bits(self):
        assert ids.make_id(2, 5) == (2 << 28) | 5

    def test_max_level_max_counter_is_32_bit(self):
        assert ids.make_id(ids.MAX_LEVEL, ids.MAX_COUNTER) == 0xFFFFFFFF

    def test_negative_level_rejected(self):
        with pytest.raises(HierarchyError):
            ids.make_id(-1, 0)

    def test_level_above_15_rejected(self):
        with pytest.raises(HierarchyError):
            ids.make_id(16, 0)

    def test_counter_overflow_rejected(self):
        with pytest.raises(IdSpaceExhaustedError):
            ids.make_id(0, ids.MAX_COUNTER + 1)

    def test_negative_counter_rejected(self):
        with pytest.raises(IdSpaceExhaustedError):
            ids.make_id(0, -1)


class TestDecoding:
    def test_level_of_roundtrip(self):
        assert ids.level_of(ids.make_id(7, 123)) == 7

    def test_counter_of_roundtrip(self):
        assert ids.counter_of(ids.make_id(7, 123)) == 123

    def test_split_id(self):
        assert ids.split_id(ids.make_id(3, 9)) == (3, 9)

    @given(
        level=st.integers(min_value=0, max_value=ids.MAX_LEVEL),
        counter=st.integers(min_value=0, max_value=ids.MAX_COUNTER),
    )
    def test_roundtrip_property(self, level, counter):
        attr_id = ids.make_id(level, counter)
        assert ids.split_id(attr_id) == (level, counter)
        assert 0 <= attr_id <= 0xFFFFFFFF

    @given(
        a=st.integers(min_value=0, max_value=ids.MAX_COUNTER),
        b=st.integers(min_value=0, max_value=ids.MAX_COUNTER),
        level=st.integers(min_value=0, max_value=ids.MAX_LEVEL),
    )
    def test_counter_order_preserved_within_level(self, a, b, level):
        # The X-tree's artificial total order relies on counter monotonicity.
        assert (a < b) == (ids.make_id(level, a) < ids.make_id(level, b))

    def test_higher_level_always_sorts_after_lower_level(self):
        assert ids.make_id(1, 0) > ids.make_id(0, ids.MAX_COUNTER)


class TestIdAllocator:
    def test_sequential_counters(self):
        allocator = ids.IdAllocator()
        first = allocator.allocate(2)
        second = allocator.allocate(2)
        assert ids.counter_of(first) == 0
        assert ids.counter_of(second) == 1

    def test_levels_are_independent(self):
        allocator = ids.IdAllocator()
        allocator.allocate(1)
        allocator.allocate(1)
        other = allocator.allocate(3)
        assert ids.counter_of(other) == 0

    def test_allocated_count(self):
        allocator = ids.IdAllocator()
        assert allocator.allocated_count(0) == 0
        allocator.allocate(0)
        allocator.allocate(0)
        assert allocator.allocated_count(0) == 2

    def test_level_encoded_in_allocation(self):
        allocator = ids.IdAllocator()
        assert ids.level_of(allocator.allocate(5)) == 5

    def test_exhaustion_raises(self):
        allocator = ids.IdAllocator()
        allocator._next[4] = ids.MAX_COUNTER + 1
        with pytest.raises(IdSpaceExhaustedError):
            allocator.allocate(4)
