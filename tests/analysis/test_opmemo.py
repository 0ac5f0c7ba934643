"""Unit tests for the operation memo (``repro.analysis.pts.memo``)."""

import pytest

from repro.analysis.pts import OpMemo, get_backend
from repro.analysis.pts.bitset import PACK_ABOVE

BITSET = get_backend("bitset")

#: more members than the packing rule allows an unpacked value
MANY = range(0, 4 * (PACK_ABOVE + 1), 4)


def packed(items):
    value = BITSET.from_iter(MANY)
    value &= BITSET.mask(items)
    assert value.members is None  # packed for good, however few remain
    return value


def unpacked(items):
    value = BITSET.from_iter(items)
    assert value.members is not None
    return value


class TestCounting:
    def test_hits_and_misses_counted_per_lookup(self):
        memo = OpMemo(BITSET)
        s = packed([0, 4, 8, 12])
        mask = BITSET.mask([4, 8, 100])
        assert memo.members(s, mask, 1) == (4, 8)
        assert (memo.hits, memo.misses) == (0, 1)
        assert memo.members(s, mask, 1) == (4, 8)
        assert (memo.hits, memo.misses) == (1, 1)
        # Another tag is another operation: a miss of its own.
        assert memo.intersects(s, mask, 2) is True
        assert (memo.hits, memo.misses) == (1, 2)
        assert memo.intersects(s, mask, 2) is True
        assert (memo.hits, memo.misses) == (2, 2)

    def test_equal_values_share_an_entry(self):
        memo = OpMemo(BITSET)
        mask = BITSET.mask([8])
        memo.members(packed([0, 8]), mask, 1)
        memo.members(packed([8, 0]), mask, 1)
        assert (memo.hits, memo.misses) == (1, 1)


class TestBypass:
    @pytest.mark.parametrize(
        "backend, make",
        [
            (get_backend("set"), set),
            (BITSET, unpacked),
        ],
        ids=["set", "unpacked-bitset"],
    )
    def test_a_none_key_bypasses_uncounted(self, backend, make):
        memo = OpMemo(backend)
        s = make([1, 2, 3])
        assert backend.cache_key(s) is None
        mask = backend.mask([2, 3, 9])
        for _ in range(2):
            assert sorted(memo.members(s, mask, 1)) == [2, 3]
            assert memo.intersects(s, mask, 2) is True
            assert sorted(memo.difference(s, mask, 3)) == [1]
        assert (memo.hits, memo.misses) == (0, 0)

    def test_unpacked_right_operand_bypasses_difference(self):
        memo = OpMemo(BITSET)
        s = packed([0, 4, 8])
        assert list(memo.difference(s, unpacked([4]), 3)) == [0, 8]
        assert (memo.hits, memo.misses) == (0, 0)

    def test_a_value_that_packs_starts_using_the_memo(self):
        memo = OpMemo(BITSET)
        mask = BITSET.mask(MANY)
        s = unpacked(MANY[:PACK_ABOVE])
        memo.members(s, mask, 1)
        assert (memo.hits, memo.misses) == (0, 0)
        s.add(MANY[PACK_ABOVE])
        assert s.members is None
        assert memo.members(s, mask, 1) == tuple(MANY[: PACK_ABOVE + 1])
        assert (memo.hits, memo.misses) == (0, 1)


class TestCapacity:
    def test_insertion_stops_at_capacity_without_eviction(self):
        memo = OpMemo(BITSET, capacity=2)
        mask = BITSET.mask([0, 4, 8])
        a, b, c = packed([0]), packed([4]), packed([8])
        for s in (a, b, c):
            memo.members(s, mask, 1)
        assert (memo.hits, memo.misses) == (0, 3)
        # The first two stayed; the third was never stored, so it
        # misses again (and still answers correctly).
        assert memo.members(a, mask, 1) == (0,)
        assert memo.members(b, mask, 1) == (4,)
        assert memo.members(c, mask, 1) == (8,)
        assert (memo.hits, memo.misses) == (2, 4)


class TestDifference:
    def test_keys_on_both_operands(self):
        memo = OpMemo(BITSET)
        s = packed([0, 4, 8, 12])
        ea_mask = packed([4])
        assert memo.difference(s, ea_mask, 3) == (0, 8, 12)
        assert memo.difference(s, ea_mask, 3) == (0, 8, 12)
        assert (memo.hits, memo.misses) == (1, 1)
        # The right operand mutates in place, as the solver's ea_mask
        # does: the new value is a new key, so the lookup misses.
        ea_mask.add(8)
        assert memo.difference(s, ea_mask, 3) == (0, 12)
        assert (memo.hits, memo.misses) == (1, 2)
