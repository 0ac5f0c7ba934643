"""Unit and property tests for the points-to-set backend layer."""

import random

import pytest

from repro.analysis.pts import (
    DEFAULT_PTS_BACKEND,
    PTS_BACKENDS,
    Bitset,
    BitsetBackend,
    InternTable,
    SetBackend,
    get_backend,
)
from repro.analysis.pts.bitset import PACK_ABOVE, _decode, _pack


class TestRegistry:
    def test_backends_registered(self):
        assert set(PTS_BACKENDS) == {"set", "bitset"}
        assert DEFAULT_PTS_BACKEND == "set"

    def test_get_backend(self):
        assert isinstance(get_backend("set"), SetBackend)
        assert isinstance(get_backend("bitset"), BitsetBackend)

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValueError, match="bitset"):
            get_backend("roaring")


class TestBitset:
    def test_roundtrip(self):
        members = {0, 1, 7, 8, 63, 64, 65, 1000}
        b = Bitset.from_iter(members)
        assert set(b) == members
        assert len(b) == len(members)
        assert sorted(b) == sorted(members)

    def test_membership_add_discard(self):
        b = Bitset()
        assert not b and len(b) == 0
        b.add(5)
        b.add(300)
        assert 5 in b and 300 in b and 6 not in b
        b.discard(5)
        b.discard(999)  # absent: no-op
        assert 5 not in b
        assert set(b) == {300}

    def test_operators_match_set_semantics(self):
        rng = random.Random(7)
        for _ in range(200):
            universe = rng.choice([40, 200, 3000])
            a = {rng.randrange(universe) for _ in range(rng.randrange(30))}
            b = {rng.randrange(universe) for _ in range(rng.randrange(30))}
            ba, bb = Bitset.from_iter(a), Bitset.from_iter(b)
            assert set(ba | bb) == a | b
            assert set(ba - bb) == a - b
            assert set(ba & bb) == a & b
            ca = Bitset.from_iter(a)
            ca |= bb
            assert set(ca) == a | b
            ca = Bitset.from_iter(a)
            ca -= bb
            assert set(ca) == a - b
            ca = Bitset.from_iter(a)
            ca &= bb
            assert set(ca) == a & b

    def test_equality(self):
        a = Bitset.from_iter({1, 5, 9})
        assert a == Bitset.from_iter({9, 5, 1})
        assert a != Bitset.from_iter({1, 5})
        assert a == {1, 5, 9}  # comparison against native sets
        assert a == frozenset({1, 5, 9})
        assert a != {1, 5}

    def test_unhashable_like_set(self):
        with pytest.raises(TypeError):
            hash(Bitset())

    def test_decode_sparse_and_dense_paths(self):
        # Sparse: few members in a huge universe (low-bit extraction).
        sparse = {3, 40_000}
        assert _decode(_pack(sparse)) == sorted(sparse)
        # Dense: most of a small universe (bytewise decoding).
        dense = set(range(100)) - {13, 77}
        assert _decode(_pack(dense)) == sorted(dense)
        assert _decode(0) == []

    def test_packs_past_the_rule_for_good(self):
        b = Bitset.from_iter(range(PACK_ABOVE))
        assert b.members == set(range(PACK_ABOVE)) and b.bits is None
        b.add(PACK_ABOVE)
        assert b.members is None and b.bits == (1 << PACK_ABOVE + 1) - 1
        b -= Bitset.from_iter(range(PACK_ABOVE))
        assert b.members is None and list(b) == [PACK_ABOVE]

    def test_iteration_is_sorted(self):
        rng = random.Random(3)
        for _ in range(50):
            members = {rng.randrange(5000) for _ in range(rng.randrange(200))}
            assert list(Bitset.from_iter(members)) == sorted(members)


class TestBackendContract:
    """Both backends implement the same observable algebra."""

    @pytest.fixture(params=["set", "bitset"])
    def backend(self, request):
        return get_backend(request.param)

    def test_construction(self, backend):
        s = backend.from_iter([4, 9, 4])
        assert len(s) == 2 and 4 in s and 9 in s
        assert backend.freeze(s) == frozenset({4, 9})
        assert len(backend.empty()) == 0
        c = backend.copy(s)
        c.add(77)
        assert 77 not in s  # independent copy

    def test_equal(self, backend):
        assert backend.equal(backend.from_iter([1, 2]), backend.from_iter([2, 1]))
        assert not backend.equal(backend.from_iter([1]), backend.from_iter([2]))

    def test_union_grow_counts_new_members(self, backend):
        target = backend.from_iter([1, 2, 3])
        assert backend.union_grow(target, backend.from_iter([2, 3, 4, 5])) == 2
        assert backend.freeze(target) == frozenset({1, 2, 3, 4, 5})
        assert backend.union_grow(target, backend.from_iter([1, 5])) == 0

    def test_delta_update_excludes_processed_and_pending(self, backend):
        processed = backend.from_iter([1, 2])
        delta = backend.from_iter([3])
        # 1,2 already processed; 3 already pending; only 4 arrives.
        n = backend.delta_update(delta, backend.from_iter([1, 2, 3, 4]), processed)
        assert n == 1
        assert backend.freeze(delta) == frozenset({3, 4})

    def test_fused_ops_agree_across_backends(self):
        """The accounting unit is identical for both representations."""
        rng = random.Random(11)
        sb, bb = get_backend("set"), get_backend("bitset")
        for _ in range(100):
            universe = rng.choice([64, 1024])
            tgt = {rng.randrange(universe) for _ in range(rng.randrange(40))}
            items = {rng.randrange(universe) for _ in range(rng.randrange(40))}
            proc = {rng.randrange(universe) for _ in range(rng.randrange(40))}
            assert sb.union_grow(set(tgt), frozenset(items)) == bb.union_grow(
                Bitset.from_iter(tgt), Bitset.from_iter(items)
            )
            assert sb.delta_update(
                set(tgt), frozenset(items), frozenset(proc)
            ) == bb.delta_update(
                Bitset.from_iter(tgt),
                Bitset.from_iter(items),
                Bitset.from_iter(proc),
            )

    def test_mask_filtering(self, backend):
        mask = backend.mask([2, 4, 6, 8])
        s = backend.from_iter([1, 2, 3, 4])
        assert backend.freeze(s & mask) == frozenset({2, 4})
        assert backend.freeze(s - mask) == frozenset({1, 3})


class TestInternTable:
    def test_identical_sets_intern_to_same_object(self):
        table = InternTable()
        a = table.intern(frozenset({1, 2}))
        b = table.intern(frozenset({2, 1}))
        assert a is b
        assert len(table) == 1
        assert table.hits == 1

    def test_distinct_sets_stay_distinct(self):
        table = InternTable()
        a = table.intern(frozenset({1}))
        b = table.intern(frozenset({2}))
        assert a is not b
        assert len(table) == 2
        assert table.hits == 0
