"""Differential property test: the bitset backend's two containers
against Python ``set``.

Random sequences of every ``Bitset`` operation, ``union_grow`` and
``delta_update`` run on a pool of values on both sides of the packing
rule (unpacked, packed, and packed values that shrank again) and on
masks, mirrored step by step on plain sets.  After every step each
value must hold its model's members, iterate them in ascending order,
report the same counts, key the memo exactly when packed, stay packed
once packed, and leave every operand it did not write in its container.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pts import get_backend
from repro.analysis.pts.bitset import PACK_ABOVE

BACKEND = get_backend("bitset")
ELEMENT = st.integers(0, 600)
#: member sets on both sides of the packing rule
MEMBERS = st.one_of(
    st.frozensets(ELEMENT, max_size=PACK_ABOVE),
    st.frozensets(ELEMENT, min_size=PACK_ABOVE + 1, max_size=3 * PACK_ABOVE),
)
POOL = 6

#: in place on values[i] with values[j] (or mask j) as the operand
IN_PLACE = {
    "ior": (lambda a, b: a.__ior__(b), lambda a, b: a | b),
    "isub": (lambda a, b: a.__isub__(b), lambda a, b: a - b),
    "iand": (lambda a, b: a.__iand__(b), lambda a, b: a & b),
}
#: a new value from values[i] and values[j] (or mask j)
BINARY = {
    "or": lambda a, b: a | b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
}
OPS = (
    *IN_PLACE, *(f"{op}_mask" for op in IN_PLACE if op != "ior"),
    *BINARY, *(f"{op}_mask" for op in BINARY if op != "or"),
    "add", "discard", "contains", "equal", "copy",
    "union_grow", "delta_update",
)


def packed(value):
    return value.members is None


def check(value, model):
    assert list(value) == sorted(model)
    assert len(value) == len(model)
    assert bool(value) == bool(model)
    assert BACKEND.freeze(value) == model
    assert (BACKEND.cache_key(value) is None) == (not packed(value))
    if not packed(value):
        assert len(model) <= PACK_ABOVE


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_containers_match_python_sets(data):
    pool = data.draw(st.lists(MEMBERS, min_size=POOL, max_size=POOL))
    models = [set(m) for m in pool]
    values = [BACKEND.from_iter(m) for m in models]
    mask_members = data.draw(st.lists(MEMBERS, min_size=1, max_size=3))
    masks = [BACKEND.mask(m) for m in mask_members]
    slot = st.integers(0, POOL - 1)
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(OPS))
        i, j, k = data.draw(slot), data.draw(slot), data.draw(slot)
        was_packed = [packed(v) for v in values]
        written = {i}
        if op.endswith("_mask"):
            j %= len(masks)
            operand, operand_model = masks[j], mask_members[j]
            op = op[: -len("_mask")]
        else:
            operand, operand_model = values[j], set(models[j])
        if op in IN_PLACE:
            apply, expect = IN_PLACE[op]
            assert apply(values[i], operand) is values[i]
            models[i] = expect(models[i], operand_model)
        elif op in BINARY:
            values[k] = BINARY[op](values[i], operand)
            models[k] = BINARY[op](models[i], operand_model)
            written = {k}
            was_packed[k] = False
        elif op == "add":
            x = data.draw(ELEMENT)
            values[i].add(x)
            models[i].add(x)
        elif op == "discard":
            present = st.sampled_from(sorted(models[i]) or [0])
            x = data.draw(st.one_of(ELEMENT, present))
            values[i].discard(x)
            models[i].discard(x)
        elif op == "contains":
            for x in (*models[i], *data.draw(st.lists(ELEMENT, max_size=5))):
                assert (x in values[i]) == (x in models[i])
            written = set()
        elif op == "equal":
            same = models[i] == models[j]
            assert BACKEND.equal(values[i], values[j]) == same
            assert (values[i] == values[j]) == same
            assert (values[i] == frozenset(models[j])) == same
            written = set()
        elif op == "copy":
            values[k] = BACKEND.copy(values[i])
            models[k] = set(models[i])
            assert packed(values[k]) == packed(values[i])
            written = {k}
            was_packed[k] = packed(values[k])
        elif op == "union_grow":
            grown = BACKEND.union_grow(values[i], values[j])
            expected = len(models[j] - models[i])
            models[i] = models[i] | models[j]
            assert grown == expected
        else:  # delta_update(values[i], values[j], values[k])
            added = BACKEND.delta_update(values[i], values[j], values[k])
            new = models[j] - models[k] - models[i]
            models[i] = models[i] | new
            assert added == len(new)
        for n, (value, model) in enumerate(zip(values, models)):
            check(value, model)
            if was_packed[n]:
                assert packed(value), "a packed value stays packed"
            elif n not in written:
                assert not packed(value), "an operand was packed"
    for mask, members in zip(masks, mask_members):
        assert mask.members == members
        assert mask.bits == sum(1 << x for x in members)
