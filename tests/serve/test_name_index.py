"""``points_to`` by name: the snapshot's name index.

Same-named statics of different units stay distinct joint variables,
so a name may be held by one, two or three of them; only the first
answers, the others are ambiguous and say how many variables hold the
name.
"""

import pytest

from repro.serve import Project
from repro.serve.queries import QueryEngine, QueryError

#: ``cell`` is a static of three units, ``slot`` of two
UNIT = (
    "static int v{i}; static int *{ptr};\n"
    "int *get{i}(void) {{ {ptr} = &v{i}; return {ptr}; }}\n"
)
FILES = {
    f"u{i}.c": UNIT.format(i=i, ptr=ptr)
    for i, ptr in enumerate(["cell", "cell", "cell", "slot", "slot"])
}


@pytest.fixture(scope="module")
def snapshot():
    return Project().open(FILES)


def test_the_index_holds_every_variable_of_a_name(snapshot):
    names = snapshot.linked.program.var_names
    for name in ("cell", "slot", "v0", "get4"):
        expected = [v for v, held in enumerate(names) if held == name]
        assert snapshot.vars_named(name) == expected
    assert [len(snapshot.vars_named(n)) for n in ("v0", "slot", "cell")] == [
        1, 2, 3
    ]
    assert snapshot.vars_named("nowhere") == []


def test_one_variable_answers(snapshot):
    answer = QueryEngine(snapshot).evaluate("points_to", {"var": "v0"})
    assert answer == {"var": "v0", "pointees": [], "omega": False}


@pytest.mark.parametrize("name,count", [("slot", 2), ("cell", 3)])
def test_a_shared_name_is_ambiguous(snapshot, name, count):
    with pytest.raises(QueryError) as info:
        QueryEngine(snapshot).evaluate("points_to", {"var": name})
    assert str(info.value) == (
        f"ambiguous variable name {name!r} ({count} joint variables;"
        " query a memory-location name instead)"
    )


def test_an_unknown_name_is_an_error(snapshot):
    with pytest.raises(QueryError, match="unknown variable 'nowhere'"):
        QueryEngine(snapshot).evaluate("points_to", {"var": "nowhere"})
