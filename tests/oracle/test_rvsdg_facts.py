"""The flat path still gives the answers the RVSDG path gave.

The RVSDG frontend (``repro.rvsdg``, removed after commit ``d68cfb9``)
built constraints from a second IR, and a differential compared its
``IP+WL(FIFO)+PIP`` answers with the flat path's on nine programs.
``rvsdg_facts.json`` is the RVSDG side of that differential, produced
at ``d68cfb9``: for each program, the named memory objects both paths
had, each with its normalised Sol, and the normalised external set.
Normalising names every heap site ``<heap>`` and every string literal
``<str>``, and leaves heap and string objects out of the facts.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis import build_constraints, parse_name, run_configuration
from repro.frontend import compile_c

from tests.oracle.programs import CORPUS, DIFFERENTIAL_PROGRAMS

FROZEN = json.loads(
    (pathlib.Path(__file__).parent / "rvsdg_facts.json").read_text(encoding="utf-8")
)


def _source(label: str) -> str:
    if label.startswith("differential["):
        return DIFFERENTIAL_PROGRAMS[int(label[len("differential["):-1])]
    return (CORPUS / label).read_text()


def _normalise(names) -> list:
    out = set()
    for name in map(str, names):
        if name.startswith("heap."):
            out.add("<heap>")
        elif name.startswith(".str"):
            out.add("<str>")
        else:
            out.add(name)
    return sorted(out)


def test_the_nine_programs_are_frozen():
    assert [entry["program"] for entry in FROZEN] == [
        *(f"differential[{i}]" for i in range(len(DIFFERENTIAL_PROGRAMS))),
        "hashtable.c",
        "arena.c",
    ]


@pytest.mark.parametrize("entry", FROZEN, ids=[e["program"] for e in FROZEN])
def test_flat_path_reproduces_the_rvsdg_facts(entry):
    label = entry["program"]
    built = build_constraints(compile_c(_source(label), "t.c"))
    program = built.program
    solution = run_configuration(program, parse_name("IP+WL(FIFO)+PIP"))
    by_name = {
        program.var_names[v]: v
        for v in range(program.num_vars)
        if program.in_m[v] and program.in_p[v]
    }
    assert _normalise(solution.names(solution.external)) == entry["external"]
    for name, facts in entry["facts"].items():
        got = _normalise(solution.names(solution.points_to(by_name[name])))
        assert got == facts, f"Sol({name}) in {label}"
