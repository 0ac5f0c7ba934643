"""Mutation fuzzing of the LIR front door.

Each input is a mutant of a well-formed constraint text: the exported
``examples/corpus/`` programs, and the reference ``ref``/``proj``/``lam``
example of the LIR constraint format.  Mutations insert, delete,
duplicate and replace tokens and whole lines, drawing on directive
keywords, ``@index`` references, ``_OMEGA`` and JSON strings.  Every
mutant must either parse and solve, or raise a
:class:`ConstraintTextError` that renders as ``file:line: message``;
any other exception is an importer bug.
"""

from __future__ import annotations

import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_constraints, parse_name, run_configuration
from repro.frontend import compile_c, describe_error
from repro.interchange import (
    ConstraintTextError,
    export_constraint_text,
    parse_constraint_text,
)

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "corpus"

#: the format's reference example: a direct and an indirect call, heap
#: allocations, a load and a store
REFERENCE_EXAMPLE = """\
foo <= main.f
foo.p3 <= foo.r
lam_[(&int,int,&int)->&int](foo,foo.r,foo.p1,foo.p3) <= foo
main.a <= proj(ref,1,main.d)
main.f <= lam_[(&int,int,&int)->&int](_DUMMY,main.c,main.a,main.b)
proj(ref,1,main.d) <= main.e
ref(_alloc1,_alloc1) <= main.a
ref(_alloc2,_alloc2) <= main.b
ref(_alloc3,_alloc3) <= main.d
"""

BASES = [("reference.lir", REFERENCE_EXAMPLE)] + [
    (
        path.stem + ".lir",
        export_constraint_text(build_constraints(compile_c(path.read_text(), path.name)).program),
    )
    for path in sorted(CORPUS.glob("*.c"))
]

#: tokens worth inserting besides each text's own
EXTRA_TOKENS = [
    ".format", ".program", ".var", ".symbol", ".impfunc", ".linkage_ea",
    "@0", "@1", "@7", "@99999", "@", "_OMEGA", "_", '""', '"x"', '"\\u00"',
    '"\\"', "<=", "ref(", "proj(ref,1,", "lam_[fn](", "(", ")", ",", "[", "]",
    "p", "m", "pm", "func", "data", "internal", "import", "def", "decl", "1",
    "-1", "#",
]

CONFIGS = [parse_name("IP+WL(FIFO)+PIP"), parse_name("EP+WL(FIFO)")]

_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"?|@\d*|[\w.%&$]+|\s+|.')


@st.composite
def mutants(draw):
    name, text = draw(st.sampled_from(BASES))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(
            ["delete line", "duplicate line", "replace line",
             "insert token", "delete token", "duplicate token", "replace token"]
        ))
        if op == "delete line":
            del lines[i]
        elif op == "duplicate line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "replace line":
            lines[i] = draw(st.sampled_from(lines))
        else:
            tokens = _TOKEN.findall(lines[i]) or [""]
            j = draw(st.integers(0, len(tokens) - 1))
            pool = [t for t in tokens if not t.isspace()] + EXTRA_TOKENS
            if op == "insert token":
                tokens.insert(j, draw(st.sampled_from(pool)))
            elif op == "delete token":
                del tokens[j]
            elif op == "duplicate token":
                tokens.insert(j, tokens[j])
            else:
                tokens[j] = draw(st.sampled_from(pool))
            lines[i] = "".join(tokens)
        if not lines:
            lines = [""]
    return name, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(mutants())
def test_mutants_solve_or_diagnose(mutant):
    name, text = mutant
    try:
        program = parse_constraint_text(text, name)
    except ConstraintTextError as exc:
        message = describe_error(exc)
        assert re.match(rf"{re.escape(name)}:\d+: ", message), message
        return
    for config in CONFIGS:
        run_configuration(program, config)
