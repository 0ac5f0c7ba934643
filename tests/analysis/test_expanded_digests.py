"""Lossless expansion: the implicit-Ω form carries the expanded answer.

A :class:`~repro.analysis.solution.Solution` stores a set holding Ω as
``(Sol(p) \\ E) ∪ {Ω}``.  Up to commit d1c73f2 every encoder wrote the
expanded set ``Sol(p) ∪ E ∪ {Ω}`` instead, and ``expanded_digests.json``
holds two digests of that expanded form per case, recorded at d1c73f2:
``named_canonical_digest()``, and the sha256 of the wire form's
``points_to`` plus ``external``.  Each case expands today's forms — the
named form gains the ``external`` names wherever ``"Ω"`` appears, the
wire form gains E wherever ``-1`` appears — re-encodes them the old way
and must reproduce both digests.

Cases: each ``examples/corpus/*.c`` alone and all four linked, and the
flat links of the re-link matrix's ``rl31`` and ``rl116`` programs in
both link modes, each under IP+WL(FIFO)+PIP, EP+WL(FIFO) and
IP+Reduce+WL(FIFO)+PIP on both points-to backends; plus 557.xz under
IP+WL(FIFO)+PIP.
"""

import dataclasses
import functools
import hashlib
import json
import pathlib

import pytest

from repro.analysis import OMEGA, ConstraintProgram, parse_name, run_configuration
from repro.analysis.constraints import writable_set
from repro.analysis.solution import OMEGA_WIRE, Solution
from repro.analysis.solvers.base import SolverState
from repro.analysis.solvers.naive import NaiveSolver
from repro.bench.corpus import generate_c_source, plan_program
from repro.link import LinkOptions, link_programs
from repro.pipeline import Pipeline
from tests.link.test_relink_matrix import MATRIX_SPEC, MODES, TREE_SPEC

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parents[1] / "examples" / "corpus"
FROZEN = json.loads((HERE / "expanded_digests.json").read_text())
XZ_CASE = "557.xz|IP+WL(FIFO)+PIP|set"
SPECS = {"rl31": MATRIX_SPEC, "rl116": TREE_SPEC}


def dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def constraint_programs(pairs):
    pipeline = Pipeline()
    return [
        pipeline.constraints(pipeline.source(name, text)).program
        for name, text in pairs
    ]


@functools.lru_cache(maxsize=None)
def program_named(name):
    corpus = [(path.name, path.read_text()) for path in sorted(CORPUS.glob("*.c"))]
    if name == "corpus-linked":
        return link_programs(constraint_programs(corpus), LinkOptions()).program
    if name.endswith(".c"):
        (program,) = constraint_programs([(name, (CORPUS / name).read_text())])
        return program
    label, mode = name.split("-")
    units = plan_program(SPECS[label])
    members = constraint_programs((u.name, generate_c_source(u)) for u in units)
    return link_programs(members, MODES[mode]).program


# ----------------------------------------------------------------------
# The old encodings, rebuilt from the new forms
# ----------------------------------------------------------------------


def expanded_named_digest(solution) -> str:
    """sha256 of the old named form's canonical JSON, byte for byte
    what ``json.dumps(named, sort_keys=True, separators=(",", ":"))``
    gives once every list holding ``"Ω"`` also lists E's names.
    Entries with equal sets share one list, so each is expanded once."""
    named = solution.to_named_canonical()
    external = named["external"]

    def expand(pointees):
        if OMEGA not in pointees:
            return pointees
        assert set(pointees).isdisjoint(external)
        return sorted(pointees + external)

    encoded = {}
    h = hashlib.sha256()
    h.update(b'{"external":' + dumps(external) + b',"points_to":{')
    for i, (name, pointees) in enumerate(sorted(named["points_to"].items())):
        data = encoded.get(id(pointees))
        if data is None:
            data = encoded[id(pointees)] = dumps(expand(pointees))
        h.update((b"," if i else b"") + dumps(name) + b":" + data)
    h.update(b"}}")
    return h.hexdigest()


def expanded_wire_digest(solution) -> str:
    """sha256 of the old wire form's ``{"external", "points_to"}``, with
    E added to every list that holds ``-1``."""
    wire = solution.to_canonical_dict()
    external = wire["external"]

    def expand(pointees):
        if pointees[:1] != [OMEGA_WIRE]:
            return pointees
        assert set(pointees).isdisjoint(external)
        return sorted(pointees + external)

    encoded = {}
    h = hashlib.sha256()
    h.update(b'{"external":' + dumps(external) + b',"points_to":[')
    for i, (p, pointees) in enumerate(wire["points_to"]):
        data = encoded.get(id(pointees))
        if data is None:
            data = encoded[id(pointees)] = dumps(expand(pointees))
        h.update(b"%s[%d," % (b"," if i else b"", p) + data + b"]")
    h.update(b"]}")
    return h.hexdigest()


def check_case(case, solution):
    assert expanded_named_digest(solution) == FROZEN[case]["named"]
    assert expanded_wire_digest(solution) == FROZEN[case]["wire"]
    # The expanded view is the stored set plus E, and only where Ω is.
    external = solution.external
    for p in solution.pointers():
        stored = solution._points_to[p]
        if OMEGA in stored:
            assert stored.isdisjoint(external)
            assert solution.points_to(p) == stored | external
        else:
            assert solution.points_to(p) is stored


CASES = sorted(case for case in FROZEN if case != XZ_CASE)


@pytest.mark.parametrize("case", CASES)
def test_expansion_reproduces_parent_digests(case):
    name, config_name, pts = case.split("|")
    config = dataclasses.replace(parse_name(config_name), pts=pts)
    check_case(case, run_configuration(program_named(name), config))


def test_xz_expansion_reproduces_parent_digests(xz_solution):
    check_case(XZ_CASE, xz_solution)


def test_every_case_is_checked():
    corpus = sorted(path.name for path in CORPUS.glob("*.c"))
    programs = corpus + ["corpus-linked"] + [
        f"{label}-{mode}" for label in SPECS for mode in MODES
    ]
    configs = ["IP+WL(FIFO)+PIP", "EP+WL(FIFO)", "IP+Reduce+WL(FIFO)+PIP"]
    expected = {
        f"{name}|{config}|{pts}"
        for name in programs
        for config in configs
        for pts in ("set", "bitset")
    }
    assert set(CASES) == expected and len(FROZEN) == len(expected) + 1


def test_decoder_rejects_omega_listed_with_a_member_of_e():
    """The old expanded wire form no longer decodes: a cached entry
    written in it is discarded instead of served."""
    solution = run_configuration(
        program_named("arena.c"), parse_name("IP+WL(FIFO)+PIP")
    )
    data = solution.to_canonical_dict()
    assert Solution.from_canonical_dict(data, solution.program) == solution
    x = min(solution.external)
    data["points_to"] = [
        [p, sorted(pointees + [x]) if pointees[:1] == [OMEGA_WIRE] else pointees]
        for p, pointees in data["points_to"]
    ]
    assert any(x in pointees for _, pointees in data["points_to"])
    with pytest.raises(ValueError):
        Solution.from_canonical_dict(data, solution.program)


@pytest.mark.parametrize("pts", ["set", "bitset"])
def test_ep_extraction_refuses_an_omega_set_missing_part_of_e(pts):
    """Dropping E from an EP set holding Ω is lossless only because Ω
    enters Sol(p) along an edge Ω → p (internals §6).  A program that
    puts Ω into Sol(p) without that edge breaks the rule, and extraction
    says so instead of storing a set whose expansion would invent x."""
    program = ConstraintProgram("no-omega-edge")
    x = program.add_var("x", pointer_compatible=True, is_memory=True)
    p = program.add_var("p", pointer_compatible=True, is_memory=False)
    omega = program.add_var(OMEGA, pointer_compatible=True, is_memory=True)
    program.omega = omega
    writable_set(program.base, omega).update({omega, x})
    writable_set(program.base, p).add(omega)
    with pytest.raises(AssertionError, match="lacks part of E"):
        SolverState(program, pts=pts).extract_solution()
    with pytest.raises(AssertionError, match="lacks part of E"):
        NaiveSolver(program, pts=pts).solve()
