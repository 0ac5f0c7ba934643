"""Byte identity of the deduplicating solution encoders.

``Solution.to_canonical_dict``, ``iter_named_canonical`` /
``to_named_canonical`` and ``named_canonical_digest`` sort and encode
each distinct interned Sol set once and reuse the result for every
pointer that shares it.  The reference functions below are per-pointer
encoders kept as the specification: each derives the stored
(implicit-Ω) set from the expanded view ``points_to(p)`` — a set
holding Ω lists only its members outside E — and every encoder must
produce exactly their output, over the example corpus and a generated
multi-TU linked program, crossed with both points-to backends,
reduction on/off and both Ω representations.
"""

import dataclasses
import functools
import hashlib
import json
import pathlib

import pytest

from repro.analysis import parse_name, run_configuration
from repro.analysis.constraints import ConstraintProgram
from repro.analysis.omega import OMEGA
from repro.analysis.solution import OMEGA_WIRE, Solution, SolverStats
from repro.bench.corpus import ProgramSpec, generate_c_source, plan_program
from repro.pipeline import Pipeline

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "corpus"


# ----------------------------------------------------------------------
# Reference encoders: one sort and one encode per pointer
# ----------------------------------------------------------------------


def reference_stored(solution, p):
    """The specified stored form of Sol(p): with Ω, E stays implicit."""
    full = solution.points_to(p)
    return full - solution.external if OMEGA in full else full


def reference_canonical(solution):
    return {
        "points_to": [
            [
                p,
                sorted(
                    OMEGA_WIRE if x == OMEGA else x
                    for x in reference_stored(solution, p)
                ),
            ]
            for p in solution.pointers()
        ],
        "external": sorted(solution.external),
        "stats": solution.stats.to_dict(),
    }


def reference_iter_named(solution):
    program = solution.program
    names = program.var_names
    mem = sorted(
        (names[p], p) for p in solution.pointers() if program.in_m[p]
    )
    for name, p in mem:
        yield name, sorted(
            x if x == OMEGA else names[x]
            for x in reference_stored(solution, p)
        )


def reference_named(solution):
    names = solution.program.var_names
    return {
        "points_to": dict(reference_iter_named(solution)),
        "external": sorted(names[x] for x in solution.external),
    }


def reference_digest(solution):
    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    h = hashlib.sha256()
    h.update(b'{"external":')
    h.update(dumps(reference_named(solution)["external"]).encode("utf-8"))
    h.update(b',"points_to":{')
    first = True
    for name, pointees in reference_iter_named(solution):
        if not first:
            h.update(b",")
        first = False
        h.update(dumps(name).encode("utf-8"))
        h.update(b":")
        h.update(dumps(pointees).encode("utf-8"))
    h.update(b"}}")
    return h.hexdigest()


def assert_encoders_match(solution):
    canonical = solution.to_canonical_dict()
    assert canonical == reference_canonical(solution)
    assert list(solution.iter_named_canonical()) == list(
        reference_iter_named(solution)
    )
    named = solution.to_named_canonical()
    assert named == reference_named(solution)
    digest = solution.named_canonical_digest()
    assert digest == reference_digest(solution)
    flat = json.dumps(named, sort_keys=True, separators=(",", ":"))
    assert digest == hashlib.sha256(flat.encode("utf-8")).hexdigest()
    # The wire form decodes back to the same answer and re-encodes
    # to the same bytes.
    decoded = Solution.from_canonical_dict(canonical, solution.program)
    assert decoded == solution
    assert decoded.to_canonical_dict() == canonical


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


def _corpus_program(name):
    pipeline = Pipeline()
    path = CORPUS / name
    return pipeline.constraints(
        pipeline.source(path.name, path.read_text())
    ).program


def _linked_program():
    pipeline = Pipeline()
    spec = ProgramSpec(name="encid", seed=13, n_units=4, unit_size=35)
    members = [
        pipeline.constraints(pipeline.source(u.name, generate_c_source(u)))
        for u in plan_program(spec)
    ]
    return pipeline.link(members).linked.program


PROGRAMS = sorted(p.name for p in CORPUS.glob("*.c")) + ["linked"]


@functools.lru_cache(maxsize=None)
def program_named(name):
    return _linked_program() if name == "linked" else _corpus_program(name)


@pytest.mark.parametrize("pts", ["set", "bitset"])
@pytest.mark.parametrize("reduce", [False, True])
@pytest.mark.parametrize("base", ["IP+WL(FIFO)+PIP", "EP+WL(FIFO)"])
@pytest.mark.parametrize("program", PROGRAMS)
def test_encoders_match_reference(program, base, reduce, pts):
    config = dataclasses.replace(parse_name(base), reduce=reduce, pts=pts)
    solution = run_configuration(program_named(program), config)
    assert_encoders_match(solution)


def test_matrix_covers_shared_sets():
    """The matrix exercises sharing: the linked program's sets back
    many more pointers than there are distinct sets."""
    solution = run_configuration(
        program_named("linked"), parse_name("IP+WL(FIFO)+PIP")
    )
    pointers = list(solution.pointers())
    distinct = {id(solution.points_to(p)) for p in pointers}
    assert len(distinct) < len(pointers) / 2


# ----------------------------------------------------------------------
# Hand-built solutions
# ----------------------------------------------------------------------


def _program(specs):
    """A program of (name, pointer?, memory?) variables, no constraints."""
    program = ConstraintProgram("hand")
    for name, pointer, memory in specs:
        program.add_var(name, pointer_compatible=pointer, is_memory=memory)
    return program


def test_equal_sets_held_as_distinct_objects():
    program = _program(
        [
            ("r1", True, False),
            ("r2", True, False),
            ("cell_b", True, True),
            ("cell_a", True, True),
            ("x", False, True),
            ("y", False, True),
        ]
    )
    first = frozenset({5, OMEGA})
    second = frozenset({OMEGA, 5})
    third = frozenset({5})
    assert first == second and first is not second
    solution = Solution(
        program,
        {0: first, 1: second, 2: frozenset({5}), 3: third},
        frozenset({4}),
        SolverStats(),
    )
    assert_encoders_match(solution)
    named = solution.to_named_canonical()
    assert named["points_to"] == {"cell_a": ["y"], "cell_b": ["y"]}
    assert solution.to_canonical_dict()["points_to"][0] == [0, [-1, 5]]
    assert solution.points_to(0) == frozenset({4, 5, OMEGA})


def test_one_set_shared_inside_and_outside_m():
    program = _program(
        [
            ("reg", True, False),
            ("glob", True, True),
            ("tmp", True, False),
            ("heap", True, True),
            ("obj", False, True),
        ]
    )
    shared = frozenset({OMEGA})
    solution = Solution(
        program,
        {0: shared, 1: shared, 2: shared, 3: frozenset()},
        frozenset({3, 4}),
        SolverStats(),
    )
    assert_encoders_match(solution)
    assert solution.to_named_canonical() == {
        "points_to": {"glob": [OMEGA], "heap": []},
        "external": ["heap", "obj"],
    }
    wire = solution.to_canonical_dict()["points_to"]
    assert [p for p, _ in wire] == [0, 1, 2, 3]
    assert wire[0][1] == wire[1][1] == wire[2][1] == [-1]
    assert solution.points_to(1) == frozenset({3, 4, OMEGA})


# ----------------------------------------------------------------------
# The decoder checks every index against the program
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "tamper",
    [
        lambda d: d["points_to"][0].__setitem__(0, 10**6),
        lambda d: d["points_to"][0].__setitem__(0, -2),
        lambda d: d["points_to"][0].__setitem__(0, 1.0),
        lambda d: d["points_to"][0][1].append(10**6),
        lambda d: d["points_to"][0][1].append(-7),
        lambda d: d["points_to"][0][1].append("x"),
        lambda d: d["points_to"][0].__setitem__(1, [True]),
        lambda d: d["external"].append(10**6),
        lambda d: d["external"].append(OMEGA_WIRE),
    ],
    ids=[
        "pointer-high",
        "pointer-negative",
        "pointer-float",
        "pointee-high",
        "pointee-negative",
        "pointee-str",
        "pointee-bool",
        "external-high",
        "external-omega",
    ],
)
def test_decoder_rejects_indexes_outside_the_program(tamper):
    solution = run_configuration(
        program_named("arena.c"), parse_name("IP+WL(FIFO)+PIP")
    )
    data = json.loads(json.dumps(solution.to_canonical_dict()))
    tamper(data)
    with pytest.raises(ValueError):
        Solution.from_canonical_dict(data, solution.program)
