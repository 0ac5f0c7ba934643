"""The re-link exactness matrix.

``repro audit escape ab.lir c.c d.c`` links an exported joint program
with more members.  That front door must be invisible: whichever
members are pre-linked, exported as LIR and parsed back — a prefix, a
suffix, an interior run, both halves, every member on its own, every
node of a pairwise merge tree or every step of a left- or right-deep
fold — the final joint program must

- export the same constraint text as the flat :func:`link_programs`
  over all members, apart from its ``.program`` name, and
- solve to a byte-identical named canonical solution (and streamed
  digest),

in both link modes, across a representative slice of the
configuration space and both points-to-set backends.  Internalizing
happens at the root only; ``test_staged_merge`` shows why.

Texts and solutions are compared by first differing line and by
digest: pytest's own diff of two large texts takes minutes.
"""

import functools
import hashlib
import json

import pytest

from repro.analysis import parse_name, run_configuration
from repro.bench.corpus import ProgramSpec, generate_c_source, plan_program
from repro.interchange import export_constraint_text, parse_constraint_text
from repro.link import LinkOptions, link_programs
from repro.pipeline import Pipeline

REPRESENTATIVE = [
    "IP+WL(FIFO)",
    "IP+WL(FIFO)+PIP",
    "EP+WL(FIFO)+LCD+DP",
    "IP+OVS+WL(LRF)+OCD+PIP",
    "IP+Reduce+WL(FIFO)+PIP",
]

MODES = {
    "open": LinkOptions(),
    "internalize": LinkOptions(internalize=True, keep=("main",)),
}

#: six units of moderate size; the shape and split tests link these
MATRIX_SPEC = ProgramSpec(name="rl31", seed=31, n_units=6, unit_size=20)

#: 16 small units; the tree tests link their prefixes
TREE_SPEC = ProgramSpec(
    name="rl116", seed=116, n_units=16, unit_size=4, n_functions=2,
    n_globals=2, n_shared_ptr_globals=1, max_sibling_fns=2, n_imports=2,
)


def named_digest(solution):
    """sha256 of the named canonical JSON, encoded the flat way."""
    text = json.dumps(
        solution.to_named_canonical(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def body(program):
    """Exported constraint lines minus ``.program``, which names the
    link tree."""
    return [
        line
        for line in export_constraint_text(program).split("\n")
        if not line.startswith(".program ")
    ]


def first_difference(got, want):
    """None when two line lists agree, else where they first part."""
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return index, g, w
    if len(got) != len(want):
        return "lengths", len(got), len(want)
    return None


@functools.lru_cache(maxsize=None)
def members(spec):
    """The TU constraint programs of one generated multi-unit program.

    Cached: the linker never mutates its members, and every test links
    fresh joint programs from them.
    """
    pipeline = Pipeline()
    return tuple(
        pipeline.constraints(
            pipeline.source(u.name, generate_c_source(u))
        ).program
        for u in plan_program(spec)
    )


def exported(programs):
    """Open-link ``programs``, export the joint program, parse it back:
    what ``repro constraints export … --out ab.lir`` hands a later
    ``repro audit ab.lir …``."""
    linked = link_programs(list(programs), LinkOptions())
    return parse_constraint_text(
        export_constraint_text(linked.program),
        linked.program.name + ".lir",
    )


def exported_tu(program):
    """One TU exported pre-link, as ``repro constraints export a.c``."""
    return parse_constraint_text(
        export_constraint_text(program), program.name + ".lir"
    )


def pairwise_rounds(programs):
    """Merge adjacent pairs round by round, exporting every interior
    node, until two nodes are left for the root link."""
    level = list(programs)
    while len(level) > 2:
        level = [
            exported(level[i:i + 2]) if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
    return level


def left_deep(programs):
    """Fold left, exporting every partial link, up to the last member."""
    programs = list(programs)
    acc = exported(programs[:2])
    for program in programs[2:-1]:
        acc = exported([acc, program])
    return [acc, programs[-1]]


def right_deep(programs):
    """Fold right, exporting every partial link, down to the first
    member."""
    programs = list(programs)
    acc = exported(programs[-2:])
    for program in reversed(programs[1:-2]):
        acc = exported([program, acc])
    return [programs[0], acc]


#: name -> root members, built from the six matrix members
SHAPES = {
    "halves": lambda m: [exported(m[:3]), exported(m[3:])],
    "suffix": lambda m: [*m[:3], exported(m[3:])],
    "interior": lambda m: [m[0], exported(m[1:5]), m[5]],
    "every-tu": lambda m: [exported_tu(p) for p in m],
    "pairwise": pairwise_rounds,
    "left-deep": left_deep,
}


@functools.lru_cache(maxsize=None)
def flat(mode):
    return link_programs(list(members(MATRIX_SPEC)), MODES[mode])


@functools.lru_cache(maxsize=None)
def flat_digest(mode, config_name):
    return named_digest(
        run_configuration(flat(mode).program, parse_name(config_name))
    )


@functools.lru_cache(maxsize=None)
def flat_body(mode):
    return body(flat(mode).program)


@functools.lru_cache(maxsize=None)
def relinked(shape, mode):
    return link_programs(SHAPES[shape](members(MATRIX_SPEC)), MODES[mode])


class TestShapes:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_export_matches_flat(self, mode, shape):
        root = relinked(shape, mode)
        assert first_difference(body(root.program), flat_body(mode)) is None

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("config_name", REPRESENTATIVE)
    def test_solution_matches_flat(self, config_name, mode, shape):
        root = relinked(shape, mode)
        solution = run_configuration(root.program, parse_name(config_name))
        oracle = flat_digest(mode, config_name)
        assert named_digest(solution) == oracle
        assert solution.named_canonical_digest() == oracle


class TestSplitPoints:
    @pytest.mark.parametrize("split", range(1, MATRIX_SPEC.n_units))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_exported_prefix_then_rest(self, mode, split):
        m = members(MATRIX_SPEC)
        root = link_programs([exported(m[:split]), *m[split:]], MODES[mode])
        assert first_difference(body(root.program), flat_body(mode)) is None
        config_name = "IP+WL(FIFO)+PIP"
        assert named_digest(
            run_configuration(root.program, parse_name(config_name))
        ) == flat_digest(mode, config_name)


class TestTreeSizes:
    """Every prefix of a 16-unit program from 3 members up (2 would be
    the flat link), so pairwise rounds meet odd tails at every depth and
    folds run up to 14 export steps."""

    @pytest.mark.parametrize("n_units", range(3, TREE_SPEC.n_units + 1))
    @pytest.mark.parametrize(
        "merge",
        [pairwise_rounds, left_deep, right_deep],
        ids=["pairwise", "left-deep", "right-deep"],
    )
    def test_staged_link_matches_flat(self, merge, n_units):
        m = members(TREE_SPEC)[:n_units]
        whole = link_programs(list(m), LinkOptions())
        root = link_programs(merge(m), LinkOptions())
        assert first_difference(body(root.program), body(whole.program)) is None
        config = parse_name("IP+WL(FIFO)+PIP")
        assert named_digest(run_configuration(root.program, config)) == (
            named_digest(run_configuration(whole.program, config))
        )


class TestBackends:
    @pytest.mark.parametrize("pts", ["set", "bitset"])
    @pytest.mark.parametrize("reduce_", [False, True], ids=["plain", "reduce"])
    def test_backend_and_reduce_agree(self, reduce_, pts):
        name = "IP+Reduce+WL(LRF)+OCD+PIP" if reduce_ else "IP+WL(LRF)+OCD+PIP"
        if pts == "bitset":
            name += "+PTS(bitset)"
        config = parse_name(name)
        assert config.pts == pts and config.reduce == reduce_
        root = relinked("halves", "open")
        assert named_digest(run_configuration(root.program, config)) == (
            named_digest(run_configuration(flat("open").program, config))
        )
