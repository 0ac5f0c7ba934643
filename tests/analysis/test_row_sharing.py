"""Empty constraint and solver rows share one immutable value.

Every empty ``base``/``simple_out`` row of a program is
``EMPTY_SET_ROW`` and every empty ``load_from``/``store_into`` row is
``EMPTY_LIST_ROW`` (internals §1); a ``SolverState`` does the same for
its ``succ``, ``loads``, ``stores`` and ``call_idx`` rows, and a union
hands the merged-away node's rows back (internals §3).  These tests pin
that representation wherever a program or a state is built, check that
no two variables or programs share a mutable row, and drive random
constraint sequences, a link and an EP lowering against a dense
reference that gives every row a container of its own.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.constraints import (
    EMPTY_LIST_ROW,
    EMPTY_SET_ROW,
    ConstraintProgram,
    ProgramSymbol,
)
from repro.analysis.omega import lower_to_explicit
from repro.analysis.reduce import reduce_program
from repro.analysis.solvers.base import Fixpoint, SolverState, WarmStart
from repro.analysis.solvers.cycles import OnlineCycleDetection
from repro.analysis.solvers.worklist import WorklistSolver
from repro.interchange import export_constraint_text, parse_constraint_text
from repro.link import link_programs
from repro.pipeline import Pipeline
from tests.analysis.test_cycle_stress import ring_program

CORPUS = sorted(
    (pathlib.Path(__file__).parents[2] / "examples" / "corpus").glob("*.c")
)
SET_ROWS = ("base", "simple_out")
LIST_ROWS = ("load_from", "store_into")
ROWS = SET_ROWS + LIST_ROWS


def own_rows(owner, set_rows=SET_ROWS, list_rows=LIST_ROWS):
    """The rows of ``owner`` that hold a container of their own, after
    checking that every empty row is the shared value of its kind."""
    rows = []
    for kinds, shared, own in (
        (set_rows, EMPTY_SET_ROW, set),
        (list_rows, EMPTY_LIST_ROW, list),
    ):
        for kind in kinds:
            for v, row in enumerate(getattr(owner, kind)):
                if row:
                    assert type(row) is own, f"{kind}[{v}]"
                    rows.append(row)
                else:
                    assert row is shared, f"{kind}[{v}] is an empty row of its own"
    return rows


def state_rows(state):
    return own_rows(
        state, set_rows=("succ", "loads", "stores"), list_rows=("call_idx",)
    )


def assert_unshared(*owners_rows):
    """No container is the row of two variables, programs or states."""
    rows = [row for rows in owners_rows for row in rows]
    assert len({id(row) for row in rows}) == len(rows)


@pytest.fixture(scope="module")
def members():
    pipeline = Pipeline()
    return [
        pipeline.constraints(pipeline.source(path.name, path.read_text())).program
        for path in CORPUS
    ]


@pytest.fixture(scope="module")
def linked(members):
    return link_programs(members).program


class TestProgramsShareEmptyRows:
    def test_c_frontend(self, members):
        assert_unshared(*(own_rows(program) for program in members))

    def test_from_dict(self, linked):
        decoded = ConstraintProgram.from_dict(linked.to_dict())
        assert decoded.to_dict() == linked.to_dict()
        assert_unshared(own_rows(decoded), own_rows(linked))

    def test_link(self, members, linked):
        assert_unshared(own_rows(linked), *(own_rows(p) for p in members))

    def test_lower_to_explicit(self, linked):
        ep = lower_to_explicit(linked)
        assert_unshared(own_rows(ep), own_rows(linked))

    def test_lir_importer(self, linked):
        imported = parse_constraint_text(export_constraint_text(linked))
        assert imported.digest() == linked.digest()
        own_rows(imported)

    @pytest.mark.parametrize("collapse_chains", [True, False])
    def test_reduce_rewrite(self, linked, collapse_chains):
        reduced = reduce_program(linked, collapse_chains=collapse_chains)
        assert_unshared(own_rows(reduced.program), own_rows(linked))

    def test_a_base_row_reduce_subsumes_is_shared_again(self):
        # x escapes and p ⊒ Ω, so Sol(p) holds x implicitly and the
        # reduction drops p ⊇ {x}; nothing is compacted away.
        program = ConstraintProgram("subsumed")
        x = program.add_memory("x")
        p = program.add_register("p")
        program.add_base(p, x)
        program.mark_externally_accessible(x)
        program.mark_points_to_external(p)
        reduced = reduce_program(program)
        assert reduced.new2old is None
        assert reduced.program.base[p] is EMPTY_SET_ROW
        assert program.base[p] == {x}

    def test_a_linker_self_edge_leaves_the_row_shared(self):
        # add_simple drops self-edges, but a decoded payload may hold
        # one; the linker drops it too, and the row it emptied again
        # goes back to the shared value.
        program = ConstraintProgram("self")
        p = program.add_register("p")
        data = program.to_dict()
        data["simple_out"][p] = [p]
        member = ConstraintProgram.from_dict(data)
        assert member.simple_out[p] == {p}
        joint = link_programs([member]).program
        assert joint.simple_out[p] is EMPTY_SET_ROW


class TestWritersGoThroughTheHelpers:
    def test_a_direct_write_raises_and_leaves_other_rows_empty(self):
        program = ConstraintProgram()
        x = program.add_memory("x")
        p = program.add_register("p")
        with pytest.raises(AttributeError):
            program.base[p].add(x)
        with pytest.raises(AttributeError):
            program.load_from[p].append(x)
        assert program.base[x] is EMPTY_SET_ROW
        assert program.load_from[x] is EMPTY_LIST_ROW
        program.add_base(p, x)
        assert program.base[p] == {x} and program.base[x] is EMPTY_SET_ROW


class TestSolverStateRows:
    def test_before_solving(self, linked):
        state = SolverState(linked)
        assert_unshared(state_rows(state), own_rows(linked))

    @pytest.mark.parametrize("seed", range(6))
    def test_merged_away_rows_after_unions(self, seed):
        program = ring_program(seed)
        solver = WorklistSolver(program, cycle_detector=OnlineCycleDetection())
        solver.solve()
        state = solver.state
        assert state.any_unions
        dead = [v for v in range(program.num_vars) if state.uf.find(v) != v]
        assert dead
        for v in dead:
            assert state.succ[v] is EMPTY_SET_ROW
            assert state.loads[v] is EMPTY_SET_ROW
            assert state.stores[v] is EMPTY_SET_ROW
            assert state.call_idx[v] is EMPTY_LIST_ROW
        # canonical_succ hands back a row a collapse empties.
        assert_unshared(state_rows(state), own_rows(program))

    def test_pip_addition_4_hands_back_the_row_it_empties(self):
        # n's pointees escape (Ω ⊒ n) and p points to Ω (p ⊒ Ω), so
        # addition 4 elides n's only edge n → p.
        program = ConstraintProgram("pip4")
        x = program.add_memory("x")
        n = program.add_register("n")
        p = program.add_register("p")
        program.add_base(n, x)
        program.add_simple(p, n)
        program.mark_pointees_escape(n)
        program.mark_points_to_external(p)
        solver = WorklistSolver(program, pip=True)
        solver.solve()
        state = solver.state
        assert state.stats.pip_edges_elided == 1
        assert state.succ[n] is EMPTY_SET_ROW
        assert_unshared(state_rows(state), own_rows(program))

    def test_seed_hands_back_a_row_only_a_self_edge_reached(self):
        # A previous edge r → d lands on one representative once r and
        # d are unified, so seeding it adds nothing to that row.
        program = ConstraintProgram("seed")
        x = program.add_memory("x")
        r = program.add_register("r")
        d = program.add_register("d")
        program.add_base(r, x)
        solution = WorklistSolver(program).solve()
        fixpoint = Fixpoint(pe=[], edges=[(r, (d,))], unions=[], groups=[])
        state = SolverState(program)
        state.union(r, d)
        state.seed(WarmStart(solution, fixpoint, [x, r, d], []))
        assert state.succ[state.find(r)] is EMPTY_SET_ROW
        assert_unshared(state_rows(state), own_rows(program))


# ----------------------------------------------------------------------
# Differential against a dense reference
# ----------------------------------------------------------------------


class DenseProgram(ConstraintProgram):
    """The reference: every variable gets a container of its own for
    every row at creation, as before the rows were shared."""

    def add_var(self, name, pointer_compatible, is_memory):
        v = super().add_var(name, pointer_compatible, is_memory)
        self.base[v] = set()
        self.simple_out[v] = set()
        self.load_from[v] = []
        self.store_into[v] = []
        return v


N_VARS = 10
#: (pointer compatible, memory) per variable: registers, pointer
#: memory and scalar memory, so §V-B normalisation turns some
#: constraints into flags
KINDS = st.lists(
    st.sampled_from([(True, False), (True, True), (False, True)]),
    min_size=N_VARS,
    max_size=N_VARS,
)
VAR = st.integers(0, N_VARS - 1)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["base", "simple", "load", "store", "pe", "pte"]),
        VAR,
        VAR,
    ),
    max_size=30,
)
#: memory variables 0..SYMBOLS-1 are the linked symbols "g0", "g1", …
SYMBOLS = 3


def build(cls, name, kinds, ops, defines):
    program = cls(name)
    for v, (in_p, in_m) in enumerate(kinds):
        program.add_var(f"{name}.v{v}", in_p, in_m or v < SYMBOLS)
    linkage = "external" if defines else "import"
    for v in range(SYMBOLS):
        program.add_symbol(ProgramSymbol(f"g{v}", v, "data", linkage, defines, "int*"))
    for op, a, b in ops:
        if op == "base":
            if program.in_m[b]:
                program.add_base(a, b)
        elif op == "simple":
            program.add_simple(a, b)
        elif op == "load":
            program.add_load(a, b)
        elif op == "store":
            program.add_store(a, b)
        elif op == "pe":
            program.mark_pointees_escape(a)
        else:
            program.mark_points_to_external(a)
    return program


def dense_link_rows(members, linked):
    """The joint rows, built densely from each member through its map."""
    n = linked.program.num_vars
    base = [set() for _ in range(n)]
    simple_out = [set() for _ in range(n)]
    load_from = [[] for _ in range(n)]
    store_into = [[] for _ in range(n)]
    for member in members:
        m = linked.var_maps[member.name]
        for v in range(member.num_vars):
            j = m[v]
            base[j].update(m[x] for x in member.base[v])
            simple_out[j].update(m[p] for p in member.simple_out[v] if m[p] != j)
            load_from[j].extend(m[p] for p in member.load_from[v])
            store_into[j].extend(m[q] for q in member.store_into[v])
    return [base, simple_out, load_from, store_into]


def dense_ep_rows(program):
    """The rows of the EP lowering (Table II), built densely."""
    omega = program.num_vars
    base = [set(row) for row in program.base] + [{omega}]
    simple_out = [set(row) for row in program.simple_out] + [set()]
    load_from = [list(row) for row in program.load_from] + [[omega]]
    store_into = [list(row) for row in program.store_into] + [[omega]]
    for v in range(program.num_vars):
        if program.flag_ea[v]:
            base[omega].add(v)
        if program.flag_pte[v]:
            simple_out[omega].add(v)
        if program.flag_pe[v]:
            simple_out[v].add(omega)
        if program.flag_sscalar[v]:
            store_into[v].append(omega)
        if program.flag_lscalar[v]:
            load_from[v].append(omega)
    return [base, simple_out, load_from, store_into]


def canonical_rows(rows):
    return [[sorted(row) for row in kind] for kind in rows]


def encoded_rows(program):
    data = program.to_dict()
    return [data[kind] for kind in ROWS]


@settings(max_examples=80, deadline=None)
@given(KINDS, OPS, KINDS, OPS)
def test_random_programs_link_and_lowering_match_dense(kinds_a, ops_a, kinds_b, ops_b):
    shared = [
        build(ConstraintProgram, "a", kinds_a, ops_a, True),
        build(ConstraintProgram, "b", kinds_b, ops_b, False),
    ]
    dense = [
        build(DenseProgram, "a", kinds_a, ops_a, True),
        build(DenseProgram, "b", kinds_b, ops_b, False),
    ]
    for program, reference in zip(shared, dense):
        assert program.to_dict() == reference.to_dict()
    assert_unshared(*(own_rows(program) for program in shared))

    linked = link_programs(shared)
    joint = linked.program
    assert joint.to_dict() == link_programs(dense).program.to_dict()
    assert encoded_rows(joint) == canonical_rows(dense_link_rows(dense, linked))
    assert_unshared(own_rows(joint), *(own_rows(program) for program in shared))

    ep = lower_to_explicit(joint)
    assert encoded_rows(ep) == canonical_rows(dense_ep_rows(joint))
    assert_unshared(own_rows(ep), own_rows(joint))


def test_linked_xz_holds_one_container_per_non_empty_row(xz_solution):
    """The full-scale 557.xz joint program (generator seed 0, linked in
    generator order): 12,810 of its 75,224 rows are non-empty, and only
    those hold a container."""
    joint = xz_solution.program
    assert joint.num_vars == 18806
    counts = {
        kind: sum(1 for row in getattr(joint, kind) if row) for kind in ROWS
    }
    assert counts == {
        "base": 5925,
        "simple_out": 1541,
        "load_from": 1809,
        "store_into": 3535,
    }
    assert len(own_rows(joint)) == 12810
