"""Empty Sol_e and ΔSol rows share one immutable value per backend.

A ``SolverState`` holds its backend's ``shared_empty`` in every empty
Sol_e / ΔSol row (internals §3, §4), and ``SolverState.grow`` is the
one copy-on-write step that swaps a fresh value in when a member
arrives.  These tests check, at set-up and after solves under every
technique that writes Sol rows, that

- every empty row is the shared value, and the shared value is still
  empty and still of its immutable type;
- no two rows share a non-empty container;

and that a write which bypasses ``grow`` raises instead of rebinding or
mutating the shared value.  The companion pins for the constraint and
adjacency rows are in ``test_row_sharing.py``.
"""

import pathlib

import pytest

from repro.analysis import parse_name, prepare_program, solve_prepared
from repro.analysis.constraints import ConstraintProgram
from repro.analysis.pts import get_backend
from repro.analysis.pts.base import FrozenEmpty
from repro.analysis.pts.bitset import Bitset
from repro.analysis.solvers.base import SolverState, WarmStart
from repro.analysis.solvers.ovs import compute_ovs_groups
from repro.analysis.solvers.worklist import WorklistSolver
from repro.analysis.testing import random_program
from repro.link import link_programs
from repro.pipeline import Pipeline
from tests.analysis.test_cycle_stress import ring_program

CORPUS = sorted(
    (pathlib.Path(__file__).parents[2] / "examples" / "corpus").glob("*.c")
)
BACKENDS = ("set", "bitset")
OWN_TYPE = {"set": set, "bitset": Bitset}
#: every technique that writes Sol rows, under both representations
TECHNIQUES = (
    "IP+WL(FIFO)",
    "IP+WL(FIFO)+PIP",
    "IP+WL(FIFO)+DP",
    "IP+WL(LRF)+PIP+DP",
    "IP+OVS+WL(LRF)+OCD+PIP",
    "IP+WL(LRF)+HCD+LCD+PIP",
    "IP+Reduce+WL(FIFO)+PIP",
    "IP+Reduce+WL(FIFO)+DP",
    "EP+WL(FIFO)",
    "EP+WL(FIFO)+LCD+DP",
    "EP+OVS+WL(LRF)+OCD",
    "EP+Reduce+WL(FIFO)",
)


def assert_sol_rows(state):
    """Every empty Sol_e / ΔSol row is the shared value, which is still
    empty; no container is the row of two variables."""
    empty = state.empty
    assert empty is state.pts.shared_empty
    assert not empty and len(empty) == 0 and list(empty) == []
    own_type = OWN_TYPE[state.pts.name]
    members = empty.members if own_type is Bitset else empty
    assert type(members) is FrozenEmpty
    own = []
    for kind in ("sol", "dsol"):
        for v, value in enumerate(getattr(state, kind)):
            if value is empty:
                continue
            assert type(value) is own_type, f"{kind}[{v}]"
            assert value, f"{kind}[{v}] is an empty value of its own"
            own.append(value)
    assert len({id(value) for value in own}) == len(own)
    return own


@pytest.fixture(scope="module")
def linked():
    pipeline = Pipeline()
    members = [
        pipeline.constraints(pipeline.source(path.name, path.read_text())).program
        for path in CORPUS
    ]
    return link_programs(members).program


def programs(linked):
    yield linked
    for seed in range(4):
        yield ring_program(seed)
        yield random_program(seed, n_vars=40, n_constraints=120)


def solved_states(monkeypatch, program, name):
    """The states a solve under ``name`` extracts from."""
    states = []
    extract = SolverState.extract_solution

    def capture(self):
        states.append(self)
        return extract(self)

    monkeypatch.setattr(SolverState, "extract_solution", capture)
    config = parse_name(name)
    solution = solve_prepared(prepare_program(program, config), config)
    monkeypatch.undo()
    return solution, states


class TestSetUp:
    @pytest.mark.parametrize("pts", BACKENDS)
    @pytest.mark.parametrize("dp", [False, True])
    def test_every_empty_row_is_the_shared_value(self, linked, pts, dp):
        state = SolverState(linked, dp=dp, pts=pts)
        own = assert_sol_rows(state)
        with_base = sum(1 for row in linked.base if row)
        assert 0 < len(own) == with_base < linked.num_vars
        if dp:
            assert all(value is state.empty for value in state.sol)


class TestSolves:
    @pytest.mark.parametrize("pts", BACKENDS)
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_after_the_solve(self, monkeypatch, linked, technique, pts):
        name = f"{technique}+PTS({pts})"
        for program in programs(linked):
            solution, states = solved_states(monkeypatch, program, name)
            (state,) = states
            assert_sol_rows(state)
            # Reduce may widen never-read registers; the named form is
            # what every configuration must agree on.
            reference = solve_prepared(program, parse_name("IP+Naive"))
            assert (
                solution.to_named_canonical() == reference.to_named_canonical()
            )

    @pytest.mark.parametrize("pts", BACKENDS)
    def test_a_warm_seed(self, linked, pts):
        cold = WorklistSolver(
            linked, pip=True, pts=pts, keep=True,
            presolve_unions=compute_ovs_groups(linked),
        )
        solution = cold.solve()
        start = WarmStart(
            solution, cold.fixpoint, list(range(linked.num_vars)),
            list(range(0, linked.num_vars, 7)),
        )
        program = ConstraintProgram.from_dict(linked.to_dict())
        warm = WorklistSolver(
            program, pip=True, pts=pts, warm=start,
            presolve_unions=compute_ovs_groups(program),
        )
        assert warm.warm_started
        assert_sol_rows(warm.state)
        assert warm.solve() == solution
        assert_sol_rows(warm.state)


class TestWritesBypassingGrowRaise:
    @pytest.fixture(params=BACKENDS)
    def state(self, request, linked):
        return SolverState(linked, dp=True, pts=request.param)

    def empty_rows(self, state):
        v = next(v for v, value in enumerate(state.dsol) if value is state.empty)
        return v, state.pts.from_iter([0, 1])

    @pytest.mark.parametrize("kind", ["sol", "dsol"])
    def test_in_place_operators(self, state, kind):
        rows = getattr(state, kind)
        v, items = self.empty_rows(state)
        for write in (
            lambda: rows[v].__ior__(items),
            lambda: rows[v].__isub__(items),
            lambda: rows[v].__iand__(items),
        ):
            with pytest.raises(TypeError):
                write()
        with pytest.raises(TypeError):
            rows[v] |= items
        with pytest.raises(AttributeError):
            rows[v].add(0)
        assert rows[v] is state.empty
        assert_sol_rows(state)

    def test_fused_helpers(self, state):
        v, items = self.empty_rows(state)
        pts = state.pts
        with pytest.raises(TypeError):
            pts.union_grow(state.sol[v], items)
        with pytest.raises(TypeError):
            pts.delta_update(state.dsol[v], items, pts.empty())
        assert state.sol[v] is state.dsol[v] is state.empty
        assert_sol_rows(state)

    def test_grow_swaps_in_a_value_of_the_rows_own(self, state):
        v, items = self.empty_rows(state)
        assert state.grow(state.sol, v, state.empty) == 0
        assert state.grow(state.dsol, v, items, state.pts.from_iter([1])) == 1
        assert state.sol[v] is state.empty
        assert state.grow(state.sol, v, items) == 2
        assert state.sol[v] is not items and state.sol[v] == items
        assert list(state.dsol[v]) == [0]
        assert_sol_rows(state)

    def test_binary_operators_leave_it_alone(self, state):
        empty, pts = state.empty, state.pts
        items = pts.from_iter([3])
        for result in (empty | items, empty - items, empty & items, items - empty):
            assert result is not empty
        assert list(empty | items) == [3] and not empty


def test_the_backends_share_one_value_each():
    for name in BACKENDS:
        backend = get_backend(name)
        rows = backend.copy_rows([frozenset(), frozenset({1}), frozenset()])
        assert rows[0] is rows[2] is backend.shared_empty
        assert list(rows[1]) == [1] and rows[1] is not backend.shared_empty
