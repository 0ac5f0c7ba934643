"""The worklist solver's dirty set exists for DP only.

Under difference propagation a dirty node's visit processes its whole
Sol set instead of its delta; nothing else reads the set, so a solver
without DP must keep it empty from set-up to the end of the solve.
"""

import pytest

import repro.analysis.config as config_mod
from repro.analysis import parse_name, run_configuration
from repro.analysis.solvers.worklist import WorklistSolver
from repro.analysis.testing import random_program

#: PIP marks, OCD/HCD/LCD unions and OVS pre-unions all used to mark
#: nodes dirty
NON_DP = [
    "IP+WL(FIFO)+PIP",
    "IP+WL(LRF)+OCD+PIP",
    "IP+WL(TOPO)+HCD+LCD+PIP",
    "IP+OVS+WL(LIFO)+PIP",
    "EP+WL(FIFO)",
]
DP = ["IP+WL(FIFO)+DP", "IP+WL(LRF)+DP+PIP", "EP+WL(FIFO)+DP"]


@pytest.fixture
def solvers(monkeypatch):
    """(solver, dirty entries at set-up) for every worklist solve."""
    made = []

    class Recording(WorklistSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append((self, len(self._dirty)))

    monkeypatch.setattr(config_mod, "WorklistSolver", Recording)
    return made


@pytest.mark.parametrize("name", NON_DP)
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_a_solver_without_dp_holds_no_dirty_entries(solvers, name, seed):
    program = random_program(seed, n_vars=35, n_constraints=70)
    run_configuration(program, parse_name(name))
    [(solver, at_setup)] = solvers
    assert at_setup == 0
    assert solver._dirty == set()
    assert solver.state.stats.visits > 0


@pytest.mark.parametrize("name", DP)
def test_a_dp_solver_starts_with_every_node_dirty(solvers, name):
    program = random_program(3, n_vars=35, n_constraints=70)
    run_configuration(program, parse_name(name))
    [(solver, at_setup)] = solvers
    assert at_setup == solver.program.num_vars > 0
