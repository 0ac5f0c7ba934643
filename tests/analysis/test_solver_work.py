"""The solvers' work on 557.xz, pinned exactly.

One row per Table V configuration that ``perfbench``'s ``xz-configs``
workload sweeps (its ``CONFIG_LABELS``), solved on the full-scale
557.xz joint program (``xz_solution``), plus two EP rows on the bitset
backend.  Under IP no Sol set on 557.xz grows past the bitset's packing
rule, so the operation memo never sees a keyed value (no memo hits);
the EP rows carry Ω's members into packed sets and pin that path.  Each
solve starts from a freshly decoded program, as the workload does: the
offline reduction is memoised on the program object, so a reused
program would not count the reduced solve's own work.  The counters
are deterministic, so any change to what a solver, an iteration order
or a cycle detector does shows up here as an exact difference, on a
loaded machine too.
"""

import pytest

from repro.analysis import parse_name, prepare_program, solve_prepared
from repro.analysis.constraints import ConstraintProgram

COUNTERS = (
    "visits",
    "propagations",
    "pair_evals",
    "edges_added",
    "unifications",
    "memo_hits",
    "shared_sets",
)

WORK = {
    "IP+WL(FIFO)+PIP": (24228, 6954, 7755, 7850, 0, 0, 5411),
    "IP+OVS+WL(LRF)+OCD+PIP+PTS(bitset)": (17165, 3383, 5440, 5365, 4769, 0, 5411),
    "IP+WL(LRF)+HCD+LCD+PIP+PTS(bitset)": (24099, 6929, 7755, 7829, 29, 0, 5411),
    "IP+Reduce+WL(FIFO)+PIP+PTS(bitset)": (16494, 3257, 5417, 5379, 0, 0, 5411),
    "EP+WL(FIFO)+PTS(bitset)": (52748, 6148789, 834722, 99020, 0, 4466, 5411),
    "EP+WL(FIFO)+DP+PTS(bitset)": (52748, 6148789, 164740, 99020, 0, 2148, 5411),
}


@pytest.fixture(scope="module")
def xz_encoded(xz_solution):
    return xz_solution.program.to_dict()


@pytest.mark.parametrize(
    "name",
    WORK,
    ids=["fifo-pip", "ocd", "hcd-lcd", "reduce", "ep-fifo", "ep-fifo-dp"],
)
def test_xz_solver_work(name, xz_encoded, xz_solution):
    config = parse_name(name)
    program = ConstraintProgram.from_dict(xz_encoded)
    solution = solve_prepared(prepare_program(program, config), config)
    assert solution.to_named_canonical() == xz_solution.to_named_canonical()
    stats = solution.stats
    assert tuple(getattr(stats, key) for key in COUNTERS) == WORK[name]
