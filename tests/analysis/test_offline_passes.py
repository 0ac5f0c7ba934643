"""The offline passes on 557.xz, pinned exactly.

The offline passes decide which variables a solve unifies and in what
order it meets them: OVS/Reduce labelling, HCD's offline graph and
OCD's initial Tarjan pass.  A change to how they walk the constraint
graph — which rows, in which order, through which SCC kernel — must
leave every output identical, order included, because the order picks
union survivors and the OCD topological positions.  The exactness
suites only see the final solution, which a different survivor leaves
unchanged, so these pins hash each pass's output instead:

- the Tarjan output on the OVS offline graph (nodes ``v`` and
  ``ref(v) = n + v``, simple and load edges, every variable a root),
  SCC order and member order included;
- ``pointer_equivalence_groups``;
- HCD's ``static_groups`` and ``hcd_map`` (insertion order included);
- OCD's ``_pos`` right after ``before_solve`` in the ``ocd``
  configuration of ``perfbench``'s ``xz-configs``.

``explicit_pointees`` (Table VI) is pinned for each ``xz-configs``
configuration.  Nothing here depends on string hashing, so the pins
hold under every ``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.analysis import parse_name, prepare_program, solve_prepared
from repro.analysis.constraints import ConstraintProgram
from repro.analysis.reduce import pointer_equivalence_groups
from repro.analysis.solvers.cycles import (
    HybridCycleDetection,
    OnlineCycleDetection,
    strongly_connected_components,
)

OVS_TARJAN = (20615, "6471f5dd729a00edaa256767e3091aa6c1b710dfc5db27b107d3035c67e9b0a5")
OVS_GROUPS = (1928, "6a0202f444605b77b9a0a81b3d19dae3db987306132d085fdf09f4dd582fc87d")
HCD_OFFLINE = (0, 17, "5a1b831c55ea25eff0fe8b303f1d04a45aea2063c0bd26c0e163f4d949d7e664")
OCD_POSITIONS = (14067, "720324341485d7eddee4dfb965e131a3b306d30d1635cbad2c82c670c5a47025")

EXPLICIT_POINTEES = {
    "IP+WL(FIFO)+PIP": 12495,
    "IP+OVS+WL(LRF)+OCD+PIP+PTS(bitset)": 8569,
    "IP+WL(LRF)+HCD+LCD+PIP+PTS(bitset)": 12469,
    "IP+Reduce+WL(FIFO)+PIP+PTS(bitset)": 8479,
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def xz_program(xz_solution):
    return xz_solution.program


@pytest.fixture(scope="module")
def xz_encoded(xz_program):
    return xz_program.to_dict()


def ovs_offline_graph(program):
    """The labelling's offline graph, built densely: roots as a set of
    every touched node and every variable, successors from a dict."""
    n = program.num_vars
    adj = {}
    roots = set()
    for src in range(n):
        for dst in program.simple_out[src]:
            adj.setdefault(src, []).append(dst)
            roots.update((src, dst))
        for dst in program.load_from[src]:
            adj.setdefault(n + src, []).append(dst)
            roots.update((n + src, dst))
    roots.update(range(n))
    return roots, adj


def test_tarjan_on_the_ovs_offline_graph(xz_program):
    roots, adj = ovs_offline_graph(xz_program)
    sccs = strongly_connected_components(roots, lambda v: adj.get(v, ()))
    assert (len(sccs), digest(sccs)) == OVS_TARJAN


def test_pointer_equivalence_groups(xz_program):
    groups = pointer_equivalence_groups(xz_program)
    assert (len(groups), digest(groups)) == OVS_GROUPS


def test_hcd_offline_analysis(xz_encoded):
    det = HybridCycleDetection(ConstraintProgram.from_dict(xz_encoded))
    pinned = (det.static_groups, list(det.hcd_map.items()))
    assert (
        len(det.static_groups), len(det.hcd_map), digest(pinned)
    ) == HCD_OFFLINE


def test_ocd_positions_after_the_initial_pass(monkeypatch, xz_encoded):
    captured = []
    before_solve = OnlineCycleDetection.before_solve

    def capture(self):
        before_solve(self)
        captured.append(list(self._pos.items()))

    monkeypatch.setattr(OnlineCycleDetection, "before_solve", capture)
    config = parse_name("IP+OVS+WL(LRF)+OCD+PIP+PTS(bitset)")
    program = ConstraintProgram.from_dict(xz_encoded)
    solve_prepared(prepare_program(program, config), config)
    (pos,) = captured
    assert (len(pos), digest(pos)) == OCD_POSITIONS


@pytest.mark.parametrize(
    "name", EXPLICIT_POINTEES, ids=["fifo-pip", "ocd", "hcd-lcd", "reduce"]
)
def test_explicit_pointees(name, xz_encoded):
    config = parse_name(name)
    program = ConstraintProgram.from_dict(xz_encoded)
    solution = solve_prepared(prepare_program(program, config), config)
    assert solution.stats.explicit_pointees == EXPLICIT_POINTEES[name]
