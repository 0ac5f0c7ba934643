"""The OCD detector's Pearce–Kelly topological order.

A missed cycle or a stale order never changes a solution, only the work
spent reaching it, so no exactness suite can see these properties.
Every test runs the three OCD configurations of the paper's tables, on
both set backends, over cycle-heavy ring programs and random programs.
"""

import pytest

from repro.analysis import parse_name, run_configuration
from repro.analysis.solvers import cycles
from repro.analysis.solvers.cycles import OnlineCycleDetection
from repro.analysis.testing import random_program

from test_cycle_stress import ring_program

CONFIGS = [
    f"{name}+PTS({pts})"
    for name in ("IP+WL(FIFO)+OCD", "IP+OVS+WL(LRF)+OCD+PIP", "EP+OVS+WL(LRF)+OCD")
    for pts in ("set", "bitset")
]
PROGRAMS = [("ring", seed) for seed in range(20)] + [
    ("random", seed) for seed in range(12)
]


def _program(kind, seed):
    if kind == "ring":
        return ring_program(seed)
    return random_program(seed, n_vars=40, n_constraints=120)


def _order_violations(det):
    """Edges of the live graph that do not run forward in the order."""
    st = det.state
    pos = det._pos
    live = list(st.live_reps())
    assert set(pos) == set(live)
    assert len(set(pos.values())) == len(pos)
    return [
        (u, v) for u in live for v in st.canonical_succ(u) if not pos[u] < pos[v]
    ]


def _affected(det, src, dst):
    """δ⁺(dst) ∪ δ⁻(src) of an order-violating insertion src → dst,
    computed from scratch on the live graph."""
    st = det.state
    pos = det._pos
    lb, ub = pos[dst], pos[src]
    preds = {}
    for u in st.live_reps():
        for v in st.canonical_succ(u):
            preds.setdefault(v, set()).add(u)

    def reach(start, step, keep):
        seen, stack = {start}, [start]
        while stack:
            for w in step(stack.pop()):
                if w not in seen and keep(pos[w]):
                    seen.add(w)
                    stack.append(w)
        return seen

    fwd = reach(dst, st.canonical_succ, lambda p: p <= ub)
    bwd = reach(src, lambda v: preds.get(v, ()), lambda p: p >= lb)
    return fwd | bwd


@pytest.mark.parametrize("config", CONFIGS)
def test_order_holds_after_every_placed_insertion(monkeypatch, config):
    checks = []

    def checked(hook):
        def wrapper(self, *args):
            hook(self, *args)
            if self._deferred is None:  # no collapse pending
                assert _order_violations(self) == []
                checks.append(hook.__name__)

        return wrapper

    for name in ("on_new_edge", "on_visit"):
        hook = getattr(OnlineCycleDetection, name)
        monkeypatch.setattr(OnlineCycleDetection, name, checked(hook))
    for kind, seed in PROGRAMS:
        run_configuration(_program(kind, seed), parse_name(config))
    assert "on_new_edge" in checks


@pytest.mark.parametrize("config", CONFIGS)
def test_no_cycle_survives_the_solve(monkeypatch, config):
    detectors = []
    before_solve = OnlineCycleDetection.before_solve

    def capture(self):
        detectors.append(self)
        before_solve(self)

    monkeypatch.setattr(OnlineCycleDetection, "before_solve", capture)
    unified = 0
    for kind, seed in PROGRAMS:
        detectors.clear()
        program = _program(kind, seed)
        solution = run_configuration(program, parse_name(config))
        assert solution == run_configuration(program, parse_name("IP+Naive"))
        (det,) = detectors
        assert det._deferred is None
        st = det.state
        sccs = cycles.strongly_connected_components(
            st.live_reps(), st.canonical_succ
        )
        assert all(len(scc) == 1 for scc in sccs), (kind, seed)
        assert _order_violations(det) == []
        unified += solution.stats.unifications
    assert unified > 0


@pytest.mark.parametrize("config", CONFIGS)
def test_one_scc_pass_per_solve(monkeypatch, config):
    calls = []
    tarjan = cycles.strongly_connected_components

    def counted(roots, successors):
        calls.append(1)
        return tarjan(roots, successors)

    monkeypatch.setattr(cycles, "strongly_connected_components", counted)
    unified = 0
    for kind, seed in PROGRAMS:
        calls.clear()
        solution = run_configuration(_program(kind, seed), parse_name(config))
        assert len(calls) == 1, (kind, seed)
        unified += solution.stats.unifications
    assert unified > 0


@pytest.mark.parametrize("config", CONFIGS)
def test_violating_insertion_moves_only_affected_nodes(monkeypatch, config):
    reorders = []
    on_new_edge = OnlineCycleDetection.on_new_edge

    def checked(self, src, dst):
        pending = self._deferred is not None
        before = dict(self._pos)
        violating = not pending and before[src] > before[dst]
        affected = _affected(self, src, dst) if violating else None
        on_new_edge(self, src, dst)
        if not violating or self._deferred is not None:
            return  # placed without a search, queued, or closed a cycle
        moved = {v for v, p in before.items() if self._pos[v] != p}
        assert moved <= affected
        reorders.append(len(moved))

    monkeypatch.setattr(OnlineCycleDetection, "on_new_edge", checked)
    for kind, seed in PROGRAMS:
        run_configuration(_program(kind, seed), parse_name(config))
    assert any(reorders)
