"""Cycle-heavy stress programs: rings of copy edges exercise every cycle
detector's unification paths."""

import random

import pytest

from repro.analysis import ConstraintProgram, parse_name, run_configuration

CONFIGS = [
    "IP+WL(FIFO)+OCD",
    "IP+WL(LRF)+PIP",
    "IP+WL(FIFO)+HCD+LCD",
    "EP+OVS+WL(LRF)+OCD",
]


def ring_program(seed: int) -> ConstraintProgram:
    rng = random.Random(seed)
    cp = ConstraintProgram(f"ring{seed}")
    mem = [cp.add_memory(f"m{i}") for i in range(6)]
    regs = [cp.add_register(f"r{i}") for i in range(12)]
    for _ in range(3):
        members = rng.sample(regs, rng.randrange(2, 5))
        for a, b in zip(members, members[1:] + members[:1]):
            cp.add_simple(b, a)
    for _ in range(14):
        cp.add_base(rng.choice(regs), rng.choice(mem))
        cp.add_simple(rng.choice(regs), rng.choice(regs))
        cp.add_load(rng.choice(regs), rng.choice(regs))
        cp.add_store(rng.choice(regs), rng.choice(regs))
    if rng.random() < 0.5:
        cp.mark_externally_accessible(rng.choice(mem))
        cp.mark_points_to_external(rng.choice(regs))
    return cp


@pytest.mark.parametrize("seed", range(20))
def test_ring_programs_agree(seed):
    cp = ring_program(seed)
    oracle = run_configuration(cp, parse_name("IP+Naive"))
    for name in CONFIGS:
        sol = run_configuration(cp, parse_name(name))
        assert sol == oracle, f"{name} diverged:\n{oracle.diff(sol)}"


def test_rings_actually_collapse():
    cp = ring_program(1)
    from repro.analysis.config import _make_detector, parse_name as pn
    from repro.analysis.solvers.worklist import WorklistSolver

    cfg = pn("IP+WL(FIFO)+OCD")
    solver = WorklistSolver(
        cp, order="FIFO", cycle_detector=_make_detector(cfg, cp)
    )
    solution = solver.solve()
    assert solution.stats.unifications > 0
