"""Cross-representation equivalence: ``set`` vs ``bitset`` backends.

The backend changes only the in-memory representation of Sol_e / ΔSol;
both must produce byte-identical canonical :class:`Solution` objects and
identical ``explicit_pointees`` counts for *every* solver configuration
(paper §V-A invariant, extended to the representation axis).  Run over
the real-code examples in ``examples/corpus/``.
"""

import dataclasses
import pathlib

import pytest

from repro.analysis import (
    build_constraints,
    enumerate_configurations,
    parse_name,
    run_configuration,
)
from repro.frontend import compile_c

CORPUS = pathlib.Path(__file__).resolve().parent.parent.parent / "examples" / "corpus"
FILES = sorted(p.name for p in CORPUS.glob("*.c"))


@pytest.fixture(scope="module")
def programs():
    out = {}
    for name in FILES:
        module = compile_c((CORPUS / name).read_text(), name)
        out[name] = build_constraints(module).program
    return out


def _solve_both(program, config):
    sol_set = run_configuration(program, dataclasses.replace(config, pts="set"))
    sol_bit = run_configuration(program, dataclasses.replace(config, pts="bitset"))
    return sol_set, sol_bit


@pytest.mark.parametrize("filename", FILES)
def test_backends_identical_across_full_configuration_space(filename, programs):
    """All solver × order × cycle-detector × PIP/DP configurations agree
    between backends, and the whole sweep agrees with itself."""
    program = programs[filename]
    reference = None
    for config in enumerate_configurations():
        sol_set, sol_bit = _solve_both(program, config)
        assert sol_bit == sol_set, (
            f"{config.name}: backends disagree on {filename}:\n"
            + sol_set.diff(sol_bit)
        )
        # The canonical form must be byte-identical, pointer by pointer.
        for p in sol_set.pointers():
            assert sol_set.points_to(p) == sol_bit.points_to(p)
        assert sol_set.external == sol_bit.external
        assert (
            sol_bit.stats.explicit_pointees == sol_set.stats.explicit_pointees
        ), f"{config.name}: explicit_pointees diverged on {filename}"
        if reference is None:
            reference = sol_set
        else:
            assert sol_set == reference, (
                f"{config.name} diverged on {filename}:\n"
                + reference.diff(sol_set)
            )


@pytest.mark.parametrize("filename", FILES)
def test_interned_solution_sets_are_shared(filename, programs):
    """Equal Sol sets in one Solution are one frozenset object, and the
    shared_sets stat counts the distinct ones."""
    program = programs[filename]
    for backend in ("set", "bitset"):
        config = dataclasses.replace(parse_name("IP+WL(FIFO)"), pts=backend)
        sol = run_configuration(program, config)
        distinct_ids = {id(sol.points_to(p)) for p in sol.pointers()}
        distinct_values = {sol.points_to(p) for p in sol.pointers()}
        assert len(distinct_ids) == len(distinct_values)
        assert sol.stats.shared_sets == len(distinct_values)
