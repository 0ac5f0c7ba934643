"""``validate_agreement`` across the Reduce axis.

Reduction may widen the Sol of a collapsed temporary, so a reduced and
an unreduced configuration of one file are compared on the memory
locations (in M) and the external set only; any two configurations on
the same side of the axis must still agree on every pointer.
"""

import copy
import pathlib

import pytest

from repro.__main__ import main
from repro.analysis import build_constraints
from repro.driver import SolveTask, solve_tasks, source_digest, validate_agreement
from repro.frontend import compile_c

HASHTABLE = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "corpus" / "hashtable.c"
)


def test_mixed_reduce_sweep_exits_zero(capsys):
    argv = ["sweep", str(HASHTABLE), "IP+WL(FIFO)", "IP+Reduce+WL(FIFO)", "--no-cache"]
    assert main(argv) == 0
    assert "all configurations produced the identical solution" in capsys.readouterr().out


@pytest.fixture(scope="module")
def solved():
    source = HASHTABLE.read_text()
    programs = {
        source_digest(source): build_constraints(
            compile_c(source, HASHTABLE.name)
        ).program
    }
    names = ["IP+WL(FIFO)", "IP+Naive", "IP+Reduce+WL(FIFO)"]
    tasks = [
        SolveTask(
            index=i,
            file_name=HASHTABLE.name,
            source_hash=source_digest(source),
            config_name=name,
            repetitions=1,
        )
        for i, name in enumerate(names)
    ]
    results, _ = solve_tasks(tasks, programs)
    return tasks, results, programs


def _tampered(results, index, in_m, memory):
    """``results`` with one pointee added to a Sol of the result at
    ``index``: a memory location's when ``memory``, else a temporary's."""
    results = copy.deepcopy(results)
    for entry in results[index].solution["points_to"]:
        if bool(in_m[entry[0]]) == memory:
            entry[1] = sorted(set(entry[1]) | {max(entry[1], default=0) + 1})
            return results
    raise AssertionError("no such pointer")


def in_m_of(programs):
    (program,) = programs.values()
    return program.in_m


def test_untouched_results_agree(solved):
    tasks, results, programs = solved
    validate_agreement(results, tasks, programs)


def test_memory_location_disagreement_raises(solved):
    tasks, results, programs = solved
    tampered = _tampered(results, 2, in_m_of(programs), memory=True)
    with pytest.raises(AssertionError, match="IP\\+Reduce\\+WL\\(FIFO\\) disagrees"):
        validate_agreement(tampered, tasks, programs)


def test_temporaries_compared_only_on_one_side_of_the_axis(solved):
    tasks, results, programs = solved
    in_m = in_m_of(programs)
    validate_agreement(_tampered(results, 2, in_m, memory=False), tasks, programs)
    with pytest.raises(AssertionError, match="IP\\+Naive disagrees"):
        validate_agreement(
            _tampered(results, 1, in_m, memory=False), tasks, programs
        )
