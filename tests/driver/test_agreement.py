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
from repro.driver import SolveTask, solve_tasks, source_digest, validate_agreement
from repro.driver.tasks import context_for

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
    names = ["IP+WL(FIFO)", "IP+Naive", "IP+Reduce+WL(FIFO)"]
    tasks = [
        SolveTask(
            index=i,
            file_name=HASHTABLE.name,
            source_hash=source_digest(source),
            config_name=name,
            source=source,
            repetitions=1,
        )
        for i, name in enumerate(names)
    ]
    results, _ = solve_tasks(tasks)
    in_m = context_for(tasks[0]).program.in_m
    return tasks, results, in_m


def _tampered(results, index, in_m, memory):
    """``results`` with one pointee added to a Sol of the result at
    ``index``: a memory location's when ``memory``, else a temporary's."""
    results = copy.deepcopy(results)
    for entry in results[index].solution["points_to"]:
        if bool(in_m[entry[0]]) == memory:
            entry[1] = sorted(set(entry[1]) | {max(entry[1], default=0) + 1})
            return results
    raise AssertionError("no such pointer")


def test_untouched_results_agree(solved):
    tasks, results, _ = solved
    validate_agreement(results, tasks)


def test_memory_location_disagreement_raises(solved):
    tasks, results, in_m = solved
    with pytest.raises(AssertionError, match="IP\\+Reduce\\+WL\\(FIFO\\) disagrees"):
        validate_agreement(_tampered(results, 2, in_m, memory=True), tasks)


def test_temporaries_compared_only_on_one_side_of_the_axis(solved):
    tasks, results, in_m = solved
    validate_agreement(_tampered(results, 2, in_m, memory=False), tasks)
    with pytest.raises(AssertionError, match="IP\\+Naive disagrees"):
        validate_agreement(_tampered(results, 1, in_m, memory=False), tasks)
