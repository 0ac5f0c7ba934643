"""Reduction pays off, measured in work rather than wall time.

The exactness matrix proves that ``Reduce`` never changes an answer;
this suite proves that it saves solver work.  On the larger files of
the quick corpus slice (``500.perlbench`` and ``502.gcc``, the files
with at least 2,000 constraint variables) the reduced solve must do
strictly fewer worklist visits and strictly fewer propagations than the
unreduced one, having merged at least one variable.  Both solve on the
default ``set`` backend.  The counters are deterministic, so the check
holds on a loaded machine where a wall-clock ratio would not.
"""

import dataclasses

import pytest

from repro.analysis import parse_name, run_configuration
from repro.bench.suite import build_corpus, flatten

MIN_VARS = 2000

LARGE_FILES = [
    "500.perlbench/file000.c",
    "500.perlbench/file001.c",
    "502.gcc/file000.c",
    "502.gcc/file003.c",
]


@pytest.fixture(scope="module")
def large_files():
    corpus = build_corpus(
        files_scale=0.012,
        size_scale=0.02,
        seed=1,
        profiles=["500.perlbench", "502.gcc"],
    )
    return {
        f.spec.name: f for f in flatten(corpus) if f.program.num_vars >= MIN_VARS
    }


def test_slice_is_the_large_files(large_files):
    assert sorted(large_files) == LARGE_FILES


@pytest.mark.parametrize("file_name", LARGE_FILES)
@pytest.mark.parametrize("name", ["IP+WL(FIFO)", "IP+WL(FIFO)+PIP"])
def test_reduce_does_less_work(large_files, name, file_name):
    program = large_files[file_name].program
    config = parse_name(name)
    off = run_configuration(program, config).stats
    on = run_configuration(program, dataclasses.replace(config, reduce=True)).stats
    assert on.reduce_vars_merged > 0
    assert on.visits < off.visits, (on.visits, off.visits)
    assert on.propagations < off.propagations, (on.propagations, off.propagations)
