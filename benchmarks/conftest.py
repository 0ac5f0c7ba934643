"""Shared fixtures for the paper-reproduction benchmarks.

The corpus scale is controlled by environment variables so the same
targets serve quick CI runs and full reproduction runs:

- ``REPRO_BENCH_FILES_SCALE`` (default 0.008): fraction of the paper's
  per-benchmark file counts.
- ``REPRO_BENCH_SIZE_SCALE`` (default 0.012): fraction of the paper's
  per-file IR-instruction sizes.
- ``REPRO_BENCH_SEED`` (default 1).

A full-scale-ish run (e.g. FILES=0.02 SIZE=0.03) takes tens of minutes;
the defaults finish in a few minutes.
"""

import os

import pytest

from repro.bench.report import measure_precision
from repro.bench.runner import (
    EP_ORACLE_CONFIGS,
    TABLE5_CONFIGS,
    run_experiment,
)
from repro.bench.suite import build_corpus, flatten

FILES_SCALE = float(os.environ.get("REPRO_BENCH_FILES_SCALE", "0.008"))
SIZE_SCALE = float(os.environ.get("REPRO_BENCH_SIZE_SCALE", "0.012"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(files_scale=FILES_SCALE, size_scale=SIZE_SCALE, seed=SEED)


@pytest.fixture(scope="session")
def corpus_files(corpus):
    return flatten(corpus)


@pytest.fixture(scope="session")
def experiment_results(corpus_files):
    """Runtimes + pointee counts for all Table V/VI configurations."""
    return run_experiment(
        corpus_files,
        TABLE5_CONFIGS + EP_ORACLE_CONFIGS,
        repetitions=2,
    )


@pytest.fixture(scope="session")
def precision_results(corpus):
    return measure_precision(corpus)
