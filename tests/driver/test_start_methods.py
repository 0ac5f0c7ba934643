"""Pool start-method tests: fork preferred, spawn supported, and the
two produce byte-identical results: the pool initializer hands every
worker the caller's programs, inherited under fork and pickled under
spawn."""

import json
import multiprocessing

import pytest

from repro.bench.runner import build_tasks
from repro.bench.suite import build_corpus, flatten
from repro.driver import solve_tasks, source_digest
from repro.driver.pool import _pool_context

CONFIGS = ["EP+Naive", "IP+WL(FIFO)+PIP"]

AVAILABLE = [
    m for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]


@pytest.fixture(scope="module")
def corpus_files():
    return flatten(
        build_corpus(
            files_scale=0.004, size_scale=0.006, seed=7,
            profiles=["505.mcf"],
        )
    )


@pytest.fixture(scope="module")
def programs(corpus_files):
    return {source_digest(f.source): f.program for f in corpus_files}


def canonical(results):
    return json.dumps(
        [
            {
                "file": r.file_name,
                "config": r.config_name,
                "runtime_s": r.runtime_s,
                "solution": r.solution,
            }
            for r in results
        ],
        sort_keys=True,
    )


class TestContextSelection:
    def test_prefers_fork_when_available(self):
        ctx = _pool_context()
        if "fork" in multiprocessing.get_all_start_methods():
            assert ctx.get_start_method() == "fork"
        else:
            assert ctx.get_start_method() == "spawn"

    @pytest.mark.parametrize("method", AVAILABLE)
    def test_explicit_method_honoured(self, method):
        assert _pool_context(method).get_start_method() == method

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="start method"):
            _pool_context("carrier-pigeon")


class TestStartMethodDeterminism:
    @pytest.fixture(scope="class")
    def serial(self, corpus_files, programs):
        tasks = build_tasks(corpus_files, CONFIGS, 1, timing="cost")
        results, _ = solve_tasks(tasks, programs)
        return canonical(results)

    @pytest.mark.parametrize("method", AVAILABLE)
    def test_jobs_2_byte_identical_under_each_method(
        self, corpus_files, programs, serial, method
    ):
        tasks = build_tasks(corpus_files, CONFIGS, 1, timing="cost")
        results, stats = solve_tasks(
            tasks, programs, jobs=2, start_method=method
        )
        assert canonical(results) == serial
        assert stats.solved == len(tasks)
