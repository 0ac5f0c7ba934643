"""Reduction invariance under observation (ISSUE 7 satellite).

With ``reduce`` on, the offline reduction and the operation memo are
deterministic: ``solver.*`` counters — including the new
``solver.reduce_*`` reduction stats and ``solver.memo_*`` dedup
counters — must be identical across ``--jobs 1/2/4`` and across
cold/warm cache runs (warm runs replay the stored stats), the
reduction stats must surface through ``--profile`` registries, and
trace events emitted by reduced solves must still validate against the
golden trace schema."""

import io

import pytest

from repro.bench.runner import run_experiment
from repro.bench.suite import build_corpus, flatten
from repro.driver import ResultCache
from repro.obs import Registry, TraceWriter, validate_trace_text

# bitset backend: the operation memo only engages on packed values; the
# EP configuration's sets pack on this corpus (the IP ones stay small),
# so its hit/miss counters are exercised here.
REDUCE_CONFIGS = [
    "IP+Reduce+WL(FIFO)+PTS(bitset)",
    "IP+Reduce+WL(FIFO)+PIP+PTS(bitset)",
    "EP+Reduce+WL(FIFO)+LCD+DP+PTS(bitset)",
]


@pytest.fixture(scope="module")
def corpus_files():
    return flatten(
        build_corpus(
            files_scale=0.004, size_scale=0.006, seed=7,
            profiles=["505.mcf", "557.xz"],
        )
    )


def profiled_run(corpus_files, **kwargs):
    registry = Registry()
    buf = io.StringIO()
    trace = TraceWriter(buf)
    results = run_experiment(
        corpus_files, REDUCE_CONFIGS, repetitions=1, timing="cost",
        registry=registry, trace=trace, **kwargs
    )
    trace.close()
    return results, registry, buf.getvalue()


def solver_counters(registry):
    return {
        k: v for k, v in registry.to_dict()["counters"].items()
        if k.startswith("solver.")
    }


class TestJobInvariance:
    def test_counters_identical_across_jobs(self, corpus_files):
        runs = {
            jobs: profiled_run(corpus_files, jobs=jobs)
            for jobs in (1, 2, 4)
        }
        baseline = runs[1][1].to_dict()["counters"]
        for jobs in (2, 4):
            assert runs[jobs][1].to_dict()["counters"] == baseline, jobs
        # The reduction actually fired and its stats surface in the
        # profile: merged variables, removed constraints, memo traffic.
        assert baseline["solver.reduce_vars_merged"] > 0
        assert baseline["solver.reduce_constraints_removed"] > 0
        assert baseline["solver.memo_misses"] > 0
        assert "solver.memo_hits" in baseline

    def test_solve_events_identical_across_jobs(self, corpus_files):
        def solve_lines(text):
            return [
                line for line in text.splitlines()
                if '"event":"solve"' in line
            ]

        serial = profiled_run(corpus_files)
        parallel = profiled_run(corpus_files, jobs=4)
        assert solve_lines(serial[2]) == solve_lines(parallel[2])


class TestCacheInvariance:
    def test_warm_cache_replays_reduce_counters(self, corpus_files, tmp_path):
        cache_dir = tmp_path / "cache"
        _, cold, _ = profiled_run(corpus_files, cache=ResultCache(cache_dir))
        _, warm, _ = profiled_run(
            corpus_files, cache=ResultCache(cache_dir), jobs=2
        )
        assert solver_counters(cold) == solver_counters(warm)
        n = len(corpus_files) * len(REDUCE_CONFIGS)
        assert cold.counter("driver.cache.misses") == n
        assert warm.counter("driver.cache.hits") == n
        assert warm.counter("solver.reduce_vars_merged") > 0


class TestTraceSchema:
    def test_reduced_solve_events_validate(self, corpus_files):
        results, _, text = profiled_run(corpus_files)
        events = validate_trace_text(text)  # raises on schema violation
        solves = [e for e in events if e["event"] == "solve"]
        assert len(solves) == len(corpus_files) * len(REDUCE_CONFIGS)
        for event in solves:
            stats = event["data"]["stats"]
            assert stats["reduce_vars_merged"] >= 0
            assert stats["reduce_chains_collapsed"] >= 0
            assert stats["reduce_constraints_removed"] >= 0
            assert stats["memo_hits"] >= 0
            assert stats["memo_misses"] >= 0
        # At least one reduced solve merged something on this corpus.
        assert any(
            e["data"]["stats"]["reduce_vars_merged"] > 0 for e in solves
        )
