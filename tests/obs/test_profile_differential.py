"""Differential tests: profiling is observation, never perturbation.

The acceptance bar for the obs layer: with ``--profile`` the canonical
report is byte-identical to an unprofiled run (minus the added
``metrics`` block), cache keys are untouched, per-worker registries
merge deterministically for any job count, and the trace replays each
solve's ``SolverStats`` exactly."""

import dataclasses
import io

import pytest

from repro.bench.runner import build_tasks, run_experiment
from repro.bench.suite import build_corpus, flatten
from repro.driver import ResultCache, solve_tasks, source_digest
from repro.obs import Registry, TraceWriter, validate_trace_text

CONFIGS = [
    "EP+OVS+WL(LRF)+OCD",
    "IP+WL(FIFO)",
    "IP+WL(FIFO)+PIP",
]


@pytest.fixture(scope="module")
def corpus_files():
    return flatten(
        build_corpus(
            files_scale=0.004, size_scale=0.006, seed=7,
            profiles=["505.mcf", "557.xz"],
        )
    )


@pytest.fixture(scope="module")
def baseline_json(corpus_files):
    return run_experiment(
        corpus_files, CONFIGS, repetitions=1, timing="cost", jobs=1
    ).to_json()


def profiled_run(corpus_files, **kwargs):
    registry = Registry()
    buf = io.StringIO()
    trace = TraceWriter(buf)
    results = run_experiment(
        corpus_files, CONFIGS, repetitions=1, timing="cost",
        registry=registry, trace=trace, **kwargs
    )
    trace.close()
    return results, registry, buf.getvalue()


class TestProfilingChangesNothing:
    def test_report_identical_minus_metrics_block(
        self, corpus_files, baseline_json
    ):
        results, registry, _ = profiled_run(corpus_files)
        assert results.metrics == registry.to_dict()
        stripped = dataclasses.replace(results, metrics=None)
        assert stripped.to_json() == baseline_json

    def test_cache_key_ignores_the_profile_flag(self, corpus_files):
        task = build_tasks(corpus_files, CONFIGS, 1, timing="cost")[0]
        assert (
            dataclasses.replace(task, profile=True).cache_key()
            == task.cache_key()
        )

    def test_profiled_cold_run_hits_unprofiled_cache(
        self, corpus_files, baseline_json, tmp_path
    ):
        """An unprofiled run's cache entries satisfy a profiled rerun
        (and vice versa) — the flag never invalidates."""
        cache_dir = tmp_path / "cache"
        run_experiment(
            corpus_files, CONFIGS, repetitions=1, timing="cost",
            cache=ResultCache(cache_dir),
        )
        results, registry, _ = profiled_run(
            corpus_files, cache=ResultCache(cache_dir)
        )
        n = len(corpus_files) * len(CONFIGS)
        assert registry.counter("driver.cache.hits") == n
        assert registry.counter("driver.solved") == 0
        stripped = dataclasses.replace(results, metrics=None)
        assert stripped.to_json() == baseline_json


class TestTraceReplaysSolverStats:
    def test_solve_events_match_returned_stats_exactly(self, corpus_files):
        registry = Registry()
        buf = io.StringIO()
        trace = TraceWriter(buf)
        tasks = build_tasks(corpus_files, CONFIGS, 1, timing="cost")
        programs = {source_digest(f.source): f.program for f in corpus_files}
        results, _ = solve_tasks(
            tasks, programs, registry=registry, trace=trace
        )
        trace.close()
        solves = [
            e for e in validate_trace_text(buf.getvalue())
            if e["event"] == "solve"
        ]
        assert len(solves) == len(results)
        for event, result in zip(solves, results):
            assert event["name"] == (
                f"{result.file_name}::{result.config_name}"
            )
            assert event["data"]["stats"] == result.solution["stats"]
            assert event["data"]["runtime_s"] == result.runtime_s
        # The merged registry is exactly the sum of the traced stats.
        for field in ("visits", "propagations", "pair_evals"):
            assert registry.counter(f"solver.{field}") == sum(
                e["data"]["stats"][field] for e in solves
            )
        assert registry.counter("solver.solves") == len(results)


class TestDeterministicMerge:
    def test_jobs_counters_and_solve_events_identical(self, corpus_files):
        serial = profiled_run(corpus_files)
        parallel = profiled_run(corpus_files, jobs=2)
        # Counters merge in task-index order: identical for any job
        # count.  (Timers are measurements and are exempt.)
        assert (
            serial[1].to_dict()["counters"]
            == parallel[1].to_dict()["counters"]
        )

        def solve_lines(text):
            return [
                line for line in text.splitlines() if '"event":"solve"' in line
            ]

        assert solve_lines(serial[2]) == solve_lines(parallel[2])

    def test_warm_cache_replays_solver_counters(self, corpus_files, tmp_path):
        """Cache hits re-harvest the stored stats, so ``solver.*`` is
        identical cold vs warm — profiles are comparable regardless of
        cache state."""
        cache_dir = tmp_path / "cache"
        _, cold, _ = profiled_run(
            corpus_files, cache=ResultCache(cache_dir)
        )
        _, warm, _ = profiled_run(
            corpus_files, cache=ResultCache(cache_dir), jobs=2
        )
        solver = lambda reg: {
            k: v for k, v in reg.to_dict()["counters"].items()
            if k.startswith("solver.")
        }
        assert solver(cold) == solver(warm)
        n = len(corpus_files) * len(CONFIGS)
        assert cold.counter("driver.cache.misses") == n
        assert warm.counter("driver.cache.hits") == n
