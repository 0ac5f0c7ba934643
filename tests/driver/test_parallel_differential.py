"""Differential tests: the parallel cached driver vs the serial path.

The acceptance bar for the driver (ISSUE 2): ``--jobs 4`` on the
deterministic synthetic corpus produces *byte-identical* report JSON to
``--jobs 1``, across both pts backends, and a warm-cache rerun replays
the same report without a single solver invocation.

All runs here use the deterministic ``cost`` timing mode — wall-clock
timing is measurement, not computation, and can never be bit-stable
across processes.
"""

import pytest

from repro.bench.runner import run_experiment
from repro.bench.suite import build_corpus, flatten
from repro.driver import ResultCache

CONFIGS = [
    "EP+Naive",
    "EP+OVS+WL(LRF)+OCD",
    "IP+WL(FIFO)",
    "IP+WL(FIFO)+PIP",
]
BITSET = "+PTS(bitset)"
BITSET_CONFIGS = [name + BITSET for name in CONFIGS]


@pytest.fixture(scope="module")
def corpus_files():
    return flatten(
        build_corpus(
            files_scale=0.004, size_scale=0.006, seed=7,
            profiles=["505.mcf", "557.xz"],
        )
    )


@pytest.fixture(scope="module")
def serial_json(corpus_files):
    results = run_experiment(
        corpus_files, CONFIGS, repetitions=1, timing="cost", jobs=1
    )
    return results.to_json()


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_n_byte_identical(self, corpus_files, serial_json, jobs):
        results = run_experiment(
            corpus_files, CONFIGS, repetitions=1, timing="cost", jobs=jobs
        )
        assert results.to_json() == serial_json
        assert results.driver.jobs == jobs
        assert results.driver.solved == len(corpus_files) * len(CONFIGS)

    def test_bitset_backend_jobs_2(self, corpus_files):
        serial = run_experiment(
            corpus_files, BITSET_CONFIGS, repetitions=1, timing="cost"
        )
        parallel = run_experiment(
            corpus_files, BITSET_CONFIGS, repetitions=1, timing="cost",
            jobs=2,
        )
        assert parallel.to_json() == serial.to_json()

    def test_backends_agree_on_pointees(self, corpus_files, serial_json):
        """The two backends must measure identical pointee counts (the
        runtimes differ — cost units track per-backend work exactly, so
        only the solution-shaped columns are compared)."""
        bitset = run_experiment(
            corpus_files, BITSET_CONFIGS, repetitions=1, timing="cost"
        )
        from repro.bench.runner import RunResults

        set_results = RunResults.from_json(serial_json)
        assert {
            name.removesuffix(BITSET): pointees
            for name, pointees in bitset.pointees.items()
        } == set_results.pointees

    def test_record_order_is_file_major(self, corpus_files, serial_json):
        from repro.bench.runner import RunResults

        results = RunResults.from_json(serial_json)
        expected = [
            (f.spec.name, c) for f in corpus_files for c in CONFIGS
        ]
        assert [(r.file, r.config) for r in results.runs] == expected


class TestWarmCache:
    def test_warm_run_skips_all_solves(
        self, corpus_files, serial_json, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        cold = run_experiment(
            corpus_files, CONFIGS, repetitions=1, timing="cost",
            cache=ResultCache(cache_dir),
        )
        n = len(corpus_files) * len(CONFIGS)
        assert cold.to_json() == serial_json
        assert cold.driver.cache.hits == 0
        assert cold.driver.cache.misses == n
        assert cold.driver.cache.stores == n

        # A warm run must answer entirely from the cache: make any
        # solver invocation (in this or a worker process) fatal.
        def boom(*_args, **_kwargs):
            raise AssertionError("solver invoked during a warm-cache run")

        monkeypatch.setattr("repro.driver.tasks.solve_prepared", boom)
        for jobs in (1, 4):
            warm = run_experiment(
                corpus_files, CONFIGS, repetitions=1, timing="cost",
                cache=ResultCache(cache_dir), jobs=jobs,
            )
            assert warm.to_json() == serial_json
            assert warm.driver.solved == 0
            assert warm.driver.cache.hits == n
            assert warm.driver.cache.misses == 0

    def test_cold_parallel_equals_cold_serial(
        self, corpus_files, serial_json, tmp_path
    ):
        cold = run_experiment(
            corpus_files, CONFIGS, repetitions=1, timing="cost",
            cache=ResultCache(tmp_path / "cache2"), jobs=2,
        )
        assert cold.to_json() == serial_json
        assert cold.driver.cache.stores == len(corpus_files) * len(CONFIGS)
