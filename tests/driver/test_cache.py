"""Unit tests for the on-disk result cache and the task/solution wire
forms (``repro.driver``): key composition, invalidation, self-healing
on corruption, canonical (de)serialisation, and the optional
``max_entries`` LRU bound."""

import json
import os

import pytest

from repro.analysis import build_constraints, parse_name, run_configuration
from repro.analysis.solution import Solution
from repro.analysis.testing import random_program
from repro.driver import (
    Programs,
    ResultCache,
    SolveTask,
    execute_task,
    solve_tasks,
    source_digest,
)
from repro.frontend import compile_c

SOURCE_A = """
static int x;
int *p = &x;
extern int *getp(void);
void f(void) { int *q = getp(); }
"""

SOURCE_B = SOURCE_A + "\nint extra_global;\n"

#: each source's program, keyed as tasks name it
PROGRAMS = {
    source_digest(source): build_constraints(compile_c(source, "t.c")).program
    for source in (SOURCE_A, SOURCE_B)
}


def make_task(
    source=SOURCE_A,
    config="IP+WL(FIFO)",
    timing="cost",
    repetitions=1,
    index=0,
):
    return SolveTask(
        index=index,
        file_name="t.c",
        source_hash=source_digest(source),
        config_name=config,
        repetitions=repetitions,
        timing=timing,
    )


class TestSolutionWireForm:
    @pytest.mark.parametrize("config", ["IP+WL(FIFO)+PIP", "EP+Naive"])
    def test_round_trip(self, config):
        program = random_program(11, n_vars=25, n_constraints=50)
        solution = run_configuration(program, parse_name(config))
        data = json.loads(json.dumps(solution.to_canonical_dict()))
        decoded = Solution.from_canonical_dict(data, program)
        assert decoded == solution
        assert decoded.stats == solution.stats

    def test_encoding_is_deterministic(self):
        program = random_program(12, n_vars=20, n_constraints=40)
        a = run_configuration(program, parse_name("IP+WL(FIFO)"))
        b = run_configuration(program, parse_name("IP+Naive"))
        assert a == b
        assert json.dumps(a.to_canonical_dict()["points_to"]) == json.dumps(
            b.to_canonical_dict()["points_to"]
        )

    def test_decoded_sets_are_interned(self):
        program = random_program(13, n_vars=30, n_constraints=60)
        solution = run_configuration(program, parse_name("IP+WL(FIFO)"))
        decoded = Solution.from_canonical_dict(
            solution.to_canonical_dict(), program
        )
        seen = {}
        for p in decoded.pointers():
            s = decoded.points_to(p)
            assert seen.setdefault(s, s) is s


class TestCacheKey:
    def test_key_components(self):
        base = make_task()
        assert base.cache_key() == make_task().cache_key()
        # The name and the submission index are *not* part of the key.
        renamed = make_task(index=3)
        assert renamed.cache_key() == base.cache_key()
        distinct = [
            make_task(source=SOURCE_B),
            make_task(config="IP+WL(LIFO)"),
            make_task(config="IP+WL(FIFO)+PTS(bitset)"),
            make_task(timing="wall"),
        ]
        keys = {t.cache_key() for t in distinct} | {base.cache_key()}
        assert len(keys) == len(distinct) + 1

    def test_wall_repetitions_in_key_cost_not(self):
        assert (
            make_task(timing="wall", repetitions=1).cache_key()
            != make_task(timing="wall", repetitions=5).cache_key()
        )
        assert (
            make_task(timing="cost", repetitions=1).cache_key()
            == make_task(timing="cost", repetitions=5).cache_key()
        )

    def test_key_is_pinned(self):
        # Recorded when the backend still travelled beside the name
        # (config "IP+WL(FIFO)+PIP" with a separate "bitset" backend):
        # spelling it in the name must keep every cache entry's key.
        task = make_task(config="IP+WL(FIFO)+PIP+PTS(bitset)")
        assert task.cache_key() == (
            "de33149671fc6649d4162cef6deafa98e12eb8dc5b74adfa4e815684419857f0"
        )

    def test_configuration_cache_key_distinguishes_backend(self):
        a = parse_name("IP+WL(FIFO)")
        b = parse_name("IP+WL(FIFO)+PTS(bitset)")
        assert a.cache_key != b.cache_key
        assert "pts=set" in a.cache_key
        assert "pts=bitset" in b.cache_key


class TestCacheBehaviour:
    def solve(self, task, cache):
        results, stats = solve_tasks([task], PROGRAMS, cache=cache)
        return results[0], stats

    def test_miss_store_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        cold, _ = self.solve(task, cache)
        assert not cold.from_cache
        stats = cache.stats_for("task")
        assert (stats.misses, stats.stores) == (1, 1)
        warm, _ = self.solve(task, ResultCache(tmp_path))
        assert warm.from_cache
        assert warm.solution == cold.solution
        assert warm.runtime_s == cold.runtime_s

    def test_entries_live_in_the_task_stage(self, tmp_path):
        self.solve(make_task(), ResultCache(tmp_path))
        assert len(list((tmp_path / "stages" / "task").glob("*/*.json"))) == 1
        assert not (tmp_path / "solve").exists()

    def test_invalidation_axes(self, tmp_path):
        self.solve(make_task(), ResultCache(tmp_path))
        for variant in (
            make_task(source=SOURCE_B),
            make_task(config="EP+Naive"),
            make_task(config="IP+WL(FIFO)+PTS(bitset)"),
        ):
            cache = ResultCache(tmp_path)
            result, _ = self.solve(variant, cache)
            assert not result.from_cache
            stats = cache.stats_for("task")
            assert stats.hits == 0 and stats.misses == 1

    def test_reduce_flip_is_a_miss_never_a_stale_hit(self, tmp_path):
        """Regression lock for the ``reduce`` configuration axis: a
        cached reduce-off result must not satisfy the reduce-on task
        (or vice versa) — their work profiles differ even though the
        solutions agree."""
        self.solve(make_task(), ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        on, _ = self.solve(make_task(config="IP+Reduce+WL(FIFO)"), cache)
        assert not on.from_cache
        stats = cache.stats_for("task")
        assert stats.hits == 0 and stats.misses == 1
        # Both entries now coexist and warm-replay independently.
        warm_off, _ = self.solve(make_task(), ResultCache(tmp_path))
        warm_on, _ = self.solve(
            make_task(config="IP+Reduce+WL(FIFO)"), ResultCache(tmp_path)
        )
        assert warm_off.from_cache and warm_on.from_cache
        for key in ("points_to", "external"):
            assert warm_on.solution[key] == warm_off.solution[key]

    @pytest.mark.parametrize(
        "garbage",
        [
            "{not json at all",
            '{"schema": 999, "runtime_s": 1, "solution": {}}',
            '{"schema": 1, "runtime_s": "x", "solution": {"points_to": [],'
            ' "external": [], "stats": {"explicit_pointees": 0}}}',
            '{"schema": 1, "runtime_s": 1.0, "solution": {"points_to": {},'
            ' "external": [], "stats": {"explicit_pointees": 0}}}',
        ],
    )
    def test_corrupted_entries_are_discarded_not_fatal(
        self, tmp_path, garbage
    ):
        cache = ResultCache(tmp_path)
        task = make_task()
        fresh, _ = self.solve(task, cache)
        entry = cache._stage_path("task", task.cache_key())
        assert entry.exists()
        entry.write_text(garbage)

        healed_cache = ResultCache(tmp_path)
        result, _ = self.solve(task, healed_cache)
        assert not result.from_cache
        assert healed_cache.stats_for("task").corrupted == 1
        assert healed_cache.stats_for("task").misses == 1
        assert result.solution == fresh.solution
        # The bad entry was replaced by a good one.
        rewarm, _ = self.solve(task, ResultCache(tmp_path))
        assert rewarm.from_cache

    def test_in_range_tamper_fails_the_checksum(self, tmp_path):
        """Swapping one E index for another valid one keeps the entry
        well-typed; only the payload checksum can tell."""
        cache = ResultCache(tmp_path)
        task = make_task()
        cold, _ = self.solve(task, cache)
        path = cache._stage_path("task", task.cache_key())
        head, body = path.read_text().split("\n", 1)
        entry = json.loads(body)
        external = entry["solution"]["external"]
        external[0] = next(i for i in range(len(external) + 1) if i not in external)
        body = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        path.write_text(head + "\n" + body)

        healed_cache = ResultCache(tmp_path)
        result, _ = self.solve(task, healed_cache)
        assert not result.from_cache
        assert healed_cache.stats_for("task").corrupted == 1
        assert result.solution == cold.solution

    def test_duplicate_tasks_are_coalesced(self, tmp_path):
        """Two tasks with the same cache identity (e.g. a configuration
        listed in two overlapping experiment groups) are solved once and
        the result replicated — so under wall timing the cold report is
        internally consistent with what a warm replay will say."""
        tasks = [
            make_task(timing="wall", index=0),
            make_task(config="EP+Naive", timing="wall", index=1),
            make_task(timing="wall", index=2),  # duplicate of index 0
        ]
        cache = ResultCache(tmp_path)
        results, stats = solve_tasks(tasks, PROGRAMS, cache=cache)
        assert stats.solved == 2
        assert cache.stats_for("task").stores == 2
        first, _, echo = results
        assert echo.index == 2
        assert echo.runtime_s == first.runtime_s
        assert echo.solution is first.solution

        warm, warm_stats = solve_tasks(
            tasks, PROGRAMS, cache=ResultCache(tmp_path)
        )
        assert warm_stats.solved == 0
        assert [r.runtime_s for r in warm] == [r.runtime_s for r in results]

    def test_cached_solution_matches_direct_solve(self, tmp_path):
        task = make_task(config="EP+OVS+WL(LRF)+OCD")
        direct = execute_task(task, Programs(PROGRAMS))
        cache = ResultCache(tmp_path)
        self.solve(task, cache)
        warm, _ = self.solve(task, ResultCache(tmp_path))
        assert warm.solution == direct.solution
        assert warm.explicit_pointees == direct.explicit_pointees


class TestNarrowedErrorHandling:
    """The read path only swallows the errors a healthy cache can
    produce; every swallow that discards an entry counts ``corrupted``
    and anything unexpected propagates."""

    def test_undecodable_bytes_count_corrupted_and_heal(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        solve_tasks([task], PROGRAMS, cache=cache)
        entry = cache._stage_path("task", task.cache_key())
        entry.write_bytes(b"\xff\xfe\x00 not utf-8")

        healed = ResultCache(tmp_path)
        assert healed.load_stage("task", task.cache_key()) is None
        assert healed.stats_for("task").corrupted == 1
        assert healed.stats_for("task").misses == 1
        assert not entry.exists()

    def test_directory_squatting_on_entry_counts_corrupted(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        entry = cache._stage_path("task", task.cache_key())
        entry.mkdir(parents=True)
        assert cache.load_stage("task", task.cache_key()) is None
        assert cache.stats_for("task").corrupted == 1

    def test_unexpected_oserror_propagates(self):
        """PermissionError (or any OSError that is neither a miss nor
        corruption) is an environment problem — never silently
        re-solved around."""

        class DenyingPath:
            def read_text(self):
                raise PermissionError("cache dir unreadable")

        stats = ResultCache().stats_for("task")
        with pytest.raises(PermissionError):
            ResultCache._read_entry(DenyingPath(), stats)
        assert stats.misses == 0
        assert stats.corrupted == 0

    def test_stage_garbage_counts_in_stage_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_stage("constraints", "ab" * 32, {"program": {}})
        path = cache._stage_path("constraints", "ab" * 32)
        path.write_text("{broken")
        fresh = ResultCache(tmp_path)
        assert fresh.load_stage("constraints", "ab" * 32) is None
        stats = fresh.stats_for("constraints")
        assert stats.corrupted == 1
        assert stats.misses == 1
        assert not path.exists()
        # Solve-task counters are untouched by stage-entry corruption.
        assert fresh.stats_for("task").corrupted == 0

    def test_stage_decode_bug_propagates(self, tmp_path):
        """A decoder raising anything but ValueError/KeyError/TypeError
        has a bug: the error surfaces and the entry stays."""
        cache = ResultCache(tmp_path)
        cache.store_stage("constraints", "ab" * 32, {"program": {}})

        def buggy(payload):
            return payload["program"].missing_attribute

        fresh = ResultCache(tmp_path)
        with pytest.raises(AttributeError):
            fresh.load_stage("constraints", "ab" * 32, buggy)
        stats = fresh.stats_for("constraints")
        assert (stats.corrupted, stats.misses, stats.hits) == (0, 0, 0)
        assert cache._stage_path("constraints", "ab" * 32).exists()


class TestMaxEntriesLRU:
    """The optional ``max_entries`` bound: LRU eviction per namespace,
    recency refreshed on hits, the just-stored entry never sacrificed."""

    @staticmethod
    def set_age(path, seconds):
        """Pin one entry's mtime ``seconds`` in the past."""
        stamp = os.stat(path).st_mtime - seconds
        os.utime(path, (stamp, stamp))

    def stage_paths(self, cache, stage="constraints"):
        return sorted((cache.root / "stages" / stage).glob("*/*.json"))

    def test_max_entries_must_be_positive(self, tmp_path):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                ResultCache(tmp_path, max_entries=bad)
        assert ResultCache(tmp_path).max_entries is None

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(10):
            cache.store_stage("constraints", f"{i:02d}" * 32, {"i": i})
        assert len(self.stage_paths(cache)) == 10
        assert cache.stats_for("constraints").evicted == 0

    def test_stage_namespace_bounded_with_stalest_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        for i in range(3):
            cache.store_stage("constraints", f"{i:02d}" * 32, {"i": i})
            self.set_age(
                cache._stage_path("constraints", f"{i:02d}" * 32),
                seconds=1000 - 100 * i,
            )
        cache.store_stage("constraints", "aa" * 32, {"i": 99})
        assert len(self.stage_paths(cache)) == 3
        # The stalest entry (i=0) went; the newest survives.
        assert cache.load_stage("constraints", "00" * 32) is None
        assert cache.load_stage("constraints", "aa" * 32) == {"i": 99}
        assert cache.stats_for("constraints").evicted == 1

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        for key, payload in (("aa" * 32, {"k": "a"}), ("bb" * 32, {"k": "b"})):
            cache.store_stage("parse", key, payload)
            self.set_age(cache._stage_path("parse", key), seconds=1000)
        # Touch A: it becomes the most recently used despite being old.
        assert cache.load_stage("parse", "aa" * 32) == {"k": "a"}
        cache.store_stage("parse", "cc" * 32, {"k": "c"})
        assert cache.load_stage("parse", "aa" * 32) == {"k": "a"}
        assert cache.load_stage("parse", "bb" * 32) is None
        assert cache.stats_for("parse").evicted == 1

    def test_fresh_store_never_evicts_itself(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        cache.store_stage("solve", "aa" * 32, {"k": "a"})
        # Make the existing entry look *newer* than anything to come:
        # on coarse-mtime filesystems the new store could otherwise
        # sort below it and be pruned immediately.
        future = os.stat(cache._stage_path("solve", "aa" * 32)).st_mtime + 9999
        os.utime(cache._stage_path("solve", "aa" * 32), (future, future))
        cache.store_stage("solve", "bb" * 32, {"k": "b"})
        assert cache.load_stage("solve", "bb" * 32) == {"k": "b"}
        assert cache.load_stage("solve", "aa" * 32) is None

    def test_namespaces_bounded_independently(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        for i in range(2):
            cache.store_stage("parse", f"{i:02d}" * 32, {"i": i})
            cache.store_stage("lower", f"{i:02d}" * 32, {"i": i})
        # Both namespaces are full; neither evicts the other's entries.
        assert cache.stats_for("parse").evicted == 0
        assert cache.stats_for("lower").evicted == 0
        cache.store_stage("parse", "aa" * 32, {"i": 9})
        assert cache.stats_for("parse").evicted == 1
        assert cache.stats_for("lower").evicted == 0
        assert len(self.stage_paths(cache, "lower")) == 2

    def test_solve_namespace_bounded(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        tasks = [
            make_task(),
            make_task(source=SOURCE_B),
            make_task(config="EP+Naive"),
        ]
        for age, task in zip((3000, 2000, 1000), tasks):
            solve_tasks([task], PROGRAMS, cache=cache)
            self.set_age(
                cache._stage_path("task", task.cache_key()), seconds=age
            )
        assert cache.stats_for("task").evicted == 1
        assert cache.load_stage("task", tasks[0].cache_key()) is None  # stalest
        assert cache.load_stage("task", tasks[2].cache_key()) is not None
        # Warm loads still replay identically through the bound.
        warm, _ = solve_tasks([tasks[2]], PROGRAMS, cache=cache)
        assert warm[0].from_cache

    def test_evicted_surfaces_in_wire_and_text_forms(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        cache.store_stage("link", "aa" * 32, {})
        self.set_age(cache._stage_path("link", "aa" * 32), seconds=1000)
        cache.store_stage("link", "bb" * 32, {})
        stats = cache.stats_for("link")
        assert stats.to_dict()["evicted"] == 1
        assert "1 evicted" in str(stats)
