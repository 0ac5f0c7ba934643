"""Tests for the staged pipeline and its stage-granular cache."""

import dataclasses
import json

import pytest

from repro.analysis import parse_name
from repro.driver import ResultCache
from repro.link import LinkedProgram
from repro.pipeline import Pipeline

SRC_A = "extern int *mk(void);\nint *pa;\nvoid fa(void) { pa = mk(); }\n"
SRC_B = "int slot;\nint *mk(void) { return &slot; }\n"

CONFIG = parse_name("IP+WL(FIFO)+PIP")
OTHER_CONFIG = parse_name("IP+WL(FIFO)")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestStageCaching:
    def test_cold_then_warm(self, cache, tmp_path):
        p1 = Pipeline(cache=cache)
        art = p1.analyze_source("a.c", SRC_A, CONFIG)
        assert not art.from_cache
        assert p1.stats["parse"].runs == 1
        assert p1.stats["constraints"].misses == 1
        assert p1.stats["solve"].misses == 1

        p2 = Pipeline(cache=ResultCache(cache.root))
        art2 = p2.analyze_source("a.c", SRC_A, CONFIG)
        assert art2.from_cache
        assert art2.solution == art.solution
        assert art2.solution.stats == art.solution.stats
        # Warm run never parses or lowers.
        assert p2.stats["parse"].runs == 0
        assert p2.stats["lower"].runs == 0
        assert p2.stats["constraints"].hits == 1
        assert p2.stats["solve"].hits == 1

    def test_config_only_change_skips_parse_and_lower(self, cache):
        Pipeline(cache=cache).analyze_source("a.c", SRC_A, CONFIG)

        p2 = Pipeline(cache=ResultCache(cache.root))
        art = p2.analyze_source("a.c", SRC_A, OTHER_CONFIG)
        assert p2.stats["parse"].runs == 0
        assert p2.stats["lower"].runs == 0
        assert p2.stats["constraints"].hits == 1
        # The solve itself is new work for the new configuration...
        assert p2.stats["solve"].misses == 1
        assert not art.from_cache
        # ...but both configurations agree on the solution (solver
        # stats legitimately differ; Solution equality ignores them).
        p3 = Pipeline(cache=ResultCache(cache.root))
        again = p3.analyze_source("a.c", SRC_A, CONFIG)
        assert again.solution == art.solution

    def test_reduce_flip_is_a_solve_miss(self, cache):
        """Flipping only the ``reduce`` axis re-solves (the stage key
        carries the axis) while everything upstream stays cached, and
        both entries then coexist."""
        Pipeline(cache=cache).analyze_source("a.c", SRC_A, CONFIG)

        p2 = Pipeline(cache=ResultCache(cache.root))
        reduced = dataclasses.replace(CONFIG, reduce=True)
        art = p2.analyze_source("a.c", SRC_A, reduced)
        assert p2.stats["parse"].runs == 0
        assert p2.stats["constraints"].hits == 1
        assert p2.stats["solve"].misses == 1
        assert not art.from_cache
        # Reduction is invisible in the answer: warm replays of both
        # axes agree on the canonical solution.
        p3 = Pipeline(cache=ResultCache(cache.root))
        off = p3.analyze_source("a.c", SRC_A, CONFIG)
        on = p3.analyze_source("a.c", SRC_A, reduced)
        assert p3.stats["solve"].hits == 2
        assert on.solution == off.solution

    def test_one_file_edit_rebuilds_only_that_member(self, cache):
        p1 = Pipeline(cache=cache)
        p1.link_sources(
            [p1.source("a.c", SRC_A), p1.source("b.c", SRC_B)]
        )
        assert p1.stats["constraints"].misses == 2

        edited = SRC_B.replace("slot", "cell")
        p2 = Pipeline(cache=ResultCache(cache.root))
        p2.link_sources(
            [p2.source("a.c", SRC_A), p2.source("b.c", edited)]
        )
        # a.c is a constraints-stage hit: only b.c re-parses.
        assert p2.stats["constraints"].hits == 1
        assert p2.stats["constraints"].misses == 1
        assert p2.stats["parse"].runs == 1
        # The member set changed, so the link re-runs.
        assert p2.stats["link"].misses == 1

    def test_link_stage_hit(self, cache):
        p1 = Pipeline(cache=cache)
        sources = [p1.source("a.c", SRC_A), p1.source("b.c", SRC_B)]
        first = p1.link_sources(sources)
        p2 = Pipeline(cache=ResultCache(cache.root))
        sources2 = [p2.source("a.c", SRC_A), p2.source("b.c", SRC_B)]
        second = p2.link_sources(sources2)
        assert second.from_cache
        assert second.key == first.key
        assert (
            second.linked.program.to_dict() == first.linked.program.to_dict()
        )

    def test_in_memory_memo(self):
        pipeline = Pipeline()
        src = pipeline.source("a.c", SRC_A)
        first = pipeline.constraints(src)
        assert pipeline.constraints(pipeline.source("a.c", SRC_A)) is first
        assert pipeline.stats["parse"].runs == 1
        assert pipeline.stats["lower"].runs == 1
        assert pipeline.stats["constraints"].runs == 1
        assert pipeline.stats["constraints"].memo_hits == 1
        assert pipeline.stats["lower"].memo_hits == 0
        # A default pipeline keeps no IR; one made with keep_ir keeps
        # the IR maps the build made with the program.
        assert first.built is None
        kept = Pipeline(keep_ir=True)
        kept_first = kept.constraints(kept.source("a.c", SRC_A))
        assert kept_first.built.program is kept_first.program
        # A different name is a different member.
        b = pipeline.source("b.c", SRC_A)
        assert pipeline.constraints(b) is not first
        assert pipeline.stats["constraints"].runs == 2
        # retain keeps the listed members and drops the others.
        pipeline.retain({(src.name, src.digest)})
        assert pipeline.constraints(src) is first
        pipeline.constraints(b)
        assert pipeline.stats["constraints"].runs == 3
        assert pipeline.stats["constraints"].memo_hits == 2

    def test_import_shares_the_memo(self):
        from repro.interchange import export_constraint_text

        pipeline = Pipeline()
        text = export_constraint_text(
            pipeline.constraints(pipeline.source("a.c", SRC_A)).program
        )
        src = pipeline.source("a.lir", text)
        first = pipeline.constraints_from_text(src)
        assert pipeline.constraints_from_text(src) is first
        assert first.built is None
        assert pipeline.stats["import"].runs == 1
        assert pipeline.stats["import"].memo_hits == 1

    def test_constraints_key_is_pinned(self):
        """The stage key of a C source; cache entries written by every
        earlier version keep it."""
        pipeline = Pipeline()
        art = pipeline.constraints(pipeline.source("a.c", SRC_A))
        assert art.key == (
            "c7e13fe14d4bcc172273af2a39c7312cd6f2afbbec8dfe90df3d62afc66f3d05"
        )

    def test_corrupted_stage_entry_self_heals(self, cache):
        p1 = Pipeline(cache=cache)
        art = p1.constraints(p1.source("a.c", SRC_A))
        path = cache._stage_path("constraints", art.key)
        path.write_text("{not json")

        fresh_cache = ResultCache(cache.root)
        p2 = Pipeline(cache=fresh_cache)
        art2 = p2.constraints(p2.source("a.c", SRC_A))
        assert not art2.from_cache
        assert fresh_cache.stats_for("constraints").corrupted == 1
        assert art2.program_digest == art.program_digest

    def test_stage_entries_never_collide_with_solve_entries(self, cache):
        pipeline = Pipeline(cache=cache)
        pipeline.analyze_source("a.c", SRC_A, CONFIG)
        root = cache.root
        assert (root / "stages" / "constraints").is_dir()
        assert (root / "stages" / "solve").is_dir()
        assert not (root / "solve").exists()  # task namespace untouched

    def test_identical_sources_keep_distinct_module_names(self, cache):
        # Two TUs with byte-identical text are still distinct modules:
        # the cached entry must not leak the first TU's name into the
        # second (linker diagnostics depend on program names).
        src = "static int local;\nint read_it(void) { return local; }\n"
        pipeline = Pipeline(cache=cache)
        a = pipeline.constraints(pipeline.source("a.c", src))
        b = pipeline.constraints(pipeline.source("b.c", src))
        assert a.program.name == "a.c"
        assert b.program.name == "b.c"
        p2 = Pipeline(cache=ResultCache(cache.root))
        b_warm = p2.constraints(p2.source("b.c", src))
        assert b_warm.from_cache
        assert b_warm.program.name == "b.c"


class TestSerialization:
    def test_constraint_program_round_trip(self):
        from repro.analysis.constraints import ConstraintProgram

        pipeline = Pipeline()
        program = pipeline.constraints(pipeline.source("a.c", SRC_A)).program
        clone = ConstraintProgram.from_dict(program.to_dict())
        assert clone.digest() == program.digest()
        assert clone.to_dict() == program.to_dict()
        assert clone.linkage_ea == program.linkage_ea
        assert set(clone.symbols) == set(program.symbols)

    def test_linked_program_round_trip(self):
        pipeline = Pipeline()
        linked = pipeline.link_sources(
            [pipeline.source("a.c", SRC_A), pipeline.source("b.c", SRC_B)]
        ).linked
        clone = LinkedProgram.from_dict(linked.to_dict())
        assert clone.to_dict() == linked.to_dict()
        assert clone.summary() == linked.summary()
        assert clone.var_maps == linked.var_maps

    def test_rehydrated_program_solves_identically(self):
        from repro.analysis.constraints import ConstraintProgram

        pipeline = Pipeline()
        program = pipeline.constraints(pipeline.source("a.c", SRC_A)).program
        clone = ConstraintProgram.from_dict(program.to_dict())
        sol_orig = pipeline.solve(program, CONFIG)
        sol_clone = pipeline.solve(clone, CONFIG)
        assert sol_orig.solution == sol_clone.solution
        assert sol_orig.solution.stats == sol_clone.solution.stats

    def test_stage_report_shape(self):
        pipeline = Pipeline()
        pipeline.analyze_source("a.c", SRC_A, CONFIG)
        report = pipeline.stage_report()
        assert set(report) == set(Pipeline.STAGES)
        assert all("seconds" in stats for stats in report.values())
        canonical = pipeline.stage_report(timings=False)
        assert all("seconds" not in stats for stats in canonical.values())
        text = json.dumps(canonical, sort_keys=True)
        assert json.loads(text) == canonical


class TestDigestsOnlyWhenRead:
    """A member's program digest is read only by cache keys, the served
    binding check and ``--state-dir``; without those nothing hashes."""

    @pytest.fixture
    def digests(self, monkeypatch):
        from repro.analysis.constraints import ConstraintProgram

        calls = []
        digest = ConstraintProgram.digest

        def counted(program):
            calls.append(program.name)
            return digest(program)

        monkeypatch.setattr(ConstraintProgram, "digest", counted)
        return calls

    def test_repro_link_without_a_cache_hashes_no_program(
        self, digests, tmp_path
    ):
        from repro.__main__ import main

        paths = []
        for name, text in (("a.c", SRC_A), ("b.c", SRC_B)):
            path = tmp_path / name
            path.write_text(text)
            paths.append(str(path))
        out = tmp_path / "report.json"
        assert main(["link", *paths, "--out", str(out)]) == 0
        assert out.exists() and digests == []

    def test_project_open_without_a_cache_hashes_no_program(self, digests):
        from repro.serve import Project

        project = Project()
        project.open({"a.c": SRC_A, "b.c": SRC_B})
        project.update({"a.c": SRC_A + "int *more;\n"})
        assert digests == []

    def test_a_cached_link_keys_on_every_member_digest(self, digests, cache):
        pipeline = Pipeline(cache=cache)
        pipeline.link_sources(
            [pipeline.source("a.c", SRC_A), pipeline.source("b.c", SRC_B)]
        )
        assert sorted(digests) == ["a.c", "b.c"]

    def test_state_dir_persists_every_member_digest(self, tmp_path):
        from repro.serve import Project
        from repro.serve.state import save_project

        project = Project()
        project.open({"a.c": SRC_A, "b.c": SRC_B})
        path = save_project(tmp_path, "p1", project)
        members = json.loads(path.read_text())["members"]
        assert [m["program_digest"] for m in members] == [
            m.program.digest() for m in project.snapshot.members
        ]
