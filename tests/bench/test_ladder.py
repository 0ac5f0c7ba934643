"""The k-of-N incremental-completeness ladder (repro.bench.ladder)."""

import json

import pytest

from repro.analysis import parse_name
from repro.bench.corpus import ProgramSpec, generate_c_source, plan_program
from repro.bench.ladder import (
    canonical_report_json,
    check_monotone,
    format_table,
    ladder_over_members,
    main,
    run_ladder,
)
from repro.driver import ResultCache
from repro.pipeline import Pipeline

CONFIG = parse_name("IP+WL(FIFO)+PIP")
SPEC = ProgramSpec(name="ladder-test", seed=3, n_units=3, unit_size=25)


class TestLadder:
    def test_rungs_and_monotonicity(self):
        report = run_ladder(SPEC, CONFIG)
        rungs = report["rungs"]
        assert [r["k"] for r in rungs] == [1, 2, 3]
        assert report["monotone"] is True
        assert check_monotone(rungs) == []
        for metric in ("external_tu0", "concretized_tu0", "impfuncs_tu0"):
            values = [r[metric] for r in rungs]
            assert values == sorted(values, reverse=True)

    def test_members_grow_with_k(self):
        report = run_ladder(SPEC, CONFIG)
        for rung in report["rungs"]:
            assert len(rung["members"]) == rung["k"]
            assert rung["members"][0] == "ladder-test/unit0.c"

    def test_warm_run_is_canonically_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_ladder(SPEC, CONFIG, cache=ResultCache(cache_dir))
        warm_cache = ResultCache(cache_dir)
        warm = run_ladder(SPEC, CONFIG, cache=warm_cache)
        assert canonical_report_json(cold) == canonical_report_json(warm)
        # The warm run did no stage work at all.
        assert warm["stages"]["parse"]["runs"] == 0
        assert warm["stages"]["constraints"]["hits"] == 3
        assert warm["stages"]["solve"]["runs"] == 0

    def test_check_monotone_flags_violations(self):
        rungs = [
            {"external_tu0": 3, "concretized_tu0": 9,
             "omega_pointers_tu0": 2, "impfuncs_tu0": 1},
            {"external_tu0": 4, "concretized_tu0": 9,
             "omega_pointers_tu0": 2, "impfuncs_tu0": 1},
        ]
        problems = check_monotone(rungs)
        assert len(problems) == 1
        assert "external_tu0" in problems[0]

    def test_canonical_report_excludes_timings(self):
        report = run_ladder(SPEC, CONFIG)
        canonical = json.loads(canonical_report_json(report))
        assert "stages" not in canonical
        assert canonical["units"] == report["units"]

    def test_format_table_lists_every_rung(self):
        report = run_ladder(SPEC, CONFIG)
        table = format_table(report)
        assert len(table.splitlines()) == 2 + len(report["rungs"])

    def test_ladder_over_explicit_members(self):
        pipeline = Pipeline()
        sources = [
            pipeline.source(u.name, generate_c_source(u))
            for u in plan_program(SPEC)
        ]
        members = [pipeline.constraints(src) for src in sources]
        rungs = ladder_over_members(pipeline, members[:2], CONFIG)
        assert len(rungs) == 2

    def test_bad_config_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config", "IP+Naive+WL(LRF)"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "sets the solver twice ('Naive', then 'WL(LRF)')" in err
