"""The benchmark's own tests, on a tiny 505.mcf project.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(bench.__file__).resolve().parent.parent
TINY = ["--tiny", "--seconds", "0.2"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: per-layer values that depend on how many iterations fit in a run
TIMING_DEPENDENT = {
    "update.samples",
    "query.samples",
    "query.above_p90",
    "audit.samples",
    "trace.accounted_share",
}


def collect(workload: str, trace: int, seed: int = 0) -> dict:
    args = bench.parse_args(
        ["--workload", workload, "--seed", str(seed), "--trace", str(trace), *TINY]
    )
    return bench.collect(args)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = collect(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_its_counters(workload):
    first = collect(workload, trace=1)
    second = collect(workload, trace=1)
    for result in (first, second):
        assert result["correct"] is True
        assert [(n, m["unit"]) for n, m in result["metrics"].items()] == PER_LAYER
        metrics = result["metrics"]
        assert metrics["failure_rate"]["value"] == 0
        assert metrics["trace.accounted_share"]["value"] > 0.9
    counters = [
        name
        for name, unit in PER_LAYER
        if unit != "s" and name not in TIMING_DEPENDENT
    ]
    assert {n: first["metrics"][n]["value"] for n in counters} == {
        n: second["metrics"][n]["value"] for n in counters
    }
    # the layers that define each workload did measurable work
    defining = {
        "xz-cold": ["parse.self_s", "cli.self_s", "encode.named_s"],
        "xz-configs": ["solve.ocd.loop_s", "cycles.ocd.hook_s", "reduce.s"],
        "xz-serve-edits": ["serve.update_s", "audit.run_s", "encode.digest_s"],
    }[workload]
    assert all(first["metrics"][n]["value"] > 0 for n in defining)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_an_answer_that_differs_from_the_reference_fails(workload, monkeypatch):
    from repro.analysis.solvers.worklist import WorklistSolver

    solve = WorklistSolver.solve

    def drop_one_pointee(self):
        # IP+Naive, the reference, does not use the worklist solver
        solution = solve(self)
        in_m = solution.program.in_m
        victim = next(
            p for p in solution.pointers() if in_m[p] and solution.points_to(p)
        )
        solution._points_to[victim] = frozenset()
        return solution

    monkeypatch.setattr(WorklistSolver, "solve", drop_one_pointee)
    result = collect(workload, trace=0)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xz-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_times_add_up_to_the_root_and_originals_come_back():
    import repro.link as link
    from repro.serve.client import InProcessClient

    tracer = Tracer()
    original = link.link_programs
    tracer.wrap_function(link, "link_programs", "link")
    tracer.wrap_method(InProcessClient, "request", "client")
    tracer.install()
    assert link.link_programs is not original
    assert "request" in InProcessClient.__dict__
    tracer.uninstall()
    assert link.link_programs is original
    assert "request" not in InProcessClient.__dict__

    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                sum(range(10000))
        with tracer.span("child"):
            sum(range(10000))
    total = tracer.total_s["root"]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.calls["child"] == 2
    parents = {span_id: parent for span_id, _, _, _, parent in tracer.records}
    names = {span_id: name for span_id, name, _, _, _ in tracer.records}
    assert {names[s]: names.get(p) for s, p in parents.items()} == {
        "root": None, "child": "root", "grandchild": "child"
    }
