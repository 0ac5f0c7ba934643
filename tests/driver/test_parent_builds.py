"""Batch commands build each constraint program once, in the parent.

The driver's workers only look a program up, prepare it and solve it.
Here the four program builders raise in any process but the test's own:
a worker that compiled, generated, constraint-built or parsed a program
would fail the run.  A frontend error therefore surfaces in the parent,
with the file's name, for any ``--jobs``.
"""

import functools
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.bench.runner import run_experiment
from repro.bench.suite import build_corpus, flatten

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "corpus"
CONFIGS = ["EP+Naive", "IP+WL(FIFO)", "IP+WL(FIFO)+PIP"]
TEST_PID = os.getpid()


class BuiltInWorker(RuntimeError):
    """A constraint program was built outside the test's process."""


def parent_only(builder):
    @functools.wraps(builder)
    def guarded(*args, **kwargs):
        if os.getpid() != TEST_PID:
            raise BuiltInWorker(builder.__name__)
        return builder(*args, **kwargs)

    return guarded


@pytest.fixture
def builders_in_parent_only(monkeypatch):
    """Guard every builder under each name a repro module bound it to."""
    from repro.analysis.frontend import build_constraints
    from repro.bench.corpus import generate_c_source
    from repro.frontend import compile_c
    from repro.interchange import parse_constraint_text

    builders = (compile_c, build_constraints, generate_c_source, parse_constraint_text)
    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if any(value is builder for builder in builders):
                    monkeypatch.setattr(module, attr, parent_only(value))
                    patched += 1
    assert patched >= len(builders)


def test_run_experiment_solves_the_parents_programs(builders_in_parent_only):
    files = flatten(
        build_corpus(
            files_scale=0.004, size_scale=0.006, seed=7, profiles=["505.mcf"]
        )
    )
    serial, parallel = (
        run_experiment(files, CONFIGS, repetitions=1, timing="cost", jobs=jobs)
        for jobs in (1, 2)
    )
    assert parallel.to_json() == serial.to_json()
    assert parallel.driver.solved == len(files) * len(CONFIGS)


def sweep_table(out):
    """The sweep's lines without the wall-time column or driver stats."""
    return [
        re.sub(r"\s+[\d.]+ms", "", line)
        for line in out.splitlines()
        if not line.startswith("driver:")
    ]


def test_sweep_solves_the_parents_program(builders_in_parent_only, capsys):
    source = str(EXAMPLES / "hashtable.c")
    assert main(["sweep", source]) == 0
    serial = capsys.readouterr().out
    assert main(["sweep", source, "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert "jobs=2" in parallel
    assert sweep_table(parallel) == sweep_table(serial)


def test_constraints_solve_uses_the_parsed_programs(
    builders_in_parent_only, tmp_path, capsys
):
    lir = tmp_path / "m.lir"
    sources = [str(path) for path in sorted(EXAMPLES.glob("*.c"))]
    assert main(["constraints", "export", *sources, "--out", str(lir)]) == 0
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"s{jobs}.json"
        argv = ["constraints", "solve", str(lir), "--jobs", jobs, "--out", str(out)]
        assert main(argv) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_sweep_include_runs_on_workers(tmp_path, capsys):
    """The parent compiles with the headers, so --include no longer
    limits --jobs; it still turns the cache off."""
    headers = tmp_path / "include"
    headers.mkdir()
    (headers / "cell.h").write_text("extern int cell;\nint *get(void);\n")
    source = tmp_path / "user.c"
    source.write_text('#include "cell.h"\nint *p = &cell;\nint *q;\n'
                      "void f(void) { q = get(); }\n")
    argv = ["sweep", str(source), "--include", str(headers), "--jobs", "2"]
    assert main([*argv, "--cache", "--cache-dir", str(tmp_path / "c")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: --include forces --no-cache\n"
    assert "all configurations produced the identical solution" in captured.out
    assert "jobs=2" in captured.out
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "name, text, diagnostic",
    [
        ("bad.c", "foo bar;\n", "bad.c:1: expected type specifier"),
        ("sema.c", "int f(void) { return y; }\n", "sema.c:1: undeclared identifier 'y'"),
    ],
)
def test_sweep_frontend_error_exits_under_jobs_2(tmp_path, name, text, diagnostic):
    path = tmp_path / name
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", str(path), "--jobs", "2"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"repro: error: {diagnostic}\n"
