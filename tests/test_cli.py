"""CLI tests (python -m repro)."""

import json
import pathlib

import pytest

from repro import __version__
from repro.__main__ import main

SRC = """
static int x;
extern int* getPtr(void);
int* p = &x;
int use(void) { return *getPtr(); }
"""


@pytest.fixture
def cfile(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(SRC)
    return str(path)


class TestCLI:
    def test_compile(self, cfile, capsys):
        assert main(["compile", cfile]) == 0
        out = capsys.readouterr().out
        assert "@p" in out and "define" in out

    def test_analyze(self, cfile, capsys):
        assert main(["analyze", cfile]) == 0
        out = capsys.readouterr().out
        assert "externally accessible" in out
        assert "getPtr" in out
        assert "Sol(" in out

    def test_analyze_with_config_and_dump(self, cfile, capsys):
        assert main(
            ["analyze", cfile, "--config", "EP+Naive", "--dump-constraints"]
        ) == 0
        out = capsys.readouterr().out
        assert "EP+Naive" in out
        assert "ImpFunc" in out  # from the constraint dump

    def test_analyze_pts_backend(self, cfile, capsys):
        assert main(["analyze", cfile, "--pts-backend", "bitset"]) == 0
        bitset_out = capsys.readouterr().out
        assert main(["analyze", cfile]) == 0
        set_out = capsys.readouterr().out
        # Identical report apart from the configuration banner.
        strip = lambda text: [
            l for l in text.splitlines() if not l.startswith(";")
        ]
        assert strip(bitset_out) == strip(set_out)

    def test_analyze_unknown_pts_backend_rejected(self, cfile, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", cfile, "--pts-backend", "roaring"])

    def test_sweep(self, cfile, capsys):
        assert main(["sweep", cfile]) == 0
        out = capsys.readouterr().out
        assert "identical solution" in out

    def test_sweep_pts_backend(self, cfile, capsys):
        assert main(["sweep", cfile, "--pts-backend", "bitset"]) == 0
        out = capsys.readouterr().out
        assert "identical solution" in out

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "IP+WL(FIFO)+PIP" in out.splitlines()

    def test_include_dir(self, tmp_path, capsys):
        (tmp_path / "api.h").write_text("extern int api(void);\n")
        source = tmp_path / "m.c"
        source.write_text('#include "api.h"\nint f(void) { return api(); }\n')
        assert main(
            ["analyze", str(source), "--include", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "api" in out


@pytest.fixture
def tu_pair(tmp_path):
    a = tmp_path / "a.c"
    a.write_text(
        "extern int *get_cell(void);\n"
        "int *ap;\n"
        "void use(void) { ap = get_cell(); }\n"
    )
    b = tmp_path / "b.c"
    b.write_text("int cell;\nint *get_cell(void) { return &cell; }\n")
    return str(a), str(b)


class TestLinkCLI:
    def test_link_two_files(self, tu_pair, capsys):
        assert main(["link", *tu_pair]) == 0
        out = capsys.readouterr().out
        assert "linked 2 modules" in out
        assert "get_cell: defined in b.c, imported by a.c" in out
        assert "externally accessible" in out

    def test_link_ladder(self, tu_pair, capsys):
        assert main(["link", *tu_pair, "--ladder"]) == 0
        out = capsys.readouterr().out
        assert "prefix ladder" in out
        assert "|E∩TU0|" in out

    def test_link_report_json(self, tu_pair, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        cache_dir = tmp_path / "cache"
        args = [
            "link", *tu_pair, "--ladder", "--cache",
            "--cache-dir", str(cache_dir), "--out", str(report_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["link"]["members"] == 2
        assert report["resolved_imports"] == ["get_cell"]
        assert "points_to" in report["solution"]
        assert set(report["stages"]) == {
            "parse", "lower", "constraints", "import", "link", "solve",
            "audit",
        }
        assert all("seconds" in s for s in report["stages"].values())
        assert len(report["ladder"]) == 2

        # Warm re-run: every persistent stage hits the cache.
        assert main(args) == 0
        capsys.readouterr()
        warm = json.loads(report_path.read_text())
        assert warm["stages"]["parse"]["runs"] == 0
        assert warm["stages"]["constraints"]["hits"] == 2
        assert warm["solution"] == report["solution"]

    def test_link_show_solution(self, tu_pair, capsys):
        assert main(["link", *tu_pair, "--show-solution"]) == 0
        out = capsys.readouterr().out
        assert "Sol(" in out

    def test_link_internalize(self, tu_pair, capsys):
        assert main(["link", *tu_pair, "--internalize", "--keep", "use"]) == 0
        out = capsys.readouterr().out
        # Internalized: cell/ap are no longer externally accessible.
        external = out.split("externally accessible:")[1]
        assert "cell" not in external and "ap" not in external

    def test_link_duplicate_definition_fails(self, tmp_path, capsys):
        a = tmp_path / "a.c"
        a.write_text("int shared;\n")
        b = tmp_path / "b.c"
        b.write_text("int shared;\n")
        assert main(["link", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "link error" in err
        assert "duplicate definition of symbol 'shared'" in err

    def test_link_single_file_matches_analyze(self, cfile, capsys):
        assert main(["link", cfile]) == 0
        out = capsys.readouterr().out
        assert "linked 1 modules" in out
        assert "getPtr" in out

    def test_link_cache_max_entries(self, tu_pair, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = [
            "link", *tu_pair, "--cache", "--cache-dir", str(cache_dir),
            "--cache-max-entries", "1",
        ]
        assert main(args) == 0
        capsys.readouterr()
        # Two TUs through a 1-entry bound: the per-TU constraints
        # namespace is evicted down to one entry; the command still
        # succeeds and re-runs.
        assert len(list(cache_dir.glob("stages/constraints/*/*.json"))) == 1
        assert main(args) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", ["2", "8"])
    @pytest.mark.parametrize(
        "mode", [[], ["--internalize", "--keep", "use"]],
        ids=["open", "internalize"],
    )
    def test_link_jobs_has_no_effect(self, mode, jobs, tu_pair, capsys):
        assert main(["link", *tu_pair, *mode, "--show-solution"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["link", *tu_pair, *mode, "--jobs", jobs, "--show-solution"]
        ) == 0
        assert capsys.readouterr().out == serial


class TestNumericOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["sweep"], "--cache-max-entries"),
            (["link"], "--cache-max-entries"),
            (["audit", "escape"], "--cache-max-entries"),
            (["constraints", "export"], "--cache-max-entries"),
            (["constraints", "solve"], "--cache-max-entries"),
            (["serve"], "--workers"),
            (["query", "-q", "classify"], "--cache-max-entries"),
            (["query", "-q", "classify"], "--memo-max-entries"),
            (["query", "-q", "classify"], "--max-request-bytes"),
            (["run"], "--cache-max-entries"),
            (["sweep"], "--jobs"),
            (["link"], "--jobs"),
            (["constraints", "solve"], "--jobs"),
            (["run"], "--jobs"),
            (["run"], "--repetitions"),
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_must_be_positive(self, argv, option, value, cfile, capsys):
        # ``run`` takes no C file: it generates its corpus.
        files = [] if argv == ["run"] else [cfile]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *files, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"must be a positive integer, got {value}" in err


class TestConfigurationNames:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "{c}", "--config", "NOPE"],
             "cannot parse configuration part 'NOPE'"),
            (["link", "{c}", "--config", "IP+WL(XYZ)"],
             "unknown iteration order 'XYZ'"),
            (["sweep", "{c}", "IP+Naive+PIP"],
             "online techniques require the WL solver"),
            (["audit", "escape", "{c}", "--config", "EP+PIP"],
             "incomplete configuration name 'EP+PIP'"),
            (["constraints", "solve", "{lir}", "--config", "IP+Bogus"],
             "cannot parse configuration part 'Bogus'"),
            (["query", "{c}", "-q", "classify", "--config", "NOPE"],
             "cannot parse configuration part 'NOPE'"),
            (["serve", "--stdio", "--config", "NOPE"],
             "cannot parse configuration part 'NOPE'"),
            (["run", "--configs", "NOPE"],
             "cannot parse configuration part 'NOPE'"),
        ],
        ids=[
            "analyze", "link", "sweep", "audit", "constraints-solve",
            "query", "serve", "run",
        ],
    )
    def test_bad_name_is_a_usage_error(self, argv, message, cfile, capsys):
        lir = pathlib.Path(__file__).parent / "audit/fixtures/leak.lir"
        argv = [arg.format(c=cfile, lir=lir) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert message in err
        assert "Traceback" not in err


class TestVersionAndDiagnostics:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    @pytest.fixture
    def badfile(self, tmp_path):
        path = tmp_path / "broken.c"
        path.write_text("int main(void) { return 0\n")
        return str(path)

    @pytest.mark.parametrize(
        "command",
        [
            lambda f: ["compile", f],
            lambda f: ["analyze", f],
            lambda f: ["sweep", f],
            lambda f: ["link", f],
            lambda f: ["query", f, "-q", "classify"],
        ],
    )
    def test_frontend_errors_are_one_line_diagnostics(
        self, badfile, capsys, command
    ):
        assert main(command(badfile)) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        [line] = [l for l in captured.err.splitlines() if l]
        assert line.startswith("repro: error: broken.c:2: ")

    def test_sema_error_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "sema.c"
        path.write_text("int f(void) { return undeclared_name; }\n")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: sema.c:1: ")
        assert "undeclared_name" in err


class TestServeQueryCLI:
    def test_query_single_and_json_forms(self, tu_pair, capsys):
        assert main([
            "query", *tu_pair,
            "-q", "classify",
            "-q", json.dumps(
                {"method": "points_to", "params": {"var": "ap"}}
            ),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["ok"] and first["generation"] == 1
        assert "cell" in first["result"]["external"]
        # Open-world linking: ap is itself external, so its Sol keeps Ω.
        assert "cell" in second["result"]["pointees"]
        assert second["result"]["omega"] is True

    def test_query_internalized_is_precise(self, tu_pair, capsys):
        assert main([
            "query", *tu_pair, "--internalize", "--keep", "use",
            "-q", json.dumps(
                {"method": "points_to", "params": {"var": "ap"}}
            ),
        ]) == 0
        response = json.loads(capsys.readouterr().out)
        # Whole-program view: ap can only hold &cell, no Ω.
        assert response["result"]["pointees"] == ["cell"]
        assert response["result"]["omega"] is False

    def test_query_error_exits_nonzero(self, tu_pair, capsys):
        assert main(["query", *tu_pair, "-q", "frobnicate"]) == 1
        response = json.loads(capsys.readouterr().out)
        assert response["error"]["code"] == "unknown_method"

    def test_query_over_request_limit_prints_error_frame(
        self, tu_pair, capsys
    ):
        argv = ["query", *tu_pair, "-q", "classify", "--max-request-bytes",
                "10"]
        assert main(argv) == 1
        response = json.loads(capsys.readouterr().out)
        assert response["id"] is None
        assert response["error"]["code"] == "request_too_large"

    def test_query_bad_json(self, tu_pair, capsys):
        assert main(["query", *tu_pair, "-q", "{nope"]) == 2
        assert "bad --query JSON" in capsys.readouterr().err

    def test_query_matches_repeat_runs_byte_identically(
        self, tu_pair, capsys
    ):
        argv = ["query", *tu_pair, "-q", "solution"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_stdio_subprocess_session(self, tu_pair, tmp_path):
        import subprocess
        import sys

        from repro.obs import read_trace
        from repro.serve import validate_response

        trace_path = tmp_path / "serve-trace.jsonl"
        requests = [
            {"schema": 1, "id": 1, "method": "ping", "params": {}},
            {"schema": 1, "id": 2, "method": "open",
             "params": {"files": {
                 "a.c": "int cell; int *get(void) { return &cell; }",
             }}},
            {"schema": 1, "id": 3, "method": "points_to",
             "params": {"var": "get.ret"}},
            {"schema": 1, "id": 4, "method": "shutdown", "params": {}},
        ]
        stdin = "not even json\n" + "".join(
            json.dumps(r) + "\n" for r in requests
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--trace-out", str(trace_path)],
            input=stdin, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        responses = [
            validate_response(json.loads(line))
            for line in proc.stdout.splitlines()
        ]
        assert [r.get("id") for r in responses] == [None, 1, 2, 3, 4]
        assert responses[0]["error"]["code"] == "parse_error"
        assert all(r["ok"] for r in responses[1:])
        events = read_trace(trace_path, events=["serve"])
        assert [e["name"] for e in events] == [
            "<invalid>", "ping", "open", "points_to", "shutdown"
        ]

    def test_serve_tcp_restarts_from_state_dir(self, tmp_path):
        """``serve --tcp --state-dir DIR FILE`` persists its startup
        generation; a restart from DIR alone answers the same bytes."""
        import select
        import subprocess
        import sys

        from repro.serve import ServeClient, encode_frame

        source = tmp_path / "smoke.c"
        source.write_text(
            "int *gp; int x;\n"
            "void set(int *p) { gp = p; }\n"
            "int main(void) { set(&x); return *gp; }\n"
        )
        state_dir = tmp_path / "state"

        def session(*files):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--tcp", "127.0.0.1:0", "--workers", "2",
                 "--state-dir", str(state_dir), *files],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            try:
                # The banner is printed once the startup build is done.
                assert select.select([process.stderr], [], [], 120)[0]
                banner = process.stderr.readline()
                assert "listening on" in banner, banner
                host, _, port = banner.split()[-1].rpartition(":")
                with ServeClient.connect_tcp(host, int(port)) as client:
                    answers = [
                        encode_frame(client.request("points_to", {"var": "gp"})),
                        encode_frame(client.request("classify")),
                    ]
                    status = client.call("status")
                    client.shutdown()
                _, err = process.communicate(timeout=60)
                assert process.returncode == 0, err
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
            return answers, status

        cold, cold_status = session(str(source))
        warm, warm_status = session()
        assert warm == cold
        assert json.loads(cold[0])["generation"] == 1
        assert "x" in json.loads(cold[0])["result"]["pointees"]
        assert cold_status["state"]["saves"] == 1
        assert warm_status["open"] and warm_status["generation"] == 1
        assert warm_status["state"]["loads"] == 1
        assert warm_status["state"]["saves"] == 0
