"""CLI surface of the interchange frontend (`repro constraints`).

Also locks the atomic-output bugfix contract for every file-taking
command: a failing write exits nonzero with a one-line diagnostic and
leaves *no partial file* (and no stray temp file) under the requested
name.
"""

import json
import pathlib

import pytest

from repro.__main__ import main

MAIN_C = """
int shared;
extern int* mk(void);
int* p = &shared;
int main(void) { return *mk(); }
"""

LIB_C = """
int backing;
int* mk(void) { return &backing; }
"""


@pytest.fixture
def tu_pair(tmp_path):
    a = tmp_path / "main.c"
    a.write_text(MAIN_C)
    b = tmp_path / "lib.c"
    b.write_text(LIB_C)
    return [str(a), str(b)]


class TestConstraintsExport:
    def test_single_file_stdout(self, tu_pair, capsys):
        assert main(["constraints", "export", tu_pair[0]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# repro constraint interchange")
        assert ".format 1" in out and ".var " in out
        assert " <= " in out

    def test_multi_file_links_and_exports(self, tu_pair, tmp_path, capsys):
        out_path = tmp_path / "joint.lir"
        assert main(
            ["constraints", "export", *tu_pair, "--out", str(out_path)]
        ) == 0
        text = out_path.read_text()
        assert '.program' in text
        # mk resolves across modules: the joint program carries both TUs
        assert '"mk"' in text and '"backing"' in text

    def test_export_repeats_byte_identically(self, tu_pair, capsys):
        assert main(["constraints", "export", *tu_pair]) == 0
        first = capsys.readouterr().out
        assert main(["constraints", "export", *tu_pair]) == 0
        assert capsys.readouterr().out == first


class TestLirMembers:
    """An exported ``.lir`` member links like the C file it came from,
    on every command that links."""

    @pytest.fixture
    def members(self, tmp_path, capsys):
        corpus = pathlib.Path(__file__).parents[2] / "examples" / "corpus"
        arena_lir = tmp_path / "arena.lir"
        assert main([
            "constraints", "export", str(corpus / "arena.c"),
            "--out", str(arena_lir),
        ]) == 0
        capsys.readouterr()
        hashtable = str(corpus / "hashtable.c")
        return [str(corpus / "arena.c"), hashtable], [str(arena_lir), hashtable]

    def test_link_out_solution_matches_all_c(self, members, tmp_path, capsys):
        all_c, mixed = members
        solutions = []
        for name, files in (("c", all_c), ("mixed", mixed)):
            out = tmp_path / f"{name}.json"
            assert main(["link", *files, "--no-cache", "--out", str(out)]) == 0
            solutions.append(json.loads(out.read_text())["solution"])
        assert solutions[0] == solutions[1]

    def test_export_matches_all_c(self, members, capsys):
        texts = []
        for files in members:
            assert main(["constraints", "export", *files]) == 0
            texts.append([
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith(".program ")
            ])
        assert texts[0] == texts[1]


class TestConstraintsSolve:
    def solve(self, args, capsys):
        assert main(["constraints", "solve", *args]) == 0
        return capsys.readouterr().out

    def test_roundtrip_matches_link_solution(self, tu_pair, tmp_path, capsys):
        report = tmp_path / "link.json"
        assert main(["link", *tu_pair, "--out", str(report)]) == 0
        capsys.readouterr()
        linked_solution = json.loads(report.read_text())["solution"]

        lir = tmp_path / "joint.lir"
        assert main(
            ["constraints", "export", *tu_pair, "--out", str(lir)]
        ) == 0
        capsys.readouterr()
        solved = tmp_path / "solved.json"
        assert main(
            ["constraints", "solve", str(lir), "--out", str(solved)]
        ) == 0
        entry = json.loads(solved.read_text())["results"][0]
        assert entry["solution"] == linked_solution

    def test_backend_reduce_jobs_agree(self, tu_pair, tmp_path, capsys):
        lir = tmp_path / "joint.lir"
        assert main(
            ["constraints", "export", *tu_pair, "--out", str(lir)]
        ) == 0
        capsys.readouterr()
        digest = lambda out: [
            line for line in out.splitlines() if "solution " in line
        ]
        base = digest(self.solve([str(lir)], capsys))
        assert digest(
            self.solve([str(lir), "--backend", "bitset"], capsys)
        ) == base
        assert digest(
            self.solve([str(lir), "--reduce", "--jobs", "2"], capsys)
        ) == base

    def test_show_solution(self, tu_pair, tmp_path, capsys):
        lir = tmp_path / "m.lir"
        assert main(
            ["constraints", "export", tu_pair[0], "--out", str(lir)]
        ) == 0
        capsys.readouterr()
        out = self.solve([str(lir), "--show-solution"], capsys)
        assert "Sol(" in out and "externally accessible" in out

    def test_malformed_file_one_line_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.lir"
        bad.write_text("ref(a,a) <= p\nwat\n")
        assert main(["constraints", "solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == "repro: error: bad.lir:2: expected '<exp> <= <exp>'\n"


class TestNoPartialOutputFiles:
    """A failed write must leave nothing behind under the target name."""

    def check_no_leftovers(self, directory):
        assert not directory.exists() or not list(directory.iterdir())

    def test_constraints_export_unwritable_out(self, tu_pair, tmp_path,
                                               capsys):
        target = tmp_path / "nodir" / "x.lir"
        assert main(
            ["constraints", "export", tu_pair[0], "--out", str(target)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1
        self.check_no_leftovers(target.parent)

    def test_constraints_solve_unwritable_out(self, tu_pair, tmp_path,
                                              capsys):
        lir = tmp_path / "m.lir"
        assert main(
            ["constraints", "export", tu_pair[0], "--out", str(lir)]
        ) == 0
        capsys.readouterr()
        target = tmp_path / "nodir" / "report.json"
        assert main(
            ["constraints", "solve", str(lir), "--out", str(target)]
        ) == 1
        assert capsys.readouterr().err.startswith("repro: error: ")
        self.check_no_leftovers(target.parent)

    def test_link_unwritable_out(self, tu_pair, tmp_path, capsys):
        target = tmp_path / "nodir" / "report.json"
        assert main(["link", *tu_pair, "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("repro: error: ")
        self.check_no_leftovers(target.parent)

    def test_trace_out_unwritable(self, tu_pair, tmp_path, capsys):
        target = tmp_path / "nodir" / "trace.jsonl"
        assert main(
            ["link", *tu_pair, "--trace-out", str(target)]
        ) == 1
        assert capsys.readouterr().err.startswith("repro: error: ")
        self.check_no_leftovers(target.parent)

    def test_trace_crash_leaves_no_file(self, tmp_path):
        """TraceWriter only publishes the file on clean close."""
        from repro.obs import TraceWriter

        target = tmp_path / "trace.jsonl"
        writer = TraceWriter(target)
        writer.emit("stage", "parse", {"n": 1})
        assert not target.exists()  # still only the temp file
        writer.close()
        assert target.exists()
        lines = target.read_text().splitlines()
        assert json.loads(lines[0])["event"] == "stage"
        assert not [
            p for p in tmp_path.iterdir() if p.name != "trace.jsonl"
        ]

    def test_missing_input_is_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.lir"
        assert main(["constraints", "solve", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1
