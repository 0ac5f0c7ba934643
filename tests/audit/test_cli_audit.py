"""CLI end-to-end tests for ``repro audit``."""

import json

import pytest

from repro.__main__ import main

from .util import GOLDEN, read_fixture


@pytest.fixture
def fixture_paths(tmp_path):
    def write(*names):
        paths = []
        for name in names:
            path = tmp_path / name
            path.write_text(read_fixture(name))
            paths.append(str(path))
        return paths

    return write


class TestAuditCommand:
    def test_table_output(self, fixture_paths, capsys):
        (leak,) = fixture_paths("leak.c")
        assert main(["audit", "escape", leak]) == 0
        out = capsys.readouterr().out
        assert "heap.leak.r2" in out and "heap-leak" in out
        assert "heap.keep.r2" not in out  # retained by static sink

    def test_out_matches_golden_bytes(self, fixture_paths, tmp_path, capsys):
        (leak,) = fixture_paths("leak.c")
        out_path = tmp_path / "report.json"
        assert main(["audit", "escape", leak, "--out", str(out_path)]) == 0
        assert out_path.read_text() == (GOLDEN / "leak_escape.json").read_text()

    def test_json_format(self, fixture_paths, capsys):
        (dangling,) = fixture_paths("dangling.c")
        assert main(["audit", "dangling", dangling, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["client"] == "dangling"
        assert report["counts"]["total"] == 2

    def test_evidence_flag(self, fixture_paths, capsys):
        (race,) = fixture_paths("race.c")
        assert main(["audit", "races", race, "--evidence"]) == 0
        out = capsys.readouterr().out
        assert "evidence:" in out
        assert "spawns worker via pthread_create" in out

    def test_mixed_c_and_lir_members(self, fixture_paths, capsys):
        leak, lir = fixture_paths("leak.c", "leak.lir")
        assert main(["audit", "escape", leak, lir]) == 0
        out = capsys.readouterr().out
        # Heap sites from both front doors appear in one report.
        assert "heap.leak.r2" in out and "heap.alloc.r1" in out

    def test_ir_client_over_lir_only_fails_structured(
        self, fixture_paths, capsys
    ):
        (lir,) = fixture_paths("leak.lir")
        assert main(["audit", "dangling", lir]) == 1
        err = capsys.readouterr().err
        assert "repro: error:" in err and "no IR" in err

    def test_unknown_client_exits_2(self, fixture_paths, capsys):
        (leak,) = fixture_paths("leak.c")
        assert main(["audit", "nope", leak]) == 2
        assert "unknown audit client 'nope'" in capsys.readouterr().err

    def test_bad_param_flag_fails_structured(self, fixture_paths, capsys):
        (leak,) = fixture_paths("leak.c")
        # --roots belongs to races, not escape: structured error, rc 1.
        assert main(["audit", "escape", leak, "--roots", "main"]) == 1
        assert "unexpected params" in capsys.readouterr().err

    def test_oracle_flag_lands_in_report(self, fixture_paths, capsys):
        (dangling,) = fixture_paths("dangling.c")
        assert main(
            [
                "audit", "dangling", dangling,
                "--oracle", "andersen", "--format", "json",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["oracle"] == "andersen"


class TestAuditRelink:
    """``repro constraints export`` writes a joint ``.lir`` that ``repro
    audit`` links with more members.  The joint solution is the flat
    link's; IR-tier clients see the C members only."""

    @pytest.fixture
    def audit_both(self, fixture_paths, tmp_path, capsys):
        """(flat, relinked) reports of ``client`` over leak.c, race.c and
        dangling.c, the relinked run taking leak.c+race.c as one
        exported joint program."""
        leak, race, dangling = fixture_paths("leak.c", "race.c", "dangling.c")
        joint = tmp_path / "leak+race.lir"
        assert main(
            ["constraints", "export", leak, race, "--out", str(joint)]
        ) == 0

        def run(client, *extra):
            flat_out = tmp_path / "flat.json"
            relinked_out = tmp_path / "relinked.json"
            assert main(
                ["audit", client, leak, race, dangling, *extra,
                 "--out", str(flat_out)]
            ) == 0
            assert main(
                ["audit", client, str(joint), dangling, *extra,
                 "--out", str(relinked_out)]
            ) == 0
            capsys.readouterr()
            return (
                json.loads(flat_out.read_text()),
                json.loads(relinked_out.read_text()),
            )

        return run

    @pytest.mark.parametrize("client", ["escape", "races", "dangling", "calls"])
    def test_relinked_solution_matches_flat(self, client, audit_both):
        flat, relinked = audit_both(client)
        assert relinked["solution"] == flat["solution"]
        assert flat["program"] == "linked(leak.c+race.c+dangling.c)"
        assert relinked["program"] == "linked(linked(leak.c+race.c)+dangling.c)"

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--internalize"],
            ["--config", "IP+Reduce+WL(FIFO)+PIP"],
            ["--config", "IP+WL(FIFO)+PIP+PTS(bitset)"],
        ],
        ids=["open", "internalize", "reduce", "bitset"],
    )
    def test_escape_report_survives_relink(self, extra, audit_both):
        flat, relinked = audit_both("escape", *extra)
        assert flat["counts"]["total"] == 3
        del flat["program"], relinked["program"]
        assert relinked == flat

    def test_ir_tier_keeps_c_member_findings(self, audit_both):
        flat, relinked = audit_both("dangling")
        assert flat["counts"]["total"] == 2
        assert relinked["findings"] == flat["findings"]

    def test_ir_tier_loses_lir_member_findings(self, audit_both):
        """race.c's race candidate needs race.c's IR, which the joint
        ``.lir`` does not carry."""
        flat, relinked = audit_both("races")
        assert flat["counts"]["total"] == 1
        assert relinked["counts"]["total"] == 0

    @pytest.mark.parametrize("client", ["escape", "calls"])
    def test_whole_program_lir_alone(
        self, client, fixture_paths, tmp_path, capsys
    ):
        """Constraint-tier clients run over one exported whole program
        as over its C sources."""
        files = fixture_paths("leak.c", "race.c", "dangling.c")
        joint = tmp_path / "all.lir"
        assert main(
            ["constraints", "export", *files, "--out", str(joint)]
        ) == 0
        capsys.readouterr()
        assert main(["audit", client, *files, "--format", "json"]) == 0
        flat = json.loads(capsys.readouterr().out)
        assert main(["audit", client, str(joint), "--format", "json"]) == 0
        relinked = json.loads(capsys.readouterr().out)
        assert relinked["program"] == "linked(linked(leak.c+race.c+dangling.c))"
        assert relinked["solution"] == flat["solution"]
        assert relinked["counts"] == flat["counts"]


class TestAuditCache:
    def test_cold_then_warm_byte_identical(
        self, fixture_paths, tmp_path, capsys
    ):
        files = fixture_paths("leak.c", "dangling.c")
        cache_dir = str(tmp_path / "cache")
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        base = ["audit", "dangling", *files, "--cache", "--cache-dir", cache_dir]
        assert main(base + ["--out", str(r1)]) == 0
        assert main(base + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
