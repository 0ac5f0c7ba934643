"""The named solution digest is computed once per audit context.

``repro audit`` keys its stage on the solution's named digest and
writes the same digest into the report; a served engine answers every
audit of one generation from one context.  Both read
``AuditContext.solution_digest``, which hashes the solution on its
first read only, so a command or a generation hashes once however many
reports and keys need the digest.
"""

import pytest

from repro.__main__ import main
from repro.analysis.solution import Solution
from repro.serve import AnalysisServer, InProcessClient, Project

from .util import GOLDEN, read_fixture


@pytest.fixture
def digest_calls(monkeypatch):
    """The solutions ``named_canonical_digest`` was called on, in order."""
    calls = []
    digest = Solution.named_canonical_digest

    def counted(self):
        calls.append(self)
        return digest(self)

    monkeypatch.setattr(Solution, "named_canonical_digest", counted)
    return calls


def test_cli_audit_hashes_the_solution_once(tmp_path, digest_calls):
    leak = tmp_path / "leak.c"
    leak.write_text(read_fixture("leak.c"))
    out = tmp_path / "report.json"
    assert main(["audit", "escape", str(leak), "--out", str(out)]) == 0
    assert len(digest_calls) == 1
    assert out.read_text() == (GOLDEN / "leak_escape.json").read_text()


def test_served_audit_batch_hashes_each_generation_once(digest_calls):
    project = Project()
    client = InProcessClient(AnalysisServer(project))
    files = {name: read_fixture(name) for name in ("leak.c", "race.c")}
    client.call("open", {"files": files})
    requests = [{"client": "escape"}, {"client": "races"}]
    for generation in (1, 2):
        solution = project.snapshot.solution
        before = len(digest_calls)
        results = client.call("audit_batch", {"requests": requests})["results"]
        assert len(digest_calls) == before + 1
        assert digest_calls[-1] is solution
        assert [item["ok"] for item in results] == [True, True]
        digest = solution.named_canonical_digest()
        assert [item["result"]["solution"] for item in results] == [digest] * 2
        if generation == 1:
            files["leak.c"] += "\nint *appended_global;\n"
            client.call("update", {"files": {"leak.c": files["leak.c"]}})
