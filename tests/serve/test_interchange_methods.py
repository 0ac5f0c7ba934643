"""Serve-side interchange: `export_constraints` / `solve_constraints`,
plus the hostile-frame hardening that rode along in this PR.

The wire contract: exporting any open project's linked program and
feeding the text back through ``solve_constraints`` reproduces that
generation's named canonical solution exactly; raw constraint text can
be solved with *no* open project; and no hostile frame — boolean
schema, non-string project, malformed text — ever raises in a worker
thread (every one is answered structurally with the request id echoed).
"""

import json

import pytest

from repro.serve import AnalysisServer
from repro.serve.client import InProcessClient, ServeError

SRC_A = """
int cell;
int* give(void) { return &cell; }
"""

SRC_B = """
extern int* give(void);
int main(void) { return *give(); }
"""

LIR = "ref(_buf,_buf) <= p\nh <= lam_[fn](_,r,p)\n"


@pytest.fixture
def server():
    return AnalysisServer()


@pytest.fixture
def client(server):
    c = InProcessClient(server)
    c.call("open", {"files": {"a.c": SRC_A, "b.c": SRC_B}})
    return c


class TestExportConstraints:
    def test_export_roundtrips_to_same_solution(self, client):
        exported = client.call("export_constraints")
        assert exported["text"].startswith("# repro constraint interchange")
        solved = client.call(
            "solve_constraints", {"text": exported["text"]}
        )
        assert solved["solution"] == client.call("solution")

    def test_export_digest_matches_program(self, client):
        from repro.interchange import parse_constraint_text

        exported = client.call("export_constraints")
        back = parse_constraint_text(exported["text"])
        assert back.digest() == exported["digest"]

    def test_export_is_memoised_per_generation(self, server, client):
        client.call("export_constraints")
        client.call("export_constraints")
        assert server.memo.to_dict()["hits"] >= 1


class TestSolveConstraints:
    def test_no_open_project_needed(self, server):
        client = InProcessClient(server)
        result = client.call("solve_constraints", {"text": LIR})
        assert result["solution"]["external"] == ["_buf"]
        # Ω stands for every name in "external": _buf holds itself.
        assert result["solution"]["points_to"]["_buf"] == ["Ω"]
        assert result["vars"] == 4 and result["config"]

    def test_explicit_config_and_memo(self, server):
        client = InProcessClient(server)
        a = client.call(
            "solve_constraints",
            {"text": LIR, "config": "IP+WL(LRF)+PIP+PTS(bitset)"},
        )
        b = client.call(
            "solve_constraints",
            {"text": LIR, "config": "IP+WL(LRF)+PIP+PTS(bitset)"},
        )
        assert a == b
        assert server._constraints_memo.to_dict()["hits"] == 1
        # A different configuration is a different memo entry, but the
        # named solution is configuration-independent.
        c = client.call(
            "solve_constraints", {"text": LIR, "config": "EP+WL(FIFO)"}
        )
        assert c["solution"] == a["solution"]

    def test_malformed_text_is_build_error(self, server):
        client = InProcessClient(server)
        with pytest.raises(ServeError) as info:
            client.call("solve_constraints", {"text": "x <= \n"})
        assert info.value.code == "build_error"
        assert "<constraints>:1:" in str(info.value)

    @pytest.mark.parametrize(
        "params,code",
        [
            ({}, "invalid_params"),
            ({"text": 5}, "invalid_params"),
            ({"text": "   "}, "invalid_params"),
            ({"text": LIR, "config": "NOPE"}, "invalid_params"),
            ({"text": LIR, "config": 3}, "invalid_params"),
            ({"text": LIR, "wat": 1}, "invalid_params"),
            ({"text": LIR, "config": "IP+WL(FIFO)+PIP+PIP"}, "invalid_params"),
        ],
    )
    def test_bad_params_are_structured(self, server, params, code):
        client = InProcessClient(server)
        with pytest.raises(ServeError) as info:
            client.call("solve_constraints", params)
        assert info.value.code == code


class TestHostileFrames:
    """Raw-line hardening: structured errors, id echoed, never a raise."""

    def answer(self, server, frame):
        return json.loads(server.handle_line(json.dumps(frame)))

    def test_boolean_schema_rejected(self, server):
        # bool is an int subclass; {"schema": true} must not launder
        # into schema 1 via True == 1.
        response = self.answer(
            server, {"schema": True, "id": 5, "method": "ping"}
        )
        assert response["ok"] is False
        assert response["id"] == 5
        assert response["error"]["code"] == "invalid_request"

    def test_non_string_project_answers_with_id(self, server):
        response = self.answer(
            server,
            {"schema": 2, "id": 9, "method": "ping", "project": 42},
        )
        assert response["ok"] is False
        assert response["id"] == 9
        assert response["error"]["code"] == "invalid_request"

    @pytest.mark.parametrize(
        "project", [None, True, 3.5, [], {}, "", ".hidden", "a" * 99]
    )
    def test_project_shapes_never_raise(self, server, project):
        response = self.answer(
            server,
            {"schema": 2, "id": 1, "method": "ping", "project": project},
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid_request"

    def test_solve_constraints_worker_thread_survives(self, server):
        # Dispatch through the real worker pool (timeout path) with
        # malformed text: the answer is structured, the server lives.
        server.timeout = 30.0
        response = self.answer(
            server,
            {
                "schema": 2,
                "id": 7,
                "method": "solve_constraints",
                "params": {"text": "wat\n"},
            },
        )
        assert response["id"] == 7
        assert response["error"]["code"] == "build_error"
        ping = self.answer(server, {"schema": 2, "id": 8, "method": "ping"})
        assert ping["ok"] is True
        server.finish()
