"""Server tests: dispatch robustness, timeouts, shutdown, transports.

Everything an untrusted client can send must come back as a structured
error frame on a still-running server; these tests drive the dispatcher
through the same ``handle_line`` entry point both transports use, plus
real stdio and TCP sessions.
"""

import gc
import io
import json
import threading

import pytest

from repro.gcpause import holders
from repro.obs import Registry, TraceWriter, read_trace
from repro.serve import (
    AnalysisServer,
    InProcessClient,
    PROTOCOL_SCHEMA,
    Project,
    ServeClient,
    ServeError,
    encode_frame,
    serve_stdio,
    serve_tcp,
    validate_response,
)

A = """
int *gp;
int x;
void set(int *p) { gp = p; }
int main(void) { set(&x); return *gp; }
"""

B = """
extern int *gp;
int y;
void other(void) { gp = &y; }
"""

C = """
extern int x;
int *reader(void) { return &x; }
"""

D = """
extern int *gp;
int w;
int *pick(int c) { int *q = &w; if (c) q = gp; return q; }
"""


def make_server(**kwargs):
    registry = kwargs.pop("registry", Registry())
    server = AnalysisServer(Project(), registry=registry, **kwargs)
    return server, registry


def raw(server, line):
    """One raw line through the server; decoded, schema-validated."""
    return validate_response(json.loads(server.handle_line(line)))


class TestDispatchRobustness:
    def test_ping_before_open(self):
        server, _ = make_server()
        client = InProcessClient(server)
        assert client.call("ping") == {"pong": True}
        status = client.call("status")
        assert status["open"] is False and status["generation"] == 0

    def test_query_before_open_is_invalid_params(self):
        server, _ = make_server()
        response = InProcessClient(server).request("classify")
        assert not response["ok"]
        assert response["error"]["code"] == "invalid_params"

    def test_malformed_line_answered_not_raised(self):
        server, registry = make_server()
        response = raw(server, "this is not json")
        assert response["error"]["code"] == "parse_error"
        assert response["id"] is None
        assert registry.counter("serve.errors.parse_error") == 1
        # The server still works afterwards.
        assert raw(server, encode_frame(
            {"schema": PROTOCOL_SCHEMA, "id": 2, "method": "ping"}
        ))["ok"]

    def test_oversized_line_answered_not_raised(self):
        server, _ = make_server(max_request_bytes=128)
        big = encode_frame({
            "schema": PROTOCOL_SCHEMA, "id": 1, "method": "ping",
            "params": {"pad": "x" * 1000},
        })
        response = raw(server, big)
        assert response["error"]["code"] == "request_too_large"

    def test_client_takes_null_id_error_as_its_answer(self):
        # The size gate fires before the id is parsed, so the error
        # frame carries id null; the client still owns it.
        server, _ = make_server(max_request_bytes=10)
        client = InProcessClient(server)
        response = client.request("ping")
        assert response["id"] is None
        assert response["error"]["code"] == "request_too_large"
        with pytest.raises(ServeError) as exc:
            client.call("ping")
        assert exc.value.code == "request_too_large"

    def test_unknown_method(self):
        server, _ = make_server()
        response = InProcessClient(server).request("frobnicate")
        assert response["error"]["code"] == "unknown_method"

    def test_build_error_carries_file_and_line(self):
        server, _ = make_server()
        client = InProcessClient(server)
        response = client.request(
            "open", {"files": {"bad.c": "int main(void) { return 0\n"}}
        )
        assert response["error"]["code"] == "build_error"
        details = response["error"]["details"]
        assert details["file"] == "bad.c"
        assert details["line"] >= 1
        assert "bad.c:" in response["error"]["message"]
        # Project still closed, server still alive.
        assert client.call("status")["open"] is False

    def test_bad_open_params(self):
        server, _ = make_server()
        client = InProcessClient(server)
        for params in ({}, {"files": []}, {"files": {"a.c": 7}},
                       {"files": {}, "extra": 1}):
            response = client.request("open", params)
            assert not response["ok"]
            assert response["error"]["code"] == "invalid_params"

    def test_counters_and_methods_accounted(self):
        server, registry = make_server()
        client = InProcessClient(server)
        client.call("ping")
        client.call("open", {"files": {"a.c": A}})
        client.request("nope")
        assert registry.counter("serve.requests") == 3
        assert registry.counter("serve.method.ping") == 1
        assert registry.counter("serve.method.open") == 1
        assert registry.counter("serve.errors") == 1
        assert registry.timer("serve.request") > 0.0


class TestGenerationsAndQueries:
    def test_responses_carry_generation(self):
        server, _ = make_server()
        client = InProcessClient(server)
        assert client.request("ping")["generation"] == 0
        client.call("open", {"files": {"a.c": A, "b.c": B}})
        assert client.request("classify")["generation"] == 1
        client.call("update", {"files": {"b.c": B + "\nint z;\n"}})
        assert client.request("classify")["generation"] == 2

    def test_update_reports_stage_deltas(self):
        server, _ = make_server()
        client = InProcessClient(server)
        client.call("open", {"files": {"a.c": A, "b.c": B}})
        result = client.call("update", {"files": {"b.c": B + "\nint z;\n"}})
        assert result["stages"]["parse"]["runs"] == 1
        assert result["stages"]["constraints"]["runs"] == 1
        assert result["stages"]["link"]["runs"] == 1

    def test_memo_survives_generations_and_hits(self):
        server, _ = make_server()
        client = InProcessClient(server)
        client.call("open", {"files": {"a.c": A}})
        first = client.call("points_to", {"var": "gp"})
        assert client.call("points_to", {"var": "gp"}) == first
        status = client.call("status")
        assert status["memo"]["hits"] == 1
        # Key order on the wire must not defeat the memo: params are
        # canonicalised before keying.
        engine = server._engine_for_snapshot()
        engine.evaluate("points_to", {"var": "gp"})
        assert server.memo.hits == 2

    def test_commits_drop_superseded_generations_from_the_memo(self):
        server, _ = make_server()
        client = InProcessClient(server)
        client.call("open", {"files": {"a.c": A, "b.c": B}})

        def read():
            client.call("points_to", {"var": "gp"})
            client.call("classify")

        for i in range(10):
            read()
            client.call("update", {"files": {"b.c": B + f"\nint z{i};\n"}})
        read()
        memo = client.call("status")["memo"]
        assert memo["entries"] == 2 and memo["stores"] == 22
        assert memo["evicted"] == 20
        assert {key[0] for key in server.memo._entries} == {11}
        # A failed rebuild commits nothing and drops nothing.
        response = client.request("update", {"files": {"b.c": "int ("}})
        assert not response["ok"]
        assert client.call("status")["memo"] == memo

    def test_a_reader_of_a_superseded_snapshot_recomputes(self):
        server, _ = make_server()
        client = InProcessClient(server)
        client.call("open", {"files": {"a.c": A, "b.c": B}})
        old = server._engine_for_snapshot()
        before = client.call("points_to", {"var": "gp"})
        client.call("update", {"files": {"b.c": "int y;\n"}})
        assert client.call("points_to", {"var": "gp"}) != before
        misses = server.memo.misses
        assert old.evaluate("points_to", {"var": "gp"}) == before
        assert server.memo.misses == misses + 1
        # Its late entry goes at the next commit.
        assert {key[0] for key in server.memo._entries} == {1, 2}
        client.call("update", {"files": {"b.c": B}})
        assert len(server.memo) == 0

    def test_batch_mixes_successes_and_errors(self):
        server, _ = make_server()
        client = InProcessClient(server)
        client.call("open", {"files": {"a.c": A}})
        result = client.call("batch", {"queries": [
            {"method": "points_to", "params": {"var": "gp"}},
            {"method": "points_to", "params": {"var": "missing"}},
            "not a query",
        ]})
        ok_flags = [item["ok"] for item in result["results"]]
        assert ok_flags == [True, False, False]
        assert result["results"][1]["error"]["code"] == "invalid_params"


class TestCollector:
    """The collector is paused only inside pipeline stages and solves,
    never across a request or the server loop."""

    def test_status_reports_the_collector(self):
        server, _ = make_server()
        client = InProcessClient(server)
        client.call("open", {"files": {"a.c": A, "b.c": B}})
        client.call("update", {"files": {"b.c": B + "\nint z;\n"}})
        block = client.call("status")["gc"]
        assert block["enabled"] is True
        assert len(block["collections"]) == len(block["collected"]) == 3
        assert all(
            isinstance(n, int) and n >= 0
            for n in block["collections"] + block["collected"]
        )

    def test_edit_session_leaves_the_collector_on_and_the_heap_bounded(self):
        server, _ = make_server(workers=2)
        writer = InProcessClient(server)
        writer.call("open", {"files": {"a.c": A, "b.c": B, "c.c": C, "d.c": D}})
        stop, errors, reads = threading.Event(), [], []

        def read():
            # Snapshot reads only: they never enter a pipeline stage, so
            # the writer's checks below see its own holds alone.
            reader = InProcessClient(server)
            try:
                while not stop.is_set():
                    for var in ("gp", "x", "y", "w"):
                        reader.call("points_to", {"var": var})
                    reader.call("classify")
                    reads.append(1)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        thread = threading.Thread(target=read)
        thread.start()
        try:
            for i in range(1, 51):
                result = writer.call(
                    "update", {"files": {"a.c": A + f"\nint edit{i};\n"}}
                )
                assert result["stages"]["constraints"]["runs"] == 1
                assert gc.isenabled() and holders() == 0, i
                if i in (5, 50):
                    gc.collect()
                    tracked = len(gc.get_objects())
                    if i == 5:
                        after_five = tracked
        finally:
            stop.set()
            thread.join(30)
        assert not thread.is_alive() and errors == [] and reads
        assert gc.isenabled() and holders() == 0
        assert abs(tracked - after_five) < 1000, (after_five, tracked)


class TestTimeoutAndShutdown:
    def test_deadline_expiry_is_structured(self):
        server, registry = make_server(timeout=0.05)
        client = InProcessClient(server)
        response = client.request("sleep", {"seconds": 0.5})
        assert response["error"]["code"] == "timeout"
        assert registry.counter("serve.errors.timeout") == 1
        # Later requests are still answered once the expired computation
        # drains (it queues on the worker; a deadline is a latency bound
        # for the client, not a cancellation).
        import time

        time.sleep(0.6)
        assert client.call("ping") == {"pong": True}
        server.finish()

    def test_fast_requests_beat_the_deadline(self):
        server, _ = make_server(timeout=5.0)
        client = InProcessClient(server)
        assert client.call("ping") == {"pong": True}
        server.finish()

    def test_shutdown_drains_then_refuses(self):
        server, _ = make_server()
        client = InProcessClient(server)
        assert client.call("shutdown") == {"closing": True}
        assert server.closing
        response = client.request("ping")
        assert response["error"]["code"] == "shutting_down"

    def test_trace_events_per_request(self, tmp_path):
        trace_path = tmp_path / "serve.jsonl"
        registry = Registry()
        with TraceWriter(trace_path) as trace:
            server = AnalysisServer(
                Project(registry=registry), registry=registry, trace=trace
            )
            client = InProcessClient(server)
            client.call("open", {"files": {"a.c": A}})
            client.request("nope")
            server.handle_line("garbage")
            server.finish()
        events = read_trace(trace_path)
        serve_events = [e for e in events if e["event"] == "serve"]
        assert [e["name"] for e in serve_events] == [
            "open", "nope", "<invalid>"
        ]
        assert serve_events[0]["data"]["ok"] is True
        assert serve_events[0]["data"]["generation"] == 1
        assert serve_events[1]["data"]["error"] == "unknown_method"
        assert events[-1]["event"] == "metrics"
        assert events[-1]["data"]["counters"]["serve.requests"] == 3


class TestStdioTransport:
    def run_session(self, lines, **server_kwargs):
        server, _ = make_server(**server_kwargs)
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        assert serve_stdio(server, stdin, stdout) == 0
        return [
            validate_response(json.loads(line))
            for line in stdout.getvalue().splitlines()
        ]

    def test_session_with_shutdown(self):
        responses = self.run_session([
            encode_frame({"schema": 1, "id": 1, "method": "open",
                          "params": {"files": {"a.c": A}}}),
            "",  # blank lines are skipped
            encode_frame({"schema": 1, "id": 2, "method": "points_to",
                          "params": {"var": "gp"}}),
            encode_frame({"schema": 1, "id": 3, "method": "shutdown"}),
            encode_frame({"schema": 1, "id": 4, "method": "ping"}),
        ])
        # The request after shutdown is never read: the loop drained the
        # shutdown response and stopped.
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)

    def test_eof_is_graceful(self):
        responses = self.run_session([
            encode_frame({"schema": 1, "id": 1, "method": "ping"}),
        ])
        assert len(responses) == 1 and responses[0]["ok"]

    def test_hostile_stream_answers_everything(self):
        # "\udcff\udcfe" is what a surrogateescape reader makes of the
        # bytes ff fe, which are not UTF-8.
        responses = self.run_session([
            "garbage", "[]", '{"schema":1}', "x" * 300, "\udcff\udcfe",
        ], max_request_bytes=128)
        codes = [r["error"]["code"] for r in responses]
        assert codes == [
            "parse_error", "invalid_request", "invalid_request",
            "request_too_large", "invalid_request",
        ]


class TestTcpTransport:
    def test_tcp_session(self):
        server, _ = make_server()
        bound = {}
        ready = threading.Event()

        def on_ready(host, port):
            bound["addr"] = (host, port)
            ready.set()

        thread = threading.Thread(
            target=serve_tcp, args=(server,), kwargs={"ready": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(10)
        with ServeClient.connect_tcp(*bound["addr"]) as client:
            assert client.call("ping") == {"pong": True}
            client.call("open", {"files": {"a.c": A}})
            result = client.call("points_to", {"var": "gp"})
            assert result["omega"] is True
            with pytest.raises(ServeError) as exc:
                client.call("points_to", {"var": "missing"})
            assert exc.value.code == "invalid_params"
            assert client.shutdown() == {"closing": True}
        thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_utf8_line_is_answered_and_the_server_stays_up(
        self, workers
    ):
        import socket

        server, _ = make_server(workers=workers)
        bound = {}
        ready = threading.Event()

        def on_ready(host, port):
            bound["addr"] = (host, port)
            ready.set()

        thread = threading.Thread(
            target=serve_tcp, args=(server,), kwargs={"ready": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(10)
        with socket.create_connection(bound["addr"], timeout=30) as conn:
            conn.sendall(b"\xff\xfe\n")
            with conn.makefile("rb") as reader:
                line = reader.readline()
        response = validate_response(json.loads(line))
        assert response["error"]["code"] == "invalid_request"
        with ServeClient.connect_tcp(*bound["addr"]) as client:
            assert client.call("ping") == {"pong": True}
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
