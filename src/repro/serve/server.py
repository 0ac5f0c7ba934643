"""The analysis server fleet: dispatch, tenancy, and concurrent transports.

One :class:`AnalysisServer` owns a *fleet* of tenant projects (requests
address one by the ``project`` envelope field; schema-1 requests land on
the default project) and answers protocol frames
(:mod:`repro.serve.protocol`) from any number of transport threads
concurrently:

- **Read path.**  Query methods are pure functions of an immutable,
  generation-counted :class:`~repro.serve.project.Snapshot`; up to
  ``workers`` requests execute at once, each against the snapshot it
  captured at dispatch — never a torn one.  The per-project
  :class:`~repro.serve.queries.LRUMemo` is thread-safe and shared by
  all workers.
- **Write path.**  ``open``/``update`` take the addressed project's
  writer lock and build the next generation *off* the read path;
  readers keep answering on generation G until G+1 commits (a single
  snapshot-reference assignment, atomic under the GIL).
- **Persistence.**  With a ``state_dir``, every committed generation is
  serialized canonically to disk (:mod:`repro.serve.state`) and a
  restarted server warm-starts from it, digest-validated, instead of
  re-parsing/re-linking.

Every failure mode an untrusted client can produce — unparsable lines,
oversized lines, bad envelopes, unknown methods or projects, frontend
errors in submitted sources, per-request deadline expiry — is answered
with a structured error frame; nothing a client sends can terminate the
server.

Observability: ``serve.requests``, ``serve.errors.<code>``,
``serve.method.<name>``, ``serve.project.<id>.requests``,
``serve.timeouts``, ``serve.state.{loads,saves,invalid}`` counters, the
``serve.request`` timer, one ``serve`` trace event per request and a
closing ``metrics`` snapshot that folds in the per-project memo
counters (``serve.memo.*``, including ``evicted``).

Timeout semantics: with ``timeout`` set, requests run on a pool of
``workers`` threads and the transport waits ``timeout`` seconds before
answering ``timeout`` and moving on; the expired computation keeps a
worker busy until it finishes — a deadline is a latency bound for the
*client*, not a cancellation.  Abandoned-but-running requests are
visible: ``serve.timeouts`` counts them and ``status`` reports the
current in-flight and abandoned depth, so operators can see the latency
bound being hit instead of silently queueing behind it.  ``status`` also
reports the cyclic collector (``gc``: on or off, and collections and
objects collected per generation).
"""

from __future__ import annotations

import gc
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, Dict, List, Optional, TextIO

from ..frontend import FRONTEND_ERRORS, describe_error, error_line
from ..link import LinkError
from ..obs import NULL_REGISTRY, Registry, TraceWriter
from .project import Project
from .protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    DEFAULT_PROJECT,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from .queries import QUERY_METHODS, LRUMemo, QueryEngine, QueryError

__all__ = ["AnalysisServer", "ProjectState", "serve_stdio", "serve_tcp"]

#: methods the server dispatches (life-cycle + queries)
SERVER_METHODS = (
    "ping",
    "status",
    "open",
    "update",
    "batch",
    "sleep",
    "shutdown",
    "solve_constraints",
) + QUERY_METHODS


def _collector_status() -> Dict:
    """The cyclic collector's state, from ``gc.get_stats()``: whether it
    is on, and per generation (young first) how many collections ran
    and how many objects they freed.  Process-wide and not
    deterministic, so it stays out of the metrics registry."""
    stats = gc.get_stats()
    return {
        "enabled": gc.isenabled(),
        "collections": [g["collections"] for g in stats],
        "collected": [g["collected"] for g in stats],
    }


class ProjectState:
    """One tenant: a project, its query memo, and its writer lock."""

    def __init__(self, project_id: str, project: Project, memo_entries: int):
        self.id = project_id
        self.project = project
        self.memo = LRUMemo(memo_entries)
        #: serializes open/update/persist for this tenant only — other
        #: tenants' writers and every reader proceed concurrently
        self.write_lock = threading.RLock()
        self._engine: Optional[QueryEngine] = None

    def engine(self) -> QueryEngine:
        """The query engine over the *current* snapshot.

        Raises ``RuntimeError`` before the first ``open``.  The cached
        engine is replaced when a new generation commits; a benign race
        between two readers builds two equivalent engines over the same
        immutable snapshot (both share the memo).
        """
        snapshot = self.project.snapshot
        engine = self._engine
        if engine is None or engine.snapshot is not snapshot:
            engine = QueryEngine(
                snapshot, self.memo, registry=self.project.registry
            )
            self._engine = engine
        return engine


class AnalysisServer:
    """Protocol dispatcher over a project fleet (transport-agnostic)."""

    def __init__(
        self,
        project: Optional[Project] = None,
        timeout: Optional[float] = None,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        memo_entries: int = 1024,
        registry: Optional[Registry] = None,
        trace: Optional[TraceWriter] = None,
        workers: int = 1,
        state_dir=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.timeout = timeout
        self.max_request_bytes = max_request_bytes
        self.memo_entries = memo_entries
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.trace = trace
        self.workers = workers
        self.state_dir = state_dir
        #: set once a shutdown has been accepted; transports drain the
        #: in-flight request, answer it, then stop reading
        self.closing = False
        default = project if project is not None else Project()
        #: every other tenant, opened or restored, is built like the
        #: default project and shares its stage cache
        self._tenant = dict(
            config=default.config,
            options=default.options,
            cache=default.pipeline.cache,
            registry=self.registry,
        )
        self._projects: Dict[str, ProjectState] = {}
        self._projects_lock = threading.Lock()
        self._projects[DEFAULT_PROJECT] = ProjectState(
            DEFAULT_PROJECT, default, memo_entries
        )
        #: memo for ``solve_constraints`` — server-level because the
        #: method needs no open project; keyed by (text hash, config)
        self._constraints_memo = LRUMemo(memo_entries)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: bounds concurrent dispatches on the no-timeout path
        self._slots = threading.BoundedSemaphore(workers)
        self._depth_lock = threading.Lock()
        self._in_flight = 0
        self._abandoned = 0
        self._timeouts = 0
        self.state_counts = {"loads": 0, "saves": 0, "invalid": 0}
        if state_dir is not None:
            self._load_state_dir()

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------

    @property
    def project(self) -> Project:
        """The default tenant's project (single-project back-compat)."""
        return self._projects[DEFAULT_PROJECT].project

    @property
    def memo(self) -> LRUMemo:
        """The default tenant's query memo (back-compat)."""
        return self._projects[DEFAULT_PROJECT].memo

    def _engine_for_snapshot(self) -> QueryEngine:
        """The default tenant's query engine (back-compat helper)."""
        return self._projects[DEFAULT_PROJECT].engine()

    def project_ids(self) -> List[str]:
        with self._projects_lock:
            return sorted(self._projects)

    def _state(self, project_id: str) -> Optional[ProjectState]:
        with self._projects_lock:
            return self._projects.get(project_id)

    def _state_or_error(self, project_id: str) -> ProjectState:
        state = self._state(project_id)
        if state is None:
            raise ProtocolError(
                "unknown_project",
                f"project {project_id!r} is not open"
                f" (projects: {self.project_ids()})",
            )
        return state

    def _state_or_create(self, project_id: str) -> ProjectState:
        with self._projects_lock:
            state = self._projects.get(project_id)
            if state is None:
                state = ProjectState(
                    project_id, Project(**self._tenant), self.memo_entries
                )
                self._projects[project_id] = state
            return state

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _load_state_dir(self) -> None:
        """Warm-start every valid persisted project from ``state_dir``."""
        from .state import StateError, list_state_files, load_project

        for path in list_state_files(self.state_dir):
            try:
                project_id, restored = load_project(path, **self._tenant)
            except StateError as exc:
                self.state_counts["invalid"] += 1
                self.registry.add("serve.state.invalid")
                print(f"repro serve: ignoring state: {exc}", file=sys.stderr)
                continue
            with self._projects_lock:
                self._projects[project_id] = ProjectState(
                    project_id, restored, self.memo_entries
                )
            self.state_counts["loads"] += 1
            self.registry.add("serve.state.loads")

    def _persist(self, state: ProjectState) -> None:
        """Persist one tenant's committed generation (writer lock held)."""
        if self.state_dir is None:
            return
        from .state import save_project

        save_project(self.state_dir, state.id, state.project)
        self.state_counts["saves"] += 1
        self.registry.add("serve.state.saves")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle_line(self, line: str) -> str:
        """One request line → exactly one response line (never raises).

        Thread-safe: any number of transport threads may call this
        concurrently; execution depth is bounded by ``workers``.
        """
        method = "<invalid>"
        project_id = None
        with self.registry.scope("serve.request"):
            self.registry.add("serve.requests")
            try:
                request = parse_request(line, self.max_request_bytes)
            except ProtocolError as exc:
                response = error_response(
                    exc.request_id, exc.code, exc.message, exc.details
                )
            else:
                method = request["method"]
                project_id = request["project"]
                response = self._timed_dispatch(request)
        ok = bool(response.get("ok"))
        if not ok:
            self.registry.add("serve.errors")
            self.registry.add(f"serve.errors.{response['error']['code']}")
        if self.trace is not None:
            data: Dict = {"id": response.get("id"), "ok": ok}
            if project_id is not None:
                data["project"] = project_id
            if ok:
                data["generation"] = response["generation"]
            else:
                data["error"] = response["error"]["code"]
            self.trace.emit("serve", method, data)
        return encode_frame(response)

    def _track(self, delta: int) -> None:
        with self._depth_lock:
            self._in_flight += delta

    def _tracked_dispatch(self, request: Dict) -> Dict:
        self._track(1)
        try:
            return self._safe_dispatch(request)
        finally:
            self._track(-1)

    def _timed_dispatch(self, request: Dict) -> Dict:
        self.registry.add(f"serve.method.{request['method']}")
        self.registry.add(f"serve.project.{request['project']}.requests")
        if self.timeout is None:
            with self._slots:
                return self._tracked_dispatch(request)
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-serve",
                )
            pool = self._pool
        future = pool.submit(self._tracked_dispatch, request)
        try:
            return future.result(timeout=self.timeout)
        except FutureTimeout:
            self.registry.add("serve.timeouts")
            with self._depth_lock:
                self._timeouts += 1
                self._abandoned += 1

            def _drained(_future) -> None:
                with self._depth_lock:
                    self._abandoned -= 1

            future.add_done_callback(_drained)
            return error_response(
                request["id"],
                "timeout",
                f"request exceeded the {self.timeout}s deadline",
                {"method": request["method"]},
            )

    def _safe_dispatch(self, request: Dict) -> Dict:
        request_id = request["id"]
        project_id = request["project"]
        try:
            result, generation = self._dispatch(request)
        except ProtocolError as exc:
            return error_response(request_id, exc.code, exc.message, exc.details)
        except QueryError as exc:
            return error_response(
                request_id, "invalid_params", str(exc), exc.details
            )
        except FRONTEND_ERRORS as exc:
            details = {"file": getattr(exc, "source_name", None)}
            line = error_line(exc)
            if line:
                details["line"] = line
            return error_response(
                request_id, "build_error", describe_error(exc), details
            )
        except LinkError as exc:
            return error_response(
                request_id,
                "build_error",
                "; ".join(exc.errors),
                {"errors": exc.errors},
            )
        except (KeyError, ValueError, RuntimeError, TypeError) as exc:
            return error_response(request_id, "invalid_params", str(exc))
        except Exception as exc:  # noqa: BLE001 - the server must survive
            return error_response(
                request_id,
                "internal",
                f"{type(exc).__name__}: {exc}",
            )
        return ok_response(request_id, generation, result, project_id)

    def _generation_of(self, project_id: str) -> int:
        state = self._state(project_id)
        return state.project.generation if state is not None else 0

    def _dispatch(self, request: Dict) -> tuple:
        """Answer one request; returns ``(result, generation)``.

        The generation is captured *with* the answer — a query computed
        against snapshot G reports G even if G+1 commits while it runs.
        """
        method = request["method"]
        params = request["params"]
        project_id = request["project"]
        if self.closing:
            raise ProtocolError(
                "shutting_down", "server is shutting down"
            )
        if method == "ping":
            return {"pong": True}, self._generation_of(project_id)
        if method == "status":
            return self._status(project_id), self._generation_of(project_id)
        if method == "open":
            return self._open(project_id, params)
        if method == "update":
            return self._update(project_id, params)
        if method == "batch":
            queries = params.get("queries")
            if not isinstance(queries, list):
                raise ProtocolError(
                    "invalid_params", "batch requires a 'queries' list"
                )
            engine = self._state_or_error(project_id).engine()
            return (
                {"results": engine.batch(queries)},
                engine.snapshot.generation,
            )
        if method == "sleep":
            # Diagnostic aid for exercising the per-request deadline.
            seconds = params.get("seconds", 0)
            if not isinstance(seconds, (int, float)) or seconds < 0:
                raise ProtocolError(
                    "invalid_params", f"bad sleep duration: {seconds!r}"
                )
            time.sleep(float(seconds))
            return {"slept": float(seconds)}, self._generation_of(project_id)
        if method == "shutdown":
            self.closing = True
            return {"closing": True}, self._generation_of(project_id)
        if method == "solve_constraints":
            return (
                self._solve_constraints(project_id, params),
                self._generation_of(project_id),
            )
        if method in QUERY_METHODS:
            engine = self._state_or_error(project_id).engine()
            return (
                engine.evaluate(method, params),
                engine.snapshot.generation,
            )
        raise ProtocolError(
            "unknown_method",
            f"unknown method {method!r} (methods: {sorted(SERVER_METHODS)})",
        )

    def _solve_constraints(self, project_id: str, params: Dict) -> Dict:
        """Solve raw LIR constraint text — the second front door, over
        the wire.

        Needs no open project: the text *is* the program.  ``config``
        defaults to the addressed project's configuration (or the
        server default when that project is not open).  Answers are
        memoised server-wide by (text hash, configuration) — the text
        is its own content address, independent of any generation.
        """
        import hashlib

        unknown = set(params) - {"text", "config"}
        if unknown:
            raise ProtocolError(
                "invalid_params",
                f"solve_constraints: unexpected params {sorted(unknown)}",
            )
        text = params.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError(
                "invalid_params",
                "solve_constraints requires non-empty constraint 'text'",
            )
        config_param = params.get("config")
        if config_param is None:
            state = self._state(project_id)
            source = state if state is not None else (
                self._projects[DEFAULT_PROJECT]
            )
            config = source.project.config
        elif isinstance(config_param, str):
            from ..analysis.config import parse_name

            config = parse_name(config_param)
        else:
            raise ProtocolError(
                "invalid_params",
                f"config must be a configuration name: {config_param!r}",
            )
        key = (
            "solve_constraints",
            hashlib.sha256(text.encode("utf-8")).hexdigest(),
            config.name,
        )
        cached = self._constraints_memo.get(key)
        if cached is not None:
            return cached
        from ..analysis.config import prepare_program, solve_prepared
        from ..interchange import parse_constraint_text

        program = parse_constraint_text(text, "<constraints>")
        solution = solve_prepared(prepare_program(program, config), config)
        result = {
            "config": config.name,
            "vars": program.num_vars,
            "constraints": program.num_constraints(),
            "solution": solution.to_named_canonical(),
            "digest": solution.named_canonical_digest(),
        }
        self._constraints_memo.put(key, result)
        return result

    # ------------------------------------------------------------------

    def _status(self, project_id: str) -> Dict:
        state = self._state_or_error(project_id)
        with self._depth_lock:
            depth = {
                "pool_size": self.workers,
                "in_flight": self._in_flight,
                "abandoned": self._abandoned,
                "timeouts": self._timeouts,
            }
        status: Dict = {
            "open": state.project.is_open,
            "generation": state.project.generation,
            "memo": state.memo.to_dict(),
            "stages": state.project.stage_report(timings=False),
            "projects": self.project_ids(),
            "workers": depth,
            "state": {
                "dir": str(self.state_dir) if self.state_dir else None,
                **self.state_counts,
            },
            "gc": _collector_status(),
            "solves": state.project.solve_counts(),
        }
        if state.project.is_open:
            status["project"] = state.project.snapshot.summary()
        return status

    @staticmethod
    def _files_param(params: Dict, key: str = "files") -> Dict[str, str]:
        files = params.get(key)
        if not isinstance(files, dict) or not all(
            isinstance(name, str) and isinstance(text, str)
            for name, text in files.items()
        ):
            raise ProtocolError(
                "invalid_params",
                f"{key!r} must map member names to source text",
            )
        return files

    def _open(self, project_id: str, params: Dict) -> tuple:
        unknown = set(params) - {"files"}
        if unknown:
            raise ProtocolError(
                "invalid_params", f"open: unexpected params {sorted(unknown)}"
            )
        files = self._files_param(params)
        state = self._state_or_create(project_id)
        with state.write_lock:
            snapshot = state.project.open(files)
            state.memo.retain_generation(snapshot.generation)
            self._persist(state)
        return snapshot.summary(), snapshot.generation

    def _update(self, project_id: str, params: Dict) -> tuple:
        unknown = set(params) - {"files", "removed"}
        if unknown:
            raise ProtocolError(
                "invalid_params",
                f"update: unexpected params {sorted(unknown)}",
            )
        changed = (
            self._files_param(params) if "files" in params else {}
        )
        removed = params.get("removed", [])
        if not isinstance(removed, list) or not all(
            isinstance(name, str) for name in removed
        ):
            raise ProtocolError(
                "invalid_params", "'removed' must be a list of member names"
            )
        state = self._state_or_error(project_id)
        with state.write_lock:
            before = {
                stage: dict(counts)
                for stage, counts in state.project.stage_report(
                    timings=False
                ).items()
            }
            snapshot = state.project.update(changed, removed)
            state.memo.retain_generation(snapshot.generation)
            after = state.project.stage_report(timings=False)
            self._persist(state)
        delta = {
            stage: {
                counter: after[stage][counter] - before[stage][counter]
                for counter in after[stage]
            }
            for stage in after
        }
        summary = snapshot.summary()
        summary["stages"] = delta
        return summary, snapshot.generation

    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Drain-and-close: final metrics event, worker pool shutdown."""
        self.closing = True
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        if self.registry.enabled:
            # Fold the per-project memo accounting into the registry so
            # the closing metrics event reports hits/misses/stores/
            # evicted alongside the serve.* counters.
            for project_id in self.project_ids():
                state = self._state(project_id)
                if state is None:
                    continue
                for name, value in state.memo.to_dict().items():
                    if name == "max_entries":
                        continue
                    self.registry.add(f"serve.memo.{name}", value)
        if self.trace is not None and self.registry.enabled:
            self.trace.emit("metrics", "serve", self.registry.to_dict())


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------


def serve_stdio(
    server: AnalysisServer,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """Serve newline-delimited requests from a text stream pair.

    Responses are flushed per line; the loop drains the request that
    carried ``shutdown`` (answering it) before returning.  EOF on stdin
    is a graceful shutdown too.  stdio is inherently one ordered
    stream, so this transport is sequential regardless of ``workers``.
    """
    if stdin is None:
        stdin = sys.stdin
        # Bytes that are not UTF-8 become lone surrogates, which
        # parse_request answers as invalid_request, instead of raising.
        stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    stdout = stdout if stdout is not None else sys.stdout
    try:
        for line in stdin:
            if not line.strip():
                continue
            stdout.write(server.handle_line(line.rstrip("\n")))
            stdout.write("\n")
            stdout.flush()
            if server.closing:
                break
    except KeyboardInterrupt:
        pass  # graceful: fall through to finish()
    finally:
        server.finish()
    return 0


def _serve_connection(server: AnalysisServer, conn: socket.socket) -> None:
    """One TCP connection's request loop.

    Reads with ``surrogateescape``, so bytes that are not UTF-8 reach
    :meth:`AnalysisServer.handle_line` (which answers them) instead of
    raising here.
    """
    with conn:
        rfile = conn.makefile(
            "r", encoding="utf-8", errors="surrogateescape", newline="\n"
        )
        wfile = conn.makefile("w", encoding="utf-8", newline="\n")
        try:
            for line in rfile:
                if not line.strip():
                    continue
                wfile.write(server.handle_line(line.rstrip("\n")))
                wfile.write("\n")
                wfile.flush()
                if server.closing:
                    break
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; the fleet keeps serving


def serve_tcp(
    server: AnalysisServer,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[Callable[[str, int], None]] = None,
) -> int:
    """Serve TCP connections (one line protocol each).

    ``port=0`` binds an ephemeral port; ``ready`` (if given) receives
    the bound ``(host, port)`` once listening — tests and parent
    processes use it instead of racing the bind.

    With ``server.workers == 1`` connections are served **sequentially**
    in arrival order — the single-worker baseline, preserved exactly for
    clients that depend on strict cross-connection ordering.  With more
    workers, every connection gets its own reader thread and requests
    fan out across the worker pool: per-connection order is preserved,
    cross-connection requests interleave.
    """
    sock = socket.create_server((host, port))
    sock.settimeout(0.2)
    bound_host, bound_port = sock.getsockname()[:2]
    if ready is not None:
        ready(bound_host, bound_port)
    threads: List[threading.Thread] = []
    try:
        while not server.closing:
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            if server.workers <= 1:
                _serve_connection(server, conn)
            else:
                thread = threading.Thread(
                    target=_serve_connection,
                    args=(server, conn),
                    name="repro-serve-conn",
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
                threads = [t for t in threads if t.is_alive()]
    except KeyboardInterrupt:
        pass  # graceful: fall through to finish()
    finally:
        sock.close()
        deadline = time.monotonic() + 5.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        server.finish()
    return 0
