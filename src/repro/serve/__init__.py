"""``repro.serve`` — the persistent analysis server.

The subsystem that turns the staged pipeline into an always-available
alias/points-to oracle (docs/internals.md §11):

- :class:`Project` / :class:`Snapshot` — in-memory sources kept built
  through parse→lower→constraints→link→solve with a monotone generation
  counter; :meth:`Project.update` rebuilds stage-granularly, re-running
  the frontend for exactly the edited members.
- :class:`QueryEngine` — batched points-to / alias / conflict-rate /
  call-graph / Ω-classification queries over one generation snapshot,
  memoised in a shared :class:`LRUMemo` keyed by (generation, query).
- :mod:`~repro.serve.protocol` — the schema-versioned NDJSON frames
  (schema 2: multi-project tenancy via the ``project`` envelope field).
- :mod:`~repro.serve.state` — canonical snapshot persistence
  (``--state-dir``), digest-validated warm starts.
- :class:`AnalysisServer` — the concurrent fleet dispatcher: N
  read-only query workers over immutable generation snapshots, one
  writer per project — with :func:`serve_stdio` / :func:`serve_tcp`
  transports and the matching clients.

Surfaced on the command line as ``repro serve`` (persistent) and
``repro query`` (one-shot, byte-identical answers).
"""

from .client import InProcessClient, ServeClient, ServeError
from .project import Project, Snapshot
from .protocol import (
    ACCEPTED_SCHEMAS,
    DEFAULT_MAX_REQUEST_BYTES,
    DEFAULT_PROJECT,
    ERROR_CODES,
    PROTOCOL_SCHEMA,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    valid_project_id,
    validate_response,
)
from .queries import LRUMemo, ORACLES, QUERY_METHODS, QueryEngine, QueryError
from .server import AnalysisServer, ProjectState, serve_stdio, serve_tcp
from .state import (
    STATE_SCHEMA,
    StateError,
    list_state_files,
    load_project,
    save_project,
    state_path,
)

__all__ = [
    "ACCEPTED_SCHEMAS",
    "AnalysisServer",
    "DEFAULT_MAX_REQUEST_BYTES",
    "DEFAULT_PROJECT",
    "ERROR_CODES",
    "InProcessClient",
    "LRUMemo",
    "ORACLES",
    "PROTOCOL_SCHEMA",
    "Project",
    "ProjectState",
    "ProtocolError",
    "QUERY_METHODS",
    "QueryEngine",
    "QueryError",
    "STATE_SCHEMA",
    "ServeClient",
    "ServeError",
    "Snapshot",
    "StateError",
    "encode_frame",
    "error_response",
    "list_state_files",
    "load_project",
    "ok_response",
    "parse_request",
    "save_project",
    "serve_stdio",
    "serve_tcp",
    "state_path",
    "valid_project_id",
    "validate_response",
]
