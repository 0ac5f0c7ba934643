"""The ``repro.serve`` wire protocol: schema-versioned NDJSON frames.

A session is a sequence of newline-delimited JSON frames, one request
per line and exactly one response line per request — the same canonical
encoding discipline as :mod:`repro.obs.trace` (sorted keys, compact
separators), so equal answers are byte-identical across transports and
across the one-shot ``repro query`` path.

Request envelope (keys are closed — anything else is rejected)::

    {"schema": 2, "id": <str|int>, "method": "<name>",
     "params": {...}, "project": "<id>"}

``params`` may be omitted (defaults to ``{}``).  ``project`` (schema 2)
selects the tenant the request addresses and defaults to
:data:`DEFAULT_PROJECT`; schema-1 requests are still accepted — they
carry no ``project`` key and always address the default project, which
is the whole back-compat story.  Responses echo ``id`` and carry the
project id plus the project generation the answer was computed
against::

    {"schema": 2, "id": 7, "ok": true,  "project": "default",
     "generation": 2, "result": {...}}
    {"schema": 2, "id": 7, "ok": false, "error": {"code": "...",
                                                  "message": "...",
                                                  "details": {...}}}

A request whose ``id`` could not be recovered (unparsable JSON,
oversized line) is answered with ``id: null``.  Error objects always
have ``code`` from :data:`ERROR_CODES` and a human-readable
``message``; ``details`` is optional structured context (e.g.
``{"file": "a.c", "line": 3}`` for ``build_error``).

The protocol is *stateful only through the projects*: requests on one
connection are processed strictly in order, each response names the
project and generation it was answered at, and concurrent connections
interleave freely — every answer is attributable to exactly one
committed generation (never a torn snapshot).
"""

from __future__ import annotations

import json
import re
from typing import Dict, Mapping, Optional, Union

__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "DEFAULT_PROJECT",
    "ERROR_CODES",
    "PROTOCOL_SCHEMA",
    "ACCEPTED_SCHEMAS",
    "ProtocolError",
    "encode_frame",
    "error_response",
    "ok_response",
    "parse_request",
    "valid_project_id",
    "validate_response",
]

#: bump whenever the envelope or the meaning of a method changes
#: (2: multi-project tenancy — requests may carry ``project``, ok
#: responses name the answering project; 3: the named solution that
#: ``solution`` and ``solve_constraints`` answer leaves E implicit in
#: every set holding Ω)
PROTOCOL_SCHEMA = 3

#: request schemas the server still accepts; schema-1 requests address
#: the default project, and schema-1 and schema-2 requests are
#: otherwise identical (every response carries the current schema, so
#: a client that validates it against an older one fails loudly)
ACCEPTED_SCHEMAS = (1, 2, 3)

#: the tenant addressed when a request names no project
DEFAULT_PROJECT = "default"

#: valid project ids: filesystem-safe (they name state files on disk),
#: bounded length, no leading punctuation
_PROJECT_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: requests longer than this (in UTF-8 bytes, including the newline's
#: absence) are rejected *before* JSON parsing — the server's first
#: line of defence against hostile or corrupted streams
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: the closed set of structured error codes
ERROR_CODES = (
    "parse_error",  # the line is not valid JSON
    "invalid_request",  # envelope violates the schema
    "request_too_large",  # line exceeds the size limit
    "unknown_method",  # no such method
    "invalid_params",  # params malformed, or name an unknown entity
    "unknown_project",  # request addresses a project that is not open
    "build_error",  # open/update failed in the frontend or linker
    "timeout",  # the per-request deadline expired
    "shutting_down",  # received after a shutdown was accepted
    "internal",  # unexpected server-side failure
)

RequestId = Union[str, int, None]


def valid_project_id(project: object) -> bool:
    """Whether ``project`` is an acceptable tenant id."""
    return isinstance(project, str) and bool(_PROJECT_ID_RE.match(project))


class ProtocolError(Exception):
    """A request that cannot be dispatched; maps onto an error frame."""

    def __init__(
        self,
        code: str,
        message: str,
        details: Optional[Mapping] = None,
        request_id: RequestId = None,
    ):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        self.code = code
        self.message = message
        self.details = dict(details) if details else None
        self.request_id = request_id
        super().__init__(f"{code}: {message}")


def encode_frame(obj: Mapping) -> str:
    """Canonical one-line JSON encoding (no trailing newline)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def ok_response(
    request_id: RequestId,
    generation: int,
    result: Mapping,
    project: str = DEFAULT_PROJECT,
) -> Dict:
    return {
        "schema": PROTOCOL_SCHEMA,
        "id": request_id,
        "ok": True,
        "project": project,
        "generation": generation,
        "result": dict(result),
    }


def error_response(
    request_id: RequestId,
    code: str,
    message: str,
    details: Optional[Mapping] = None,
) -> Dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: Dict = {"code": code, "message": message}
    if details:
        error["details"] = dict(details)
    return {
        "schema": PROTOCOL_SCHEMA,
        "id": request_id,
        "ok": False,
        "error": error,
    }


def _salvage_id(obj: object) -> RequestId:
    """Best-effort request id recovery from a rejected envelope."""
    if isinstance(obj, dict):
        request_id = obj.get("id")
        if isinstance(request_id, (str, int)) and not isinstance(
            request_id, bool
        ):
            return request_id
    return None


def parse_request(
    line: str, max_bytes: int = DEFAULT_MAX_REQUEST_BYTES
) -> Dict:
    """Decode and validate one request line.

    Raises :class:`ProtocolError` carrying the salvaged request id (when
    one could be recovered) so the caller can still address its error
    response.  The size limit is enforced on the UTF-8 byte length and
    checked before any JSON work.  A line that has no UTF-8 encoding
    (the lone surrogates a ``surrogateescape`` reader makes of bytes
    that are not UTF-8) is an ``invalid_request``.  Schema-1 requests
    are accepted and normalised to the default project.
    """
    try:
        size = len(line.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise ProtocolError(
            "invalid_request", f"request is not UTF-8: {exc.reason}"
        ) from None
    if size > max_bytes:
        raise ProtocolError(
            "request_too_large",
            f"request is {size} bytes (limit {max_bytes})",
        )
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("parse_error", f"not JSON: {exc}") from None
    request_id = _salvage_id(obj)
    if not isinstance(obj, dict):
        raise ProtocolError(
            "invalid_request",
            f"request is not an object: {type(obj).__name__}",
        )
    schema = obj.get("schema")
    # bool is an int subclass: {"schema": true} would otherwise launder
    # into schema 1 via ``True == 1``
    if isinstance(schema, bool) or schema not in ACCEPTED_SCHEMAS:
        raise ProtocolError(
            "invalid_request",
            f"schema {schema!r} not in {list(ACCEPTED_SCHEMAS)}",
            request_id=request_id,
        )
    keys = set(obj)
    expected = {"schema", "id", "method", "params"}
    if schema >= 2:
        expected = expected | {"project"}
    if not keys <= expected:
        raise ProtocolError(
            "invalid_request",
            f"unexpected request keys: {sorted(keys - expected)}",
            request_id=request_id,
        )
    missing = {"schema", "id", "method"} - keys
    if missing:
        raise ProtocolError(
            "invalid_request",
            f"missing request keys: {sorted(missing)}",
            request_id=request_id,
        )
    if request_id is None:
        raise ProtocolError(
            "invalid_request",
            f"request id must be a string or integer: {obj['id']!r}",
        )
    if not isinstance(obj["method"], str) or not obj["method"]:
        raise ProtocolError(
            "invalid_request",
            f"method must be a non-empty string: {obj['method']!r}",
            request_id=request_id,
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            "invalid_params",
            f"params must be an object: {params!r}",
            request_id=request_id,
        )
    project = obj.get("project", DEFAULT_PROJECT)
    if not valid_project_id(project):
        raise ProtocolError(
            "invalid_request",
            f"bad project id {project!r} (letters, digits, '._-',"
            " max 64 chars, must not start with punctuation)",
            request_id=request_id,
        )
    return {
        "schema": PROTOCOL_SCHEMA,
        "id": request_id,
        "method": obj["method"],
        "params": params,
        "project": project,
    }


def validate_response(obj: object) -> Dict:
    """Check one decoded response frame; returns it typed.

    The serve smoke job and the tests use this as the golden contract
    for everything the server emits.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(
            "invalid_request", f"response is not an object: {type(obj).__name__}"
        )
    if obj.get("schema") != PROTOCOL_SCHEMA:
        raise ProtocolError(
            "invalid_request", f"response schema {obj.get('schema')!r}"
        )
    if not isinstance(obj.get("ok"), bool):
        raise ProtocolError("invalid_request", "response missing boolean 'ok'")
    request_id = obj.get("id")
    if request_id is not None and (
        isinstance(request_id, bool)
        or not isinstance(request_id, (str, int))
    ):
        raise ProtocolError(
            "invalid_request", f"bad response id: {request_id!r}"
        )
    if obj["ok"]:
        expected = {"schema", "id", "ok", "project", "generation", "result"}
        if set(obj) != expected:
            raise ProtocolError(
                "invalid_request",
                f"ok-response keys {sorted(obj)} != {sorted(expected)}",
            )
        if not valid_project_id(obj["project"]):
            raise ProtocolError(
                "invalid_request", f"bad response project: {obj['project']!r}"
            )
        if not isinstance(obj["generation"], int):
            raise ProtocolError(
                "invalid_request", "generation must be an integer"
            )
        if not isinstance(obj["result"], dict):
            raise ProtocolError("invalid_request", "result must be an object")
    else:
        expected = {"schema", "id", "ok", "error"}
        if set(obj) != expected:
            raise ProtocolError(
                "invalid_request",
                f"error-response keys {sorted(obj)} != {sorted(expected)}",
            )
        error = obj["error"]
        if not isinstance(error, dict) or not {"code", "message"} <= set(error):
            raise ProtocolError(
                "invalid_request", f"bad error object: {error!r}"
            )
        if error["code"] not in ERROR_CODES:
            raise ProtocolError(
                "invalid_request", f"unknown error code {error['code']!r}"
            )
        if not set(error) <= {"code", "message", "details"}:
            raise ProtocolError(
                "invalid_request",
                f"unexpected error keys: {sorted(set(error))}",
            )
    return obj
