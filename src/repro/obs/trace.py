"""Structured JSONL trace events with a stable, versioned schema.

A trace is a sequence of newline-delimited JSON objects, one event per
line, each with exactly four keys::

    {"schema": 1, "event": "<type>", "name": "<subject>", "data": {...}}

- ``schema`` — the integer :data:`TRACE_SCHEMA`; bumped whenever the
  envelope or the meaning of an event type changes.
- ``event`` — one of :data:`EVENT_TYPES`.
- ``name`` — the event's subject (a ``file::config`` pair for solves, a
  stage name for stages, …); free-form but never empty.
- ``data`` — the event payload, a JSON object.

Event types
-----------
``solve``
    One (file, configuration) solve, emitted by the driver at merge
    time **in task-index order** (so a ``--jobs 8`` trace is
    byte-comparable to a ``--jobs 1`` trace modulo timing values).
    ``data`` carries ``runtime_s``, ``from_cache`` and the solver's
    ``stats`` dict verbatim — a trace therefore replays the exact
    per-solver visit/propagation counts the solver returned.
``stage``
    One pipeline stage's accounting (runs/hits/misses/seconds).
``link``
    One cross-TU link (member count, joint sizes, resolution counts).
``serve``
    One analysis-server request/response round trip (``repro serve``):
    the event name is the request method, ``data`` carries the request
    id, ``ok`` and either the answering generation or the structured
    error code.  Added additively under schema 1 — every event set
    valid before it remains valid.
``metrics``
    A full registry snapshot (:meth:`repro.obs.Registry.to_dict`),
    conventionally the last event of a run.

Writers emit canonical JSON (sorted keys, compact separators) so two
traces of identical runs differ only where the measured values do.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Union

__all__ = [
    "EVENT_TYPES",
    "TRACE_SCHEMA",
    "TraceError",
    "TraceWriter",
    "read_trace",
    "validate_trace_line",
    "validate_trace_text",
]

#: bump whenever the event envelope or an event's meaning changes
TRACE_SCHEMA = 1

#: the closed set of event types (validation rejects anything else)
EVENT_TYPES = ("solve", "stage", "link", "serve", "metrics")


class TraceError(ValueError):
    """A trace line violates the schema."""


class TraceWriter:
    """Appends schema-versioned events to a JSONL stream.

    Accepts a path or any text file object (left open — the caller owns
    it).  A path target is written through a same-directory temporary
    file that :meth:`close` renames into place and :meth:`discard`
    deletes, so a run that dies mid-trace never leaves a partial file
    under the requested name (matching the driver cache's atomic-write
    discipline).  As a context manager the writer closes when its block
    completes and discards when the block raises.  Either call ends the
    trace; a later one does nothing.
    """

    def __init__(self, target: Union[str, os.PathLike, io.TextIOBase]):
        self._tmp_path: Optional[str] = None
        self._final_path: Optional[pathlib.Path] = None
        if isinstance(target, (str, os.PathLike)):
            import tempfile

            path = pathlib.Path(target)
            fd, self._tmp_path = tempfile.mkstemp(
                dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
            )
            self._file = os.fdopen(fd, "w", encoding="utf-8")
            self._final_path = path
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self.events = 0
        # Concurrent serve workers emit per-request events; one lock
        # keeps event lines whole (never interleaved mid-line).
        self._lock = threading.Lock()

    def emit(self, event: str, name: str, data: Mapping) -> None:
        """Write one event line (validated before writing)."""
        obj = {
            "schema": TRACE_SCHEMA,
            "event": event,
            "name": name,
            "data": dict(data),
        }
        validate_trace_line(obj)
        line = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            self._file.write(line)
            self.events += 1

    def close(self) -> None:
        """Publish the trace: a path target is renamed into place."""
        self._release()
        if self._tmp_path is not None:
            os.replace(self._tmp_path, self._final_path)
            self._tmp_path = None

    def discard(self) -> None:
        """Drop an unfinished trace: a path target's temporary file is
        deleted, and nothing appears under the requested name."""
        self._release()
        if self._tmp_path is not None:
            try:
                os.unlink(self._tmp_path)
            except FileNotFoundError:
                pass
            self._tmp_path = None

    def _release(self) -> None:
        if self._owns:
            self._file.close()  # flushes; a second close does nothing
        else:
            self._file.flush()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.discard()


# ----------------------------------------------------------------------
# Validation / reading
# ----------------------------------------------------------------------


def validate_trace_line(obj: object) -> Dict:
    """Check one decoded event against the schema; returns it typed.

    Raises :class:`TraceError` naming the first violation — used by the
    CI smoke job to gate emitted traces and by tests as the golden
    schema contract.
    """
    if not isinstance(obj, dict):
        raise TraceError(f"event is not an object: {type(obj).__name__}")
    keys = set(obj)
    expected = {"schema", "event", "name", "data"}
    if keys != expected:
        extra = sorted(keys - expected)
        missing = sorted(expected - keys)
        raise TraceError(
            f"bad event keys: missing={missing} unexpected={extra}"
        )
    if obj["schema"] != TRACE_SCHEMA:
        raise TraceError(
            f"schema {obj['schema']!r} != {TRACE_SCHEMA} (regenerate the trace)"
        )
    if obj["event"] not in EVENT_TYPES:
        raise TraceError(f"unknown event type {obj['event']!r}")
    if not isinstance(obj["name"], str) or not obj["name"]:
        raise TraceError(f"event name must be a non-empty string: {obj['name']!r}")
    if not isinstance(obj["data"], dict):
        raise TraceError(f"event data must be an object: {obj['data']!r}")
    return obj


def validate_trace_text(text: str) -> List[Dict]:
    """Validate a whole JSONL trace; returns the decoded events."""
    events: List[Dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: not JSON ({exc})") from None
        try:
            events.append(validate_trace_line(obj))
        except TraceError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
    return events


def read_trace(
    path: Union[str, os.PathLike], events: Optional[Iterable[str]] = None
) -> List[Dict]:
    """Load and validate a trace file, optionally filtered by type."""
    decoded = validate_trace_text(pathlib.Path(path).read_text())
    if events is None:
        return decoded
    wanted = set(events)
    return [e for e in decoded if e["event"] in wanted]
