"""Clients for the analysis server: in-process, stdio-subprocess, TCP.

All three speak the same NDJSON protocol and share request bookkeeping
(auto-incrementing ids, id echo validation, error raising), differing
only in how a request line becomes a response line:

- :class:`InProcessClient` — calls an :class:`AnalysisServer` directly;
  the one-shot ``repro query`` command and the equivalence tests use it,
  which is what makes their answers byte-identical to a served session.
- :meth:`ServeClient.spawn_stdio` — drives ``repro serve --stdio`` (or
  any argv) as a subprocess over its pipes.
- :meth:`ServeClient.connect_tcp` — connects to ``repro serve --tcp``.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from typing import Dict, Optional

from .protocol import PROTOCOL_SCHEMA, encode_frame, validate_response

__all__ = ["InProcessClient", "ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """An error response from the server, surfaced as an exception."""

    def __init__(self, code: str, message: str, details: Optional[Dict] = None):
        self.code = code
        self.details = details
        super().__init__(f"{code}: {message}")


class _ClientBase:
    """Shared request framing over an abstract line exchange.

    A client constructed with ``project=`` addresses that tenant on
    every request (override per call with the ``project`` argument);
    without one, requests omit the field and land on the server's
    default project — the schema-2 envelope stays back-compatible.
    """

    def __init__(self, project: Optional[str] = None) -> None:
        self._next_id = 0
        self.project = project

    def _exchange(self, line: str) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def request(
        self,
        method: str,
        params: Optional[Dict] = None,
        project: Optional[str] = None,
    ) -> Dict:
        """Send one request; return the validated response frame."""
        self._next_id += 1
        request_id = self._next_id
        frame = {
            "schema": PROTOCOL_SCHEMA,
            "id": request_id,
            "method": method,
            "params": params or {},
        }
        target = project if project is not None else self.project
        if target is not None:
            frame["project"] = target
        reply = self._exchange(encode_frame(frame))
        response = validate_response(json.loads(reply))
        # An error with a null id answers the line just sent: the server
        # rejects an oversized line before it can parse the id out.
        if response["id"] != request_id and not (
            response["id"] is None and not response["ok"]
        ):
            raise ServeError(
                "internal",
                f"response id {response['id']!r} != request id {request_id}",
            )
        return response

    def call(
        self,
        method: str,
        params: Optional[Dict] = None,
        project: Optional[str] = None,
    ) -> Dict:
        """Send one request; return its result or raise ServeError."""
        response = self.request(method, params, project=project)
        if not response["ok"]:
            error = response["error"]
            raise ServeError(
                error["code"], error["message"], error.get("details")
            )
        return response["result"]

    def close(self) -> None:  # pragma: no cover - overridden
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessClient(_ClientBase):
    """Talks to an :class:`AnalysisServer` without any transport."""

    def __init__(self, server, project: Optional[str] = None) -> None:
        super().__init__(project=project)
        self.server = server

    def _exchange(self, line: str) -> str:
        return self.server.handle_line(line)


class ServeClient(_ClientBase):
    """Line client over a (read, write) text-file pair."""

    def __init__(
        self, rfile, wfile, process=None, sock=None, project=None
    ) -> None:
        super().__init__(project=project)
        self._rfile = rfile
        self._wfile = wfile
        self._process = process
        self._sock = sock

    # ------------------------------------------------------------------

    @classmethod
    def spawn_stdio(cls, argv, project=None, **popen_kwargs) -> "ServeClient":
        """Start ``argv`` (e.g. ``[sys.executable, "-m", "repro",
        "serve", "--stdio", ...]``) and speak over its pipes."""
        process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            **popen_kwargs,
        )
        return cls(
            process.stdout, process.stdin, process=process, project=project
        )

    @classmethod
    def connect_tcp(
        cls, host: str, port: int, timeout=10.0, project=None
    ) -> "ServeClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        rfile = sock.makefile("r", encoding="utf-8", newline="\n")
        wfile = sock.makefile("w", encoding="utf-8", newline="\n")
        return cls(rfile, wfile, sock=sock, project=project)

    # ------------------------------------------------------------------

    def _exchange(self, line: str) -> str:
        self._wfile.write(line + "\n")
        self._wfile.flush()
        reply = self._rfile.readline()
        if not reply:
            raise ServeError("internal", "server closed the connection")
        return reply

    def shutdown(self) -> Dict:
        """Request a graceful shutdown; returns the server's answer."""
        return self.call("shutdown")

    def close(self) -> None:
        for stream in (self._wfile, self._rfile):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        if self._sock is not None:
            self._sock.close()
        if self._process is not None:
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self._process.kill()
                self._process.wait()


def default_serve_argv(*extra: str) -> list:
    """argv for spawning this interpreter's ``repro serve``."""
    return [sys.executable, "-m", "repro", "serve", *extra]
