"""Snapshot persistence: canonical on-disk project state (`--state-dir`).

One file per project — ``<state-dir>/<project>.project.json`` — holding
everything a server needs to serve that project's current generation
without re-running the frontend, linker or solver: the member sources,
their constraint programs, the linked joint program, the canonical
solution, and the configuration/link options that produced them.  A
restarted ``repro serve --state-dir DIR`` *warm-starts*: it restores
every persisted project and answers queries at the persisted generation
immediately, while ``update`` stays exactly as incremental as it was in
the original process (the pipeline's member memo is re-seeded from the
persisted constraint programs).

Integrity is defence-in-depth, validated on every load:

- a whole-payload sha256 ``digest`` over the canonical JSON encoding
  (sorted keys, compact separators) of everything else in the file —
  a flipped byte anywhere fails the load;
- per-source content digests, recomputed from the persisted text —
  the same (name, digest) identity the pipeline stages key on;
- the schema version, bumped whenever the encoding changes meaning.

A file that fails any check raises :class:`StateError`; the server
counts it (``serve.state.invalid``), warns, and starts that project
cold instead of serving wrong answers.  Writes are atomic
(temp-file + ``os.replace``) so a crash mid-save never corrupts the
previous good state.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Dict, List, Optional

from ..analysis.config import Configuration, parse_name
from ..analysis.constraints import ConstraintProgram
from ..analysis.solution import Solution
from ..driver.cache import ResultCache
from ..link import LinkedProgram, LinkOptions
from ..obs import Registry
from ..pipeline import ConstraintsArtifact, SourceArtifact, constraints_key
from .project import Project
from .protocol import valid_project_id

__all__ = [
    "STATE_SCHEMA",
    "StateError",
    "list_state_files",
    "load_project",
    "save_project",
    "state_path",
]

#: bump whenever the persisted encoding changes meaning
#: 2: ConstraintProgram.to_dict became construction-order canonical, so
#:    member program digests recorded under schema 1 no longer match a
#:    fresh build — schema-1 files cold-start instead of failing the
#:    binding check
#: 3: the persisted solution leaves E implicit in every set holding Ω,
#:    so a schema-2 file cold-starts instead of failing to decode
STATE_SCHEMA = 3

_SUFFIX = ".project.json"


class StateError(ValueError):
    """A state file that cannot be trusted (corrupt, tampered, stale)."""


def state_path(state_dir: pathlib.Path, project_id: str) -> pathlib.Path:
    """Where one project's state lives (the id is filesystem-safe by
    protocol-level validation)."""
    if not valid_project_id(project_id):
        raise StateError(f"bad project id {project_id!r}")
    return pathlib.Path(state_dir) / f"{project_id}{_SUFFIX}"


def list_state_files(state_dir: pathlib.Path) -> List[pathlib.Path]:
    """All candidate project state files, sorted by project id."""
    state_dir = pathlib.Path(state_dir)
    if not state_dir.is_dir():
        return []
    return sorted(state_dir.glob(f"*{_SUFFIX}"))


def _payload_digest(payload: Dict) -> str:
    """sha256 over the canonical encoding of ``payload`` sans digest."""
    body = {k: v for k, v in payload.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_project(
    state_dir: pathlib.Path, project_id: str, project: Project
) -> pathlib.Path:
    """Persist ``project``'s current snapshot; returns the file written.

    Atomic: the payload is written to a temp file in the same directory
    and renamed over the previous state, so readers (and crashes) only
    ever see a complete generation.
    """
    snapshot = project.snapshot  # raises if the project is not open
    state_dir = pathlib.Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    payload: Dict = {
        "schema": STATE_SCHEMA,
        "project": project_id,
        "generation": snapshot.generation,
        "config": snapshot.config.name,
        "options": snapshot.options.to_dict(),
        "sources": [
            {"name": src.name, "text": src.text, "digest": src.digest}
            for src in snapshot.sources
        ],
        "members": [
            {
                "name": member.name,
                "program": member.program.to_dict(),
                "program_digest": member.program_digest,
            }
            for member in snapshot.members
        ],
        "linked": snapshot.linked.to_dict(),
        "solution": snapshot.solution.to_canonical_dict(),
    }
    payload["digest"] = _payload_digest(payload)
    path = state_path(state_dir, project_id)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def _load_payload(path: pathlib.Path) -> Dict:
    """Read and digest-validate one state file."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StateError(f"{path}: unreadable state file: {exc}") from None
    if not isinstance(payload, dict):
        raise StateError(f"{path}: state file is not an object")
    if payload.get("schema") != STATE_SCHEMA:
        raise StateError(
            f"{path}: state schema {payload.get('schema')!r}"
            f" != {STATE_SCHEMA} (re-persist with this version)"
        )
    stored = payload.get("digest")
    expected = _payload_digest(payload)
    if stored != expected:
        raise StateError(
            f"{path}: digest mismatch (stored {str(stored)[:12]}…,"
            f" computed {expected[:12]}…) — refusing to warm-start from"
            " tampered or truncated state"
        )
    return payload


def load_project(
    path: pathlib.Path,
    config: Optional[Configuration] = None,
    options: Optional[LinkOptions] = None,
    cache: Optional[ResultCache] = None,
    registry: Optional[Registry] = None,
) -> tuple:
    """Restore one persisted project; returns ``(project_id, Project)``.

    ``config``/``options`` (when given, e.g. from the serve CLI) must
    agree with the persisted ones — a server started under a different
    configuration must not silently serve a solution computed under
    another, so the mismatch is a :class:`StateError` and the caller
    starts cold.
    """
    path = pathlib.Path(path)
    payload = _load_payload(path)
    project_id = payload.get("project")
    if not valid_project_id(project_id):
        raise StateError(f"{path}: bad project id {project_id!r}")
    if path.name != f"{project_id}{_SUFFIX}":
        raise StateError(
            f"{path}: file name does not match project id {project_id!r}"
        )
    try:
        stored_config = parse_name(payload["config"])
        stored_options = LinkOptions.from_dict(payload["options"])
    except (KeyError, ValueError, TypeError) as exc:
        raise StateError(f"{path}: bad config/options: {exc}") from None
    if config is not None and config.name != stored_config.name:
        raise StateError(
            f"{path}: persisted under configuration"
            f" {stored_config.name!r}, server wants {config.name!r}"
        )
    if options is not None and options.to_dict() != stored_options.to_dict():
        raise StateError(
            f"{path}: persisted under link options"
            f" {stored_options.to_dict()}, server wants {options.to_dict()}"
        )

    try:
        sources = []
        for entry in payload["sources"]:
            src = SourceArtifact.of(entry["name"], entry["text"])
            if src.digest != entry["digest"]:
                raise StateError(
                    f"{path}: source {src.name!r} digest mismatch"
                )
            sources.append(src)
        project = Project(
            config=stored_config,
            options=stored_options,
            cache=cache,
            registry=registry,
        )
        members = []
        for src, entry in zip(sources, payload["members"]):
            if entry["name"] != src.name:
                raise StateError(
                    f"{path}: member order diverges from sources"
                    f" ({entry['name']!r} != {src.name!r})"
                )
            program = ConstraintProgram.from_dict(entry["program"])
            members.append(
                ConstraintsArtifact(
                    source=src,
                    key=constraints_key(src.digest),
                    program=program,
                    program_digest=entry["program_digest"],
                    from_cache=True,
                )
            )
        linked = LinkedProgram.from_dict(payload["linked"])
        solution = Solution.from_canonical_dict(
            payload["solution"], linked.program
        )
        generation = int(payload["generation"])
        if generation < 1:
            raise StateError(f"{path}: bad generation {generation!r}")
    except StateError:
        raise
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise StateError(
            f"{path}: malformed state payload:"
            f" {type(exc).__name__}: {exc}"
        ) from None
    project.restore(sources, members, linked, solution, generation)
    return project_id, project
