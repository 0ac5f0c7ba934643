"""On-disk result cache for (file content, configuration) solves.

Entries live under ``.repro-cache/solve/<k[:2]>/<key>.json`` where
``key`` hashes (source content digest, ``Configuration.cache_key`` —
which includes the pts backend — and the timing mode); see
:meth:`repro.driver.tasks.SolveTask.cache_key` for the exact
composition.  Each entry stores the canonical solution dict, its solver
stats, and the measured runtime, so a warm run replays a previous run's
measurements without a single solver invocation.

Every entry file is a header line followed by the payload's JSON
text.  The header records the schema and the payload text's sha256, so
a load verifies the exact bytes it read before decoding them, without
re-serialising anything.

The cache is *self-healing*: an entry that cannot be parsed, has a
different schema version, fails its checksum or fails the sanity checks
is deleted and counted in :attr:`CacheStats.corrupted` — the task is
simply re-solved.  Writes go through a same-directory temp file +
``os.replace`` so a killed process never leaves a truncated entry
behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from .tasks import SolveTask, TaskResult

#: default cache location, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"

#: bump to invalidate every existing entry (e.g. when the canonical
#: solution encoding or the stats schema changes shape)
#: 3: header line with the payload checksum
#: 4: solutions leave E implicit in every set holding Ω
CACHE_SCHEMA = 4


def _compact(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def encode_entry(header: Dict[str, Any], payload: Dict) -> str:
    """The text of one entry file: header line, then the payload."""
    body = _compact(payload)
    head = dict(header, schema=CACHE_SCHEMA, sha256=_checksum(body))
    return _compact(head) + "\n" + body


def decode_entry(text: str) -> Tuple[Dict[str, Any], Any]:
    """(header, payload) of one entry file.

    Raises ValueError (or KeyError/TypeError for a malformed header)
    when the schema differs or the payload text fails its checksum.
    Compact JSON never contains a raw newline, so the first one ends
    the header.
    """
    head, _, body = text.partition("\n")
    header = json.loads(head)
    if header["schema"] != CACHE_SCHEMA:
        raise ValueError(f"schema {header['schema']} != {CACHE_SCHEMA}")
    if _checksum(body) != header["sha256"]:
        raise ValueError("payload checksum mismatch")
    return header, json.loads(body)


@dataclass
class CacheStats:
    """Cold/warm hit counters, surfaced in run reports."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupted: int = 0
    evicted: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupted": self.corrupted,
            "evicted": self.evicted,
        }

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses,"
            f" {self.stores} stored, {self.corrupted} corrupted,"
            f" {self.evicted} evicted"
        )


class ResultCache:
    """Content-addressed store of solved task results.

    ``max_entries`` (optional) bounds every namespace — the solve-task
    store and each pipeline-stage store — to that many entries with
    least-recently-*used* eviction: a hit refreshes the entry's mtime,
    and a store that pushes a namespace over the bound deletes the
    stalest entries (counted in :attr:`CacheStats.evicted`).  Unbounded
    by default, preserving the original grow-forever behaviour.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self.root = pathlib.Path(root if root is not None else DEFAULT_CACHE_DIR)
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: per-pipeline-stage hit counters (stage name → stats); the
        #: solve-task counters above are kept separate for compatibility
        self.stage_stats: Dict[str, CacheStats] = {}

    def _path(self, key: str) -> pathlib.Path:
        return self.root / "solve" / key[:2] / f"{key}.json"

    def _stage_path(self, stage: str, key: str) -> pathlib.Path:
        # Stage entries live in their own namespace so they can never
        # collide with (or corrupt-delete) solve-task entries.
        return self.root / "stages" / stage / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # LRU bound
    # ------------------------------------------------------------------

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        """Refresh one entry's recency (best-effort: a failed utime
        only makes the entry look older than it is)."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _prune(
        self, namespace: pathlib.Path, keep: pathlib.Path, stats: CacheStats
    ) -> None:
        """Evict stalest entries of one namespace beyond ``max_entries``.

        ``keep`` (the entry just stored) is never evicted, so a store
        can't immediately sacrifice itself on filesystems with coarse
        mtimes.  Ties break on path name for determinism.
        """
        if self.max_entries is None:
            return
        entries = [
            p
            for p in namespace.glob("*/*.json")
            if p != keep and p.is_file()
        ]
        excess = len(entries) + 1 - self.max_entries
        if excess <= 0:
            return

        def _age(path: pathlib.Path):
            try:
                return (path.stat().st_mtime, path.name)
            except OSError:  # raced away: sort first, unlink is a no-op
                return (float("-inf"), path.name)

        for path in sorted(entries, key=_age)[:excess]:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            stats.evicted += 1

    @staticmethod
    def _read_entry(path: pathlib.Path, stats: CacheStats) -> Optional[str]:
        """Read one entry file, or None on a miss.

        Only the errors a healthy cache can produce are swallowed: a
        missing file (or a parent directory that is not a directory) is
        a plain miss, undecodable bytes are a corrupt entry.  Any other
        OSError — permissions, I/O failure, too many open files — is a
        real environment problem and propagates to the caller instead of
        being silently re-solved around.
        """
        try:
            return path.read_text()
        except (FileNotFoundError, NotADirectoryError):
            stats.misses += 1
            return None
        except (UnicodeDecodeError, IsADirectoryError):
            ResultCache._discard_corrupt(path, stats)
            return None

    @staticmethod
    def _discard_corrupt(path: pathlib.Path, stats: CacheStats) -> None:
        """Count and delete one unusable entry (self-healing miss)."""
        stats.corrupted += 1
        stats.misses += 1
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        except IsADirectoryError:  # a directory squatting on the path
            pass

    # ------------------------------------------------------------------
    # Generic stage entries (repro.pipeline)
    # ------------------------------------------------------------------

    def stats_for(self, stage: str) -> CacheStats:
        """Hit/miss counters for one pipeline stage (created lazily)."""
        stats = self.stage_stats.get(stage)
        if stats is None:
            stats = self.stage_stats[stage] = CacheStats()
        return stats

    def load_stage(
        self,
        stage: str,
        key: str,
        decode: Optional[Callable[[Dict], Any]] = None,
    ) -> Any:
        """The cached payload for one stage artifact, or None on a miss.

        Self-healing like :meth:`load`: unparsable or wrong-schema
        entries are deleted and reported as misses.  ``decode`` (when
        given) turns the payload into the live artifact, which is then
        returned instead; a well-formed entry whose *content* fails to
        decode — a dangling index, a malformed program — is discarded
        the same way and never counted as a hit.  ``decode`` reports bad
        content as ValueError, KeyError or TypeError; any other error is
        a bug and propagates.
        """
        stats = self.stats_for(stage)
        path = self._stage_path(stage, key)
        text = self._read_entry(path, stats)
        if text is None:
            return None
        try:
            header, payload = decode_entry(text)
            if header["stage"] != stage:
                raise ValueError(f"stage {header['stage']!r} != {stage!r}")
            if not isinstance(payload, dict):
                raise ValueError("payload is not a dict")
            if decode is not None:
                payload = decode(payload)
        except (ValueError, KeyError, TypeError):
            self._discard_corrupt(path, stats)
            return None
        stats.hits += 1
        if self.max_entries is not None:
            self._touch(path)
        return payload

    def store_stage(self, stage: str, key: str, payload: Dict) -> None:
        """Persist one stage artifact (atomic same-directory rename)."""
        path = self._stage_path(stage, key)
        self._write_entry(path, encode_entry({"stage": stage}, payload))
        stats = self.stats_for(stage)
        stats.stores += 1
        self._prune(self.root / "stages" / stage, path, stats)

    # ------------------------------------------------------------------

    def load(self, task: SolveTask) -> Optional[TaskResult]:
        """The cached result for ``task``, or None on a miss.

        Never raises on a bad entry: anything unreadable is discarded
        (deleted) and reported as a miss, so cache corruption can cost
        time but never correctness.
        """
        path = self._path(task.cache_key())
        text = self._read_entry(path, self.stats)
        if text is None:
            return None
        try:
            _, entry = decode_entry(text)
            solution = entry["solution"]
            # Sanity: the fields every consumer reads must be present
            # with the right shapes before we trust the entry.
            runtime = float(entry["runtime_s"])
            if not isinstance(solution["points_to"], list):
                raise ValueError("points_to is not a list")
            if not isinstance(solution["external"], list):
                raise ValueError("external is not a list")
            int(solution["stats"]["explicit_pointees"])
        except (ValueError, KeyError, TypeError):
            self._discard_corrupt(path, self.stats)
            return None
        self.stats.hits += 1
        if self.max_entries is not None:
            self._touch(path)
        return TaskResult(
            task.index,
            task.file_name,
            task.config_name,
            runtime,
            solution,
            from_cache=True,
        )

    def store(self, task: SolveTask, result: TaskResult) -> None:
        """Persist one solved result (atomic same-directory rename)."""
        path = self._path(task.cache_key())
        entry = {
            "file": task.file_name,
            "source_hash": task.source_hash,
            "config_key": task.configuration().cache_key,
            "timing": task.timing,
            "runtime_s": result.runtime_s,
            "solution": result.solution,
        }
        self._write_entry(path, encode_entry({}, entry))
        self.stats.stores += 1
        self._prune(self.root / "solve", path, self.stats)

    @staticmethod
    def _write_entry(path: pathlib.Path, text: str) -> None:
        """Write one entry file (atomic same-directory rename)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
