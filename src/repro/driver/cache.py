"""On-disk content-addressed cache of solved tasks and pipeline stages.

Every entry lives under ``.repro-cache/stages/<stage>/<k[:2]>/<key>.json``.
The driver's solved (file content, configuration) tasks are the
``task`` stage, keyed by :meth:`repro.driver.tasks.SolveTask.cache_key`
(source content digest, ``Configuration.cache_key`` — which includes the
pts backend — and the timing mode); each stores the canonical solution
dict, its solver stats, and the measured runtime, so a warm run replays
a previous run's measurements without a single solver invocation.  The
other stages are :mod:`repro.pipeline`'s artifacts.

Every entry file is a header line followed by the payload's JSON
text.  The header records the schema, the stage and the payload text's
sha256, so a load verifies the exact bytes it read before decoding
them, without re-serialising anything.

The cache is *self-healing*: an entry that cannot be parsed, has a
different schema version, fails its checksum or fails its stage's
decoder is deleted and counted in :attr:`CacheStats.corrupted` — the
artifact is simply rebuilt.  Writes go through a same-directory temp
file + ``os.replace`` so a killed process never leaves a truncated
entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

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
    """Content-addressed store of stage artifacts, one namespace per
    stage (the driver's ``task`` stage among them).

    ``max_entries`` (optional) bounds every namespace to that many
    entries with least-recently-*used* eviction: a hit refreshes the
    entry's mtime, and a store that pushes a namespace over the bound
    deletes the stalest entries (counted in :attr:`CacheStats.evicted`).
    Unbounded by default, preserving the original grow-forever
    behaviour.
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
        #: per-stage hit counters (stage name → stats)
        self.stage_stats: Dict[str, CacheStats] = {}

    def _stage_path(self, stage: str, key: str) -> pathlib.Path:
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
    # Stage entries
    # ------------------------------------------------------------------

    def stats_for(self, stage: str) -> CacheStats:
        """Hit/miss counters for one stage (created lazily)."""
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

        Never raises on a bad entry: unparsable or wrong-schema entries
        are deleted and reported as misses, so cache corruption can cost
        time but never correctness.  ``decode`` (when given) turns the
        payload into the live artifact, which is then returned instead;
        a well-formed entry whose *content* fails to decode — a dangling
        index, a malformed program — is discarded the same way and never
        counted as a hit.  ``decode`` reports bad content as ValueError,
        KeyError or TypeError; any other error is a bug and propagates.
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
