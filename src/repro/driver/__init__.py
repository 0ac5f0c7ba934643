"""Parallel cached solve driver.

Fans (file, configuration) solve tasks over the constraint programs its
caller built out over a process pool with deterministic result merging,
backed by an on-disk result cache under ``.repro-cache/`` keyed by
(file content hash, configuration cache key, timing mode).  See
``docs/internals.md`` §8 for the architecture.
"""

from .cache import CACHE_SCHEMA, DEFAULT_CACHE_DIR, CacheStats, ResultCache
from .pool import DriverStats, solve_tasks, validate_agreement
from .tasks import (
    TIMING_MODES,
    Programs,
    SolveTask,
    TaskResult,
    cost_runtime,
    execute_task,
    source_digest,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ResultCache",
    "DriverStats",
    "solve_tasks",
    "validate_agreement",
    "TIMING_MODES",
    "Programs",
    "SolveTask",
    "TaskResult",
    "cost_runtime",
    "execute_task",
    "source_digest",
]
