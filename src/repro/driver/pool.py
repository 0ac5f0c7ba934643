"""The parallel analysis driver: fan tasks out, merge deterministically.

:func:`solve_tasks` is the single entry point for batch solving
(``repro.bench.runner``, ``repro sweep`` and ``repro constraints
solve``):

1. Look every task up in the on-disk cache (when enabled) — warm tasks
   never reach a worker, let alone a solver.
2. Coalesce tasks that share a cache identity (solve once, replicate),
   then run the remainder either in-process (``jobs=1`` — bit-identical
   to the historical serial loop) or on a ``multiprocessing`` pool.
3. Merge results **by task index**: the returned list is ordered by
   submission order regardless of which worker finished first, so a
   ``--jobs 8`` run reports byte-identically to ``--jobs 1``.

Workers receive only compact :class:`repro.driver.tasks.SolveTask`
objects and re-derive constraint programs locally (memoised per file
content hash), because solver state — interned frozensets, pts backend
objects, union-find structures — is deliberately not sent across the
process boundary.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import Registry, TraceWriter, record_solver_stats
from .cache import CacheStats, ResultCache
from .tasks import (
    FileContext,
    SolveTask,
    TaskResult,
    context_for,
    execute_task,
    reset_contexts,
)


@dataclass
class DriverStats:
    """One run's accounting, surfaced in run reports."""

    jobs: int = 1
    tasks: int = 0
    solved: int = 0  # tasks that actually invoked a solver
    cache: Optional[CacheStats] = None

    def to_dict(self) -> Dict:
        out: Dict = {"jobs": self.jobs, "tasks": self.tasks, "solved": self.solved}
        if self.cache is not None:
            out["cache"] = self.cache.to_dict()
        return out

    def __str__(self) -> str:
        cache = f"; cache: {self.cache}" if self.cache is not None else ""
        return (
            f"driver: {self.tasks} tasks, {self.solved} solved,"
            f" jobs={self.jobs}{cache}"
        )


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the machine's CPU count."""
    return os.cpu_count() or 1


def _pool_context(
    start_method: Optional[str] = None,
) -> multiprocessing.context.BaseContext:
    """The multiprocessing context the pool runs on.

    Prefers ``fork`` (fast start, inherits ``sys.path`` and loaded
    modules) and falls back to ``spawn`` where fork does not exist —
    asking the platform which methods it *supports* rather than probing
    with try/except, because ``get_context`` also raises ValueError for
    typos, which must not silently downgrade to the platform default.
    An explicit ``start_method`` must be supported or this raises.
    """
    available = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in available:
            raise ValueError(
                f"start method {start_method!r} not available"
                f" (supported: {available})"
            )
        return multiprocessing.get_context(start_method)
    for method in ("fork", "spawn"):
        if method in available:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()  # pragma: no cover - exotic platform


def _init_worker() -> None:
    """Pool initializer: start every worker with an empty FileContext
    memo.  Under spawn the module is re-imported fresh anyway; under
    fork the worker would otherwise inherit whatever the parent process
    had memoised, making worker behaviour depend on the start method
    (and on parent history).  Resetting here makes both methods solve
    from identical state."""
    reset_contexts()


def solve_tasks(
    tasks: Sequence[SolveTask],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    contexts: Optional[Dict[str, FileContext]] = None,
    progress: Optional[Callable[[TaskResult], None]] = None,
    registry: Optional[Registry] = None,
    trace: Optional[TraceWriter] = None,
    start_method: Optional[str] = None,
) -> Tuple[List[TaskResult], DriverStats]:
    """Execute ``tasks``, returning results ordered by task index.

    ``contexts`` optionally seeds the in-process derived-state memo with
    constraint programs the caller already built (source hash →
    :class:`FileContext`); it only applies to the ``jobs=1`` path —
    worker processes always re-derive their own.  ``progress`` is called
    once per completed task, in completion order.

    An enabled ``registry`` turns on per-task profiling: every solved
    task carries its worker-local metrics back on the result, and they
    are merged here **in task-index order** (with ``driver.*`` and
    ``driver.cache.*`` counters added on top), so the merged registry is
    identical for any ``jobs`` value and either pool start method.  A
    ``trace`` writer gets one ``solve`` event per task, also in index
    order.  Neither affects solutions, runtimes or cache keys.
    """
    tasks = list(tasks)
    if len({t.index for t in tasks}) != len(tasks):
        raise ValueError("task indexes must be unique")
    jobs = max(1, jobs)
    stats = DriverStats(jobs=jobs, tasks=len(tasks))
    results: Dict[int, TaskResult] = {}
    profiling = registry is not None and registry.enabled
    if profiling:
        # Delta-snapshot the cache counters: the same ResultCache object
        # is commonly reused across solve_tasks calls, and this call
        # must only account for its own hits/misses.
        cache_before = cache.stats.to_dict() if cache is not None else None

    pending: List[SolveTask] = []
    if cache is not None:
        stats.cache = cache.stats
        for task in tasks:
            hit = cache.load(task)
            if hit is not None:
                results[task.index] = hit
                if progress is not None:
                    progress(hit)
            else:
                pending.append(task)
    else:
        pending = tasks
    if profiling:
        # Replay tasks with profiling on so workers build a registry.
        # ``profile`` is not part of the cache identity, so this cannot
        # change which entries hit above or where results get stored.
        pending = [dataclasses.replace(t, profile=True) for t in pending]

    # Coalesce duplicate work: tasks sharing a cache identity (same
    # content, configuration and timing — e.g. a configuration listed in
    # two overlapping experiment groups) are solved once and the result
    # replicated.  Same key → same result is also what makes a warm
    # replay byte-identical to its cold run under wall timing: without
    # coalescing, duplicates would each measure (and the last store
    # win), leaving the cold report internally inconsistent with what
    # the cache replays.
    unique: List[SolveTask] = []
    unique_keys: List[str] = []
    duplicates: Dict[str, List[SolveTask]] = {}
    first_for: Dict[str, SolveTask] = {}
    for task in pending:
        key = task.cache_key()
        if key in first_for:
            duplicates.setdefault(key, []).append(task)
        else:
            first_for[key] = task
            unique.append(task)
            unique_keys.append(key)

    stats.solved = len(unique)
    coalesced = sum(len(v) for v in duplicates.values())
    if unique:
        if jobs == 1:
            completed = _run_serial(unique, contexts or {})
        else:
            completed = _run_pool(unique, jobs, start_method)
        for task, key, result in zip(unique, unique_keys, completed):
            if cache is not None:
                cache.store(task, result)
            results[result.index] = result
            if progress is not None:
                progress(result)
            for dup in duplicates.get(key, ()):
                echo = TaskResult(
                    dup.index,
                    dup.file_name,
                    dup.config_name,
                    result.runtime_s,
                    result.solution,
                    result.from_cache,
                )
                results[dup.index] = echo
                if progress is not None:
                    progress(echo)

    ordered = [results[t.index] for t in tasks]
    if profiling:
        registry.add("driver.tasks", len(tasks))
        registry.add("driver.solved", stats.solved)
        registry.add("driver.coalesced", coalesced)
        if cache is not None:
            after = cache.stats.to_dict()
            for field, n in after.items():
                registry.add(f"driver.cache.{field}", n - cache_before[field])
        # Index-order merge: every worker's registry lands in the same
        # place no matter which process solved it or when it finished.
        # Cache hits and coalesced echoes carry no worker registry —
        # replay their stored solver stats instead, so the ``solver.*``
        # counters aggregate every *task* exactly once and a warm run
        # reports the same counts as its cold run.
        for result in ordered:
            if result.metrics:
                registry.merge_dict(result.metrics)
            else:
                record_solver_stats(registry, result.solution["stats"])
    if trace is not None:
        for result in ordered:
            trace.emit(
                "solve",
                f"{result.file_name}::{result.config_name}",
                {
                    "runtime_s": result.runtime_s,
                    "from_cache": result.from_cache,
                    "stats": result.solution["stats"],
                },
            )
    return ordered, stats


def _run_serial(
    tasks: Sequence[SolveTask], contexts: Dict[str, FileContext]
) -> List[TaskResult]:
    """In-process execution (the historical serial path, unchanged)."""
    return [execute_task(task, _context(task, contexts)) for task in tasks]


def _context(task: SolveTask, contexts: Dict[str, FileContext]) -> FileContext:
    """``task``'s file context from ``contexts``, derived and added if absent."""
    context = contexts.get(task.source_hash)
    if context is None:
        context = context_for(task)
        contexts[task.source_hash] = context
    return context


def _run_pool(
    tasks: Sequence[SolveTask],
    jobs: int,
    start_method: Optional[str] = None,
) -> List[TaskResult]:
    """Fan out over a process pool; reorder to submission order.

    ``imap_unordered`` maximises throughput (a worker never idles
    waiting for an in-order neighbour); determinism is restored by
    re-keying the completed results on the task index.  Chunk size 1
    keeps the longest-solve stragglers from pinning a whole chunk of
    queued tasks behind them.
    """
    ctx = _pool_context(start_method)
    workers = min(jobs, len(tasks))
    with ctx.Pool(processes=workers, initializer=_init_worker) as pool:
        unordered = list(pool.imap_unordered(execute_task, tasks, chunksize=1))
    by_index = {r.index: r for r in unordered}
    return [by_index[t.index] for t in tasks]


# ----------------------------------------------------------------------
# Merge-time validation
# ----------------------------------------------------------------------


def validate_agreement(
    results: Sequence[TaskResult],
    tasks: Sequence[SolveTask],
    contexts: Optional[Dict[str, FileContext]] = None,
) -> None:
    """Assert every configuration of a file produced the same solution.

    The serial runner validated each solution against the file's first
    configuration as it went; with out-of-order completion the same
    check runs at merge time, on the canonical wire dicts (stats are
    excluded — only points-to sets and the external set define solution
    identity, exactly like ``Solution.__eq__``).

    Two configurations that differ on the Reduce axis agree on the
    memory locations (in M) and the external set only: reduction may
    widen the Sol of a collapsed temporary (internals §13).  Their
    comparison reads M from the file's program, taken from ``contexts``
    or re-derived the way a serial task derives it.
    """
    task_at = {task.index: task for task in tasks}
    contexts = {} if contexts is None else contexts
    reference: Dict[str, TaskResult] = {}
    for result in results:
        ref = reference.setdefault(result.file_name, result)
        if ref is result:
            continue
        ref_points_to = ref.solution["points_to"]
        points_to = result.solution["points_to"]
        task = task_at[result.index]
        if task_at[ref.index].configuration().reduce != task.configuration().reduce:
            in_m = _context(task, contexts).program.in_m
            ref_points_to = [entry for entry in ref_points_to if in_m[entry[0]]]
            points_to = [entry for entry in points_to if in_m[entry[0]]]
        if (
            ref_points_to != points_to
            or ref.solution["external"] != result.solution["external"]
        ):
            raise AssertionError(
                f"{result.config_name} disagrees with {ref.config_name}"
                f" on {result.file_name}"
            )
