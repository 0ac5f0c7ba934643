"""The parallel analysis driver: fan solves out, merge deterministically.

:func:`solve_tasks` is the single entry point for batch solving
(``repro.bench.runner``, ``repro sweep`` and ``repro constraints
solve``).  Its caller builds every constraint program once and hands
them over keyed by source hash; the driver only looks programs up,
prepares and solves them:

1. Look every task up in the on-disk cache (when enabled) — warm tasks
   never reach a worker, let alone a solver.
2. Coalesce tasks that share a cache identity (solve once, replicate),
   then run the remainder either in-process (``jobs=1``) or on a
   ``multiprocessing`` pool whose workers receive the programs once,
   through the pool initializer.
3. Merge results **by task index**: the returned list is ordered by
   submission order regardless of which worker finished first, so a
   ``--jobs 8`` run reports byte-identically to ``--jobs 1``.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.constraints import ConstraintProgram
from ..obs import Registry, TraceWriter, record_solver_stats
from .cache import CacheStats, ResultCache
from .tasks import Programs, SolveTask, TaskResult, execute_task

#: the :class:`ResultCache` stage that holds solved task results
TASK_STAGE = "task"


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


#: a pool worker's programs, installed by :func:`_init_worker`
_WORKER_PROGRAMS: Optional[Programs] = None


def _init_worker(programs: Mapping[str, ConstraintProgram]) -> None:
    """Pool initializer: the caller's programs reach each worker once —
    inherited under fork, pickled under spawn — and every worker starts
    with no EP twin lowered, whatever the start method."""
    global _WORKER_PROGRAMS
    _WORKER_PROGRAMS = Programs(programs)


def _execute_in_worker(task: SolveTask) -> TaskResult:
    return execute_task(task, _WORKER_PROGRAMS)


def _task_entry(task: SolveTask, result: TaskResult) -> Dict:
    """The ``task``-stage cache payload of one solved task."""
    return {
        "file": task.file_name,
        "source_hash": task.source_hash,
        "config_key": task.configuration().cache_key,
        "timing": task.timing,
        "runtime_s": result.runtime_s,
        "solution": result.solution,
    }


def _cached_result(task: SolveTask, entry: Dict) -> TaskResult:
    """Decode one ``task``-stage cache entry into ``task``'s result.

    The fields every consumer reads must be present with the right
    shapes; anything else raises ValueError, KeyError or TypeError, so
    the cache discards the entry and the task is solved again.
    """
    solution = entry["solution"]
    runtime = float(entry["runtime_s"])
    if not isinstance(solution["points_to"], list):
        raise ValueError("points_to is not a list")
    if not isinstance(solution["external"], list):
        raise ValueError("external is not a list")
    int(solution["stats"]["explicit_pointees"])
    return TaskResult(
        task.index,
        task.file_name,
        task.config_name,
        runtime,
        solution,
        from_cache=True,
    )


def solve_tasks(
    tasks: Sequence[SolveTask],
    programs: Mapping[str, ConstraintProgram],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    registry: Optional[Registry] = None,
    trace: Optional[TraceWriter] = None,
    start_method: Optional[str] = None,
) -> Tuple[List[TaskResult], DriverStats]:
    """Execute ``tasks``, returning results ordered by task index.

    ``programs`` maps each task's ``source_hash`` to the IP constraint
    program the caller built for it.  With ``jobs=1`` the tasks are
    solved in this process; otherwise each pool worker receives the
    programs its tasks need once, through the pool initializer.

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

    pending: List[SolveTask] = []
    if cache is not None:
        stats.cache = cache.stats_for(TASK_STAGE)
        # Delta-snapshot the cache counters: the same ResultCache object
        # is commonly reused across solve_tasks calls, and this call
        # must only account for its own hits/misses.
        cache_before = stats.cache.to_dict()
        for task in tasks:
            hit = cache.load_stage(
                TASK_STAGE, task.cache_key(), functools.partial(_cached_result, task)
            )
            if hit is not None:
                results[task.index] = hit
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
            local = Programs(programs)
            completed = [execute_task(task, local) for task in unique]
        else:
            # Workers receive only the programs the cold tasks solve.
            needed = {t.source_hash: programs[t.source_hash] for t in unique}
            completed = _run_pool(unique, needed, jobs, start_method)
        for task, key, result in zip(unique, unique_keys, completed):
            if cache is not None:
                cache.store_stage(TASK_STAGE, key, _task_entry(task, result))
            results[result.index] = result
            for dup in duplicates.get(key, ()):
                results[dup.index] = TaskResult(
                    dup.index,
                    dup.file_name,
                    dup.config_name,
                    result.runtime_s,
                    result.solution,
                    result.from_cache,
                )

    ordered = [results[t.index] for t in tasks]
    if profiling:
        registry.add("driver.tasks", len(tasks))
        registry.add("driver.solved", stats.solved)
        registry.add("driver.coalesced", coalesced)
        if cache is not None:
            after = stats.cache.to_dict()
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


def _run_pool(
    tasks: Sequence[SolveTask],
    programs: Mapping[str, ConstraintProgram],
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
    with ctx.Pool(
        processes=workers, initializer=_init_worker, initargs=(programs,)
    ) as pool:
        unordered = list(
            pool.imap_unordered(_execute_in_worker, tasks, chunksize=1)
        )
    by_index = {r.index: r for r in unordered}
    return [by_index[t.index] for t in tasks]


# ----------------------------------------------------------------------
# Merge-time validation
# ----------------------------------------------------------------------


def validate_agreement(
    results: Sequence[TaskResult],
    tasks: Sequence[SolveTask],
    programs: Mapping[str, ConstraintProgram],
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
    comparison reads M from the file's program in ``programs``, the map
    the tasks were solved from.
    """
    task_at = {task.index: task for task in tasks}
    reference: Dict[str, TaskResult] = {}
    for result in results:
        ref = reference.setdefault(result.file_name, result)
        if ref is result:
            continue
        ref_points_to = ref.solution["points_to"]
        points_to = result.solution["points_to"]
        task = task_at[result.index]
        if task_at[ref.index].configuration().reduce != task.configuration().reduce:
            in_m = programs[task.source_hash].in_m
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
