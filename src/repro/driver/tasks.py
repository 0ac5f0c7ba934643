"""Compact, picklable units of work for the parallel driver.

A :class:`SolveTask` carries only primitives — the content hash of the
translation unit it solves and a configuration *name* — never solver
objects or constraint programs.  The programs come from the caller of
:func:`repro.driver.solve_tasks`, built once and keyed by that hash;
:class:`Programs` is one process's view of them.

Task results travel back as :class:`TaskResult`, whose solution field is
the canonical wire dict of :meth:`repro.analysis.solution.Solution.
to_canonical_dict` — deterministic, backend-independent, and directly
comparable across processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..analysis.config import Configuration, parse_name, solve_prepared
from ..analysis.constraints import ConstraintProgram
from ..analysis.omega import lower_to_explicit
from ..analysis.solution import Solution, SolverStats

#: timing modes: ``wall`` measures best-of-N wall clock (the default,
#: today's serial behaviour); ``cost`` derives a deterministic pseudo-
#: runtime from the solver's work counters, so reports are byte-identical
#: across runs, job counts and machines (used by the differential tests
#: and available for CI smoke runs on noisy shared hardware).
TIMING_MODES = ("wall", "cost")


def source_digest(source: str) -> str:
    """Content hash of one translation unit (cache key component)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cost_runtime(stats: SolverStats) -> float:
    """Deterministic pseudo-runtime: one microsecond per unit of solver
    work.  Any two solves of the same (program, configuration, backend)
    perform identical work, so this 'clock' never jitters."""
    work = (
        stats.visits
        + stats.passes
        + stats.propagations
        + stats.edges_added
        + stats.unifications
    )
    return 1e-6 * (1 + work)


@dataclass(frozen=True)
class SolveTask:
    """One (file, configuration) solve, serialised compactly.

    ``source_hash`` names the program the task solves: its key in the
    caller's program map, and the content part of :meth:`cache_key`.
    ``index`` is the task's position in submission order — the merge key
    that makes result order independent of completion order.
    """

    index: int
    file_name: str
    source_hash: str
    config_name: str
    repetitions: int = 3
    timing: str = "wall"
    #: what ``source_hash`` hashes: ``"c"`` (a C translation unit, the
    #: default) or ``"lir"`` (constraint text)
    source_kind: str = "c"
    #: collect per-task metrics (obs registry dict on the result).
    #: Deliberately NOT part of :meth:`cache_key` — observing a solve
    #: must never invalidate or fork its cached artifact.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.timing not in TIMING_MODES:
            raise ValueError(f"unknown timing mode {self.timing!r}")
        if self.source_kind not in ("c", "lir"):
            raise ValueError(f"unknown source kind {self.source_kind!r}")

    def configuration(self) -> Configuration:
        return parse_name(self.config_name)

    def cache_key(self) -> str:
        """The on-disk cache identity of this task's result.

        Composed of the file *content* hash (not the name — identical
        content under different names shares an entry), the full
        configuration key (which includes the pts backend), and the
        timing mode with its repetition count (wall timings measured
        with different repetitions are different measurements; cost
        timings are repetition-independent).
        """
        timing = (
            "cost" if self.timing == "cost" else f"wall:{max(1, self.repetitions)}"
        )
        parts = [self.source_hash, self.configuration().cache_key, timing]
        if self.source_kind != "c":
            # Appended only for non-C sources so every pre-existing
            # cache entry keeps its key.
            parts.append(self.source_kind)
        raw = "|".join(parts)
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()


@dataclass
class TaskResult:
    """What comes back from a worker (or the cache) for one task."""

    index: int
    file_name: str
    config_name: str
    runtime_s: float
    solution: Dict  # Solution.to_canonical_dict() form
    from_cache: bool = False
    #: Registry.to_dict() snapshot when the task ran with profile=True
    metrics: Optional[Dict] = None

    @property
    def explicit_pointees(self) -> int:
        return self.solution["stats"]["explicit_pointees"]


class Programs:
    """The caller's IP programs (source hash → program), as one process
    solves a batch of them: an EP configuration gets the program's EP
    twin (Ω made explicit), lowered on its first use and kept, so the
    process lowers each program at most once per batch."""

    __slots__ = ("_ip", "_ep")

    def __init__(self, programs: Mapping[str, ConstraintProgram]) -> None:
        self._ip = programs
        self._ep: Dict[str, ConstraintProgram] = {}

    def prepared(
        self, source_hash: str, config: Configuration
    ) -> ConstraintProgram:
        if config.representation != "EP":
            return self._ip[source_hash]
        twin = self._ep.get(source_hash)
        if twin is None:
            twin = self._ep[source_hash] = lower_to_explicit(
                self._ip[source_hash]
            )
        return twin


def execute_task(task: SolveTask, programs: Programs) -> TaskResult:
    """Solve one task; the worker entry point (and the in-process path).

    Mirrors the historical serial runner exactly: one untimed solve
    produces the solution (and, under wall timing, warms the path),
    then ``time_callable`` measures ``repetitions`` further solves.
    """
    # Imported here: repro.bench.runner builds on this module.
    from ..bench.timing import time_callable

    reg = None
    if task.profile:
        from ..obs import Registry, record_solver_stats

        reg = Registry()
    if reg is not None:
        with reg.scope("task.derive"):
            config = task.configuration()
            prepared = programs.prepared(task.source_hash, config)
        with reg.scope("task.solve"):
            solution: Solution = solve_prepared(prepared, config)
    else:
        config = task.configuration()
        prepared = programs.prepared(task.source_hash, config)
        solution = solve_prepared(prepared, config)
    if task.timing == "cost":
        runtime = cost_runtime(solution.stats)
    else:
        runtime = time_callable(
            lambda: solve_prepared(prepared, config), task.repetitions
        )
    metrics = None
    if reg is not None:
        record_solver_stats(reg, solution.stats.to_dict())
        metrics = reg.to_dict()
    return TaskResult(
        task.index,
        task.file_name,
        task.config_name,
        runtime,
        solution.to_canonical_dict(),
        metrics=metrics,
    )
