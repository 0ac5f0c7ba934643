"""Compact, picklable units of work for the parallel driver.

A :class:`SolveTask` carries only primitives — a :class:`FileSpec`
recipe (or raw C source) and a configuration *name* — never solver
objects, interned frozensets or constraint programs.
Worker processes re-derive everything heavyweight from the task via
:func:`context_for`, memoising per file content hash so a worker that
receives several configurations of the same file compiles it once.

Task results travel back as :class:`TaskResult`, whose solution field is
the canonical wire dict of :meth:`repro.analysis.solution.Solution.
to_canonical_dict` — deterministic, backend-independent, and directly
comparable across processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..analysis.config import Configuration, parse_name, solve_prepared
from ..analysis.constraints import ConstraintProgram
from ..analysis.omega import lower_to_explicit
from ..analysis.solution import Solution, SolverStats

if TYPE_CHECKING:  # pragma: no cover
    from ..bench.corpus import FileSpec

# NOTE: repro.bench modules are imported lazily inside functions —
# repro.bench.runner builds on this module, so an eager import here
# would be circular.

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

    Exactly one of ``spec`` (corpus recipe; the worker regenerates the
    deterministic C source) or ``source`` (raw C text) is set.
    ``index`` is the task's position in submission order — the merge key
    that makes result order independent of completion order.
    """

    index: int
    file_name: str
    source_hash: str
    config_name: str
    spec: Optional["FileSpec"] = None
    source: Optional[str] = None
    repetitions: int = 3
    timing: str = "wall"
    #: what ``source`` holds: ``"c"`` (a C translation unit, the
    #: default) or ``"lir"`` (constraint text for
    #: :func:`repro.interchange.parse_constraint_text`)
    source_kind: str = "c"
    #: collect per-task metrics (obs registry dict on the result).
    #: Deliberately NOT part of :meth:`cache_key` — observing a solve
    #: must never invalidate or fork its cached artifact.
    profile: bool = False

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.source is None):
            raise ValueError("exactly one of spec/source must be given")
        if self.timing not in TIMING_MODES:
            raise ValueError(f"unknown timing mode {self.timing!r}")
        if self.source_kind not in ("c", "lir"):
            raise ValueError(f"unknown source kind {self.source_kind!r}")
        if self.source_kind != "c" and self.spec is not None:
            raise ValueError("corpus specs always generate C source")

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


class FileContext:
    """Per-process derived state for one translation unit.

    Holds the phase-1 constraint program and lazily materialises the
    EP twin (Ω made explicit).  These objects are exactly the
    "unpicklable state" a worker re-derives instead of receiving over
    the pipe: they reference interned frozensets and backend objects.
    """

    __slots__ = ("name", "source_hash", "program", "_ep")

    def __init__(
        self, name: str, source_hash: str, program: ConstraintProgram
    ) -> None:
        self.name = name
        self.source_hash = source_hash
        self.program = program
        self._ep: Optional[ConstraintProgram] = None

    def prepared(self, config: Configuration) -> ConstraintProgram:
        if config.representation == "EP":
            if self._ep is None:
                self._ep = lower_to_explicit(self.program)
            return self._ep
        return self.program

    def seed_ep(self, ep_program: ConstraintProgram) -> None:
        """Reuse an EP twin the caller already materialised."""
        self._ep = ep_program


#: per-process memo: source hash → derived FileContext.  Lives in module
#: scope so every task executed in one worker process shares it.
_CONTEXTS: Dict[str, FileContext] = {}


def reset_contexts() -> None:
    """Drop all memoised file contexts (tests / memory pressure)."""
    _CONTEXTS.clear()


def context_for(task: SolveTask) -> FileContext:
    """The (memoised) derived state for ``task``'s translation unit."""
    ctx = _CONTEXTS.get(task.source_hash)
    if ctx is None:
        if task.source_kind == "lir":
            from ..interchange import parse_constraint_text

            program = parse_constraint_text(task.source, task.file_name)
        else:
            from ..analysis.frontend import build_constraints
            from ..bench.corpus import generate_c_source
            from ..frontend import compile_c

            source = task.source
            if source is None:
                source = generate_c_source(task.spec)
            module = compile_c(source, task.file_name)
            program = build_constraints(module).program
        ctx = FileContext(task.file_name, task.source_hash, program)
        _CONTEXTS[task.source_hash] = ctx
    return ctx


def execute_task(
    task: SolveTask, context: Optional[FileContext] = None
) -> TaskResult:
    """Solve one task; the worker entry point (and the in-process path).

    Mirrors the historical serial runner exactly: one untimed solve
    produces the solution (and, under wall timing, warms the path),
    then ``time_callable`` measures ``repetitions`` further solves.
    """
    from ..bench.timing import time_callable

    reg = None
    if task.profile:
        from ..obs import Registry, record_solver_stats

        reg = Registry()
    if reg is not None:
        with reg.scope("task.derive"):
            ctx = context if context is not None else context_for(task)
            config = task.configuration()
            prepared = ctx.prepared(config)
        with reg.scope("task.solve"):
            solution: Solution = solve_prepared(prepared, config)
    else:
        ctx = context if context is not None else context_for(task)
        config = task.configuration()
        prepared = ctx.prepared(config)
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
