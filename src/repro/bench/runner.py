"""Experiment runner: solve every corpus file under every configuration,
validating that all configurations agree, and collect runtimes and
explicit-pointee counts (the inputs to Tables V/VI and Fig. 10).

Execution goes through :mod:`repro.driver`: (file, configuration) pairs
become compact tasks fanned out over ``--jobs`` worker processes, with
results merged in submission order (so any job count reports
identically) and optionally memoised in the on-disk ``.repro-cache/``.
Run as a module for the CLI::

    python -m repro.bench.runner --jobs 4 --cache [--out report.json]
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..driver import (
    DriverStats,
    FileContext,
    ResultCache,
    SolveTask,
    TaskResult,
    solve_tasks,
    source_digest,
    validate_agreement,
)
from ..obs import Registry, TraceWriter
from .suite import CorpusFile

#: the named configurations of Table V
TABLE5_CONFIGS = [
    "EP+OVS+WL(LRF)+OCD",
    "IP+WL(FIFO)+LCD+DP",
    "IP+WL(FIFO)",
    "IP+WL(FIFO)+PIP",
]

#: the configurations the EP Oracle may pick from.  The paper's oracle
#: ranges over every EP configuration; we use a representative slice
#: covering both solvers, OVS, the orders, and the cycle techniques.
EP_ORACLE_CONFIGS = [
    "EP+Naive",
    "EP+OVS+Naive",
    "EP+WL(FIFO)",
    "EP+WL(LIFO)",
    "EP+WL(LRF)",
    "EP+OVS+WL(FIFO)",
    "EP+OVS+WL(LRF)+OCD",
    "EP+WL(FIFO)+LCD+DP",
    "EP+WL(LRF)+HCD+LCD",
]

#: the configurations of Table VI
TABLE6_CONFIGS = [
    "EP+OVS+WL(LRF)+OCD",
    "IP+WL(FIFO)",
    "IP+WL(FIFO)+LCD+DP",
    "IP+WL(FIFO)+PIP",
]


@dataclass
class FileRun:
    """One (file, configuration) measurement."""

    file: str
    profile: str
    config: str
    runtime_s: float
    explicit_pointees: int


@dataclass
class RunResults:
    """All measurements plus per-file metadata."""

    runs: List[FileRun] = field(default_factory=list)
    #: per-file, per-config runtime: runtimes[config][file]
    runtimes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    pointees: Dict[str, Dict[str, int]] = field(default_factory=dict)
    profiles_of: Dict[str, str] = field(default_factory=dict)
    #: accounting of the driver run that produced these results (cache
    #: hit/miss counters, job count); never part of :meth:`to_json` —
    #: the canonical report must be identical between cold and warm runs
    driver: Optional[DriverStats] = None
    #: merged obs registry (``Registry.to_dict()``) when the run was
    #: profiled; None — and absent from :meth:`to_json` — otherwise, so
    #: unprofiled reports are byte-identical to pre-obs ones
    metrics: Optional[Dict] = None

    def record(self, run: FileRun) -> None:
        self.runs.append(run)
        self.runtimes.setdefault(run.config, {})[run.file] = run.runtime_s
        self.pointees.setdefault(run.config, {})[run.file] = run.explicit_pointees
        self.profiles_of[run.file] = run.profile

    def runtime_values(self, config: str) -> List[float]:
        return list(self.runtimes[config].values())

    def oracle_runtimes(self, configs: Sequence[str]) -> Dict[str, float]:
        """Per-file minimum over the given configurations (the Oracle)."""
        files = self.runtimes[configs[0]].keys()
        return {
            f: min(self.runtimes[c][f] for c in configs if f in self.runtimes[c])
            for f in files
        }

    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Canonical report JSON: the run list in recorded (task) order.

        Fully deterministic — byte-identical across job counts and
        across cold/warm cache runs (driver accounting is deliberately
        excluded; see :attr:`driver`).
        """
        payload = {
            "schema": 1,
            "runs": [dataclasses.asdict(run) for run in self.runs],
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunResults":
        payload = json.loads(text)
        results = cls()
        for run in payload["runs"]:
            results.record(FileRun(**run))
        return results


def _profile_of(file: CorpusFile) -> str:
    return file.spec.name.split("/")[0]


def build_tasks(
    files: Sequence[CorpusFile],
    config_names: Sequence[str],
    repetitions: int = 3,
    pts_backend: Optional[str] = None,
    timing: str = "wall",
) -> List[SolveTask]:
    """The (file, configuration) task list in canonical file-major order.

    Tasks carry the corpus :class:`FileSpec` (not the built program), so
    worker processes re-derive phase-1 state themselves; the in-process
    path is seeded with the already-built programs via
    :func:`build_contexts`.
    """
    tasks: List[SolveTask] = []
    for file in files:
        digest = source_digest(file.source)
        for name in config_names:
            tasks.append(
                SolveTask(
                    index=len(tasks),
                    file_name=file.spec.name,
                    source_hash=digest,
                    config_name=name,
                    spec=file.spec,
                    pts_backend=pts_backend,
                    repetitions=repetitions,
                    timing=timing,
                )
            )
    return tasks


def build_contexts(files: Sequence[CorpusFile]) -> Dict[str, FileContext]:
    """Seed driver contexts from already-built corpus files (jobs=1)."""
    contexts: Dict[str, FileContext] = {}
    for file in files:
        context = FileContext(
            file.spec.name, source_digest(file.source), file.program
        )
        if file._ep_program is not None:
            context.seed_ep(file._ep_program)
        contexts[context.source_hash] = context
    return contexts


def run_experiment(
    files: Iterable[CorpusFile],
    config_names: Sequence[str],
    repetitions: int = 3,
    validate: bool = True,
    pts_backend: Optional[str] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timing: str = "wall",
    registry: Optional[Registry] = None,
    trace: Optional[TraceWriter] = None,
) -> RunResults:
    """Measure solver runtime for each (file, configuration) pair.

    The timed region is ``solve_prepared`` only — the paper's phase 2.
    When ``validate`` is set, every configuration's solution is compared
    against the first configuration's (paper §V-A).  ``pts_backend``
    overrides the points-to-set representation of every configuration
    (results are keyed by the *given* names regardless).  ``jobs`` fans
    tasks out over worker processes; ``cache`` memoises solved results
    on disk; ``timing`` is ``"wall"`` (measured) or ``"cost"``
    (deterministic work-counter pseudo-time).  Results are recorded in
    file-major task order for every job count.

    An enabled ``registry`` profiles the run (its merged snapshot lands
    on :attr:`RunResults.metrics`); ``trace`` receives one ``solve``
    event per task.  Neither changes solutions, runtimes or cache keys.
    """
    files = list(files)
    tasks = build_tasks(
        files, config_names, repetitions, pts_backend, timing
    )
    contexts = build_contexts(files) if jobs == 1 else None
    task_results, driver_stats = solve_tasks(
        tasks,
        jobs=jobs,
        cache=cache,
        contexts=contexts,
        registry=registry,
        trace=trace,
    )
    if validate:
        validate_agreement(task_results, tasks, contexts)

    profiles = {file.spec.name: _profile_of(file) for file in files}
    results = RunResults(driver=driver_stats)
    if registry is not None and registry.enabled:
        results.metrics = registry.to_dict()
    for result in task_results:
        results.record(
            FileRun(
                result.file_name,
                profiles[result.file_name],
                result.config_name,
                result.runtime_s,
                result.explicit_pointees,
            )
        )
    return results


# ----------------------------------------------------------------------
# CLI: python -m repro.bench.runner
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import pathlib
    import time

    from ..__main__ import _configuration, _positive_int
    from .report import table5, table6
    from .suite import build_corpus, flatten

    parser = argparse.ArgumentParser(
        description="Parallel cached corpus experiment runner"
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes"
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memoise solved results under --cache-dir (default: on)",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=pathlib.Path(".repro-cache")
    )
    parser.add_argument(
        "--cache-max-entries", type=_positive_int, default=None, metavar="N",
        help="bound each cache namespace to N entries (LRU eviction;"
        " default: unbounded)",
    )
    parser.add_argument(
        "--configs", nargs="*", type=_configuration, default=[],
        help=f"configuration names (default: {' '.join(TABLE5_CONFIGS)})",
    )
    parser.add_argument("--profiles", nargs="*", default=None)
    parser.add_argument("--files-scale", type=float, default=0.012)
    parser.add_argument("--size-scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repetitions", type=_positive_int, default=3)
    parser.add_argument(
        "--pts-backend", choices=("set", "bitset"), default=None
    )
    parser.add_argument(
        "--timing", choices=("wall", "cost"), default="wall",
        help="wall: measured runtime; cost: deterministic pseudo-time",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the canonical report JSON here",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect obs metrics (adds a 'metrics' block to --out)",
    )
    parser.add_argument(
        "--trace-out", type=pathlib.Path, default=None,
        help="write JSONL trace events here (implies --profile)",
    )
    parser.add_argument(
        "--ladder", type=int, default=0, metavar="N",
        help="also run the N-unit incremental-completeness ladder"
        " (staged pipeline, sharing this run's cache)",
    )
    parser.add_argument(
        "--ladder-size", type=int, default=50,
        help="statements per ladder translation unit",
    )
    parser.add_argument(
        "--ladder-out", type=pathlib.Path, default=None,
        help="write the full ladder report (incl. per-stage timings) here",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    corpus = build_corpus(
        files_scale=args.files_scale,
        size_scale=args.size_scale,
        seed=args.seed,
        profiles=args.profiles,
    )
    files = flatten(corpus)
    print(f"corpus: {len(files)} files built in {time.time() - t0:.0f}s")

    cache = (
        ResultCache(args.cache_dir, max_entries=args.cache_max_entries)
        if args.cache
        else None
    )
    profiling = args.profile or args.trace_out is not None
    registry = Registry() if profiling else None
    trace = (
        TraceWriter(args.trace_out) if args.trace_out is not None else None
    )
    t0 = time.time()
    try:
        results = run_experiment(
            files,
            [config.name for config in args.configs] or TABLE5_CONFIGS,
            repetitions=args.repetitions,
            pts_backend=args.pts_backend,
            jobs=args.jobs,
            cache=cache,
            timing=args.timing,
            registry=registry,
            trace=trace,
        )
        if trace is not None:
            trace.emit("metrics", "run", registry.to_dict())
    finally:
        if trace is not None:
            trace.close()
    print(f"{len(results.runs)} runs in {time.time() - t0:.1f}s")
    print(results.driver)
    if registry is not None:
        print(
            f"profile: {registry.counter('solver.solves')} solves,"
            f" {registry.counter('solver.visits')} visits,"
            f" {registry.counter('solver.propagations')} propagations,"
            f" {registry.counter('solver.pair_evals')} pair evals"
        )
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    print()
    print(table5(results))
    print()
    print(table6(results, TABLE6_CONFIGS))
    if args.out is not None:
        args.out.write_text(results.to_json() + "\n")
        print(f"\nwrote {args.out}")

    if args.ladder > 0:
        from ..analysis.config import parse_name
        from .corpus import ProgramSpec
        from .ladder import (
            DEFAULT_CONFIG_NAME,
            check_monotone,
            format_table,
            run_ladder,
        )

        spec = ProgramSpec(
            name=f"ladder-{args.ladder}x{args.ladder_size}",
            seed=args.seed,
            n_units=args.ladder,
            unit_size=args.ladder_size,
        )
        ladder_config = (
            args.configs[0] if args.configs else parse_name(DEFAULT_CONFIG_NAME)
        )
        report = run_ladder(spec, ladder_config, cache=cache)
        print(f"\nincremental completeness ({spec.name},"
              f" {ladder_config.name}):")
        print(format_table(report))
        for problem in check_monotone(report["rungs"]):
            print(f"warning: {problem}")
        stage_lines = ", ".join(
            f"{stage} {stats['seconds']:.3f}s"
            f" ({stats['runs']}r/{stats['hits']}h)"
            for stage, stats in report["stages"].items()
        )
        print(f"stages: {stage_lines}")
        if args.ladder_out is not None:
            args.ladder_out.write_text(
                json.dumps(report, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            print(f"wrote {args.ladder_out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
