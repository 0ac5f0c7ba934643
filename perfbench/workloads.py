"""The three workloads: one C project from source to answer.

Every workload runs on the full-scale 557.xz project (89 translation
units) made by ``repro.bench.corpus.plan_profile_program``.  The
program is generated at a fixed generator seed (``PROGRAM_SEED``, 0),
the build whose joint program has 18,806 variables and 22,852
constraints; ``--seed`` draws the inputs that vary between runs: the
link order of the units (every workload) and the edit and query script
of the served session.  The generator seed changes the program's size
by up to a third (18.8k to 24.9k joint variables over seeds 0 to 5),
which would swamp any regression bound.

Each workload has a set-up (timed several times, reported as the
median), a measured loop of iterations run for ``--seconds``, and a
correctness reference computed outside every timed region: the same
sources solved with ``IP+Naive``, the paper's reference algorithm.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .layers import (
    CONFIG_LABELS,
    PIPELINE_COUNTERS,
    PIPELINE_STAGES,
    REFERENCE_CONFIG,
    SOLVER_COUNTERS,
    layer_values,
)
from .tracer import Tracer

WORKLOADS = ("xz-cold", "xz-configs", "xz-serve-edits")
#: set-ups per run; ``xz-cold``'s set-up only writes sources (~50 ms),
#: so it affords more samples of its noisy median
SETUPS = {"xz-cold": 15, "xz-configs": 3, "xz-serve-edits": 3}


#: the program's generator seed and instruction scale (see above)
PROGRAM_SEED = 0
SIZE_SCALE = 0.02
#: untraced iterations per run at least (and as many traced ones)
MIN_ITERATIONS = 3


@dataclass
class Options:
    workload: str
    seed: int
    seconds: float
    workdir: Path
    #: set-ups per run; ``setup_s`` is their median
    setups: int
    profile: str = "557.xz"
    files_scale: float = 1.0
    #: served point reads at least, so ten or more lie above p90
    min_reads: int = 110


@dataclass
class Run:
    """Everything one benchmark run measured."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    untraced: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    #: per traced iteration: per-layer values
    layers: List[Dict[str, float]] = field(default_factory=list)
    #: per traced iteration: self time of the harness's root spans
    unattributed: List[float] = field(default_factory=list)
    #: summed self time per span name over the traced iterations
    self_table: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: per iteration: work counters that must repeat exactly
    counters: List[Dict] = field(default_factory=list)
    #: latency samples by request kind (untraced iterations only)
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    peak_rss_mb: float = 0.0
    #: workload-specific figures (e.g. ``cold_analysis_s``)
    details: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Timer:
    """Wall time of one timed region; with a tracer, also its root span."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        self._span = None
        if self.tracer is not None:
            self._span = self.tracer.span("harness")
            self._span.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        if self._span is not None:
            self._span.__exit__(*exc)
        self.elapsed = time.perf_counter() - self._t0


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer], label: str = ""):
    """Install ``tracer``'s wrappers for the block (no-op without one)."""
    if tracer is None:
        yield
        return
    tracer.label = label
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Program:
    #: (file name, C text) in the seeded link order
    files: List[Tuple[str, str]]
    #: file name → the unit's symbol prefix (``u12_``)
    prefix: Dict[str, str]
    #: file name → units it imports from (its link neighbours)
    neighbours: Dict[str, List[str]]


def make_program(opts: Options) -> Program:
    from repro.bench.corpus import PROFILES, generate_c_source, plan_profile_program

    specs = plan_profile_program(
        PROFILES[opts.profile],
        files_scale=opts.files_scale,
        size_scale=SIZE_SCALE,
        seed=PROGRAM_SEED,
    )
    file_of = {spec.prefix: Path(spec.name).name for spec in specs}
    files, prefix, neighbours = [], {}, {}
    for spec in specs:
        name = Path(spec.name).name
        files.append((name, generate_c_source(spec)))
        prefix[name] = spec.prefix
        imported = [fn for fn, _ in spec.sibling_fns] + list(spec.sibling_ptr_globals)
        neighbours[name] = sorted(
            {file_of[sym.split("_", 1)[0] + "_"] for sym in imported} - {name}
        )
    random.Random(opts.seed).shuffle(files)
    return Program(files, prefix, neighbours)


def link_sources(files: List[Tuple[str, str]]):
    """Frontend plus link through a fresh pipeline → LinkedProgram."""
    from repro.pipeline import Pipeline

    pipeline = Pipeline()
    members = [pipeline.constraints(pipeline.source(n, t)) for n, t in files]
    return pipeline.link(members).linked


def reference_solution(program):
    """``IP+Naive`` over ``program``: the answer every config must give."""
    from repro.analysis.config import parse_name, prepare_program, solve_prepared

    config = parse_name(REFERENCE_CONFIG)
    return solve_prepared(prepare_program(program, config), config)


def memory_answer(solution) -> Tuple[Dict, frozenset]:
    """Sol of every memory location, and E: the named canonical content."""
    in_m = solution.program.in_m
    return (
        {p: solution.points_to(p) for p in solution.pointers() if in_m[p]},
        solution.external,
    )


def timed_setups(opts: Options, run: Run, setup: Callable[[], object]):
    """Run ``setup`` ``opts.setups`` times; keep the last result."""
    result = None
    for _ in range(opts.setups):
        result = None
        gc.collect()
        t0 = time.perf_counter()
        result = setup()
        run.setup.append(time.perf_counter() - t0)
    return result


def measure(
    opts: Options,
    run: Run,
    tracer: Optional[Tracer],
    step: Callable[[int, Optional[Tracer]], Tuple[float, Dict]],
    enough: Callable[[], bool] = lambda: True,
) -> None:
    """Iterate ``step`` for ``opts.seconds`` (and the minimum counts).

    With a tracer, iterations alternate untraced / traced, so the
    traced run also measures the untraced end-to-end time it is
    compared with.  ``step`` returns the iteration's timed seconds and
    the work counters it observed from outside the layers.
    """
    start = time.perf_counter()
    i = 0
    needed = MIN_ITERATIONS * (2 if tracer is not None else 1)
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.reset()
        elapsed, counters = step(i, tracer if traced else None)
        if traced:
            values = layer_values(tracer)
            values.update(counters)
            run.layers.append(values)
            run.traced.append(elapsed)
            run.unattributed.append(tracer.self_s.get("harness", 0.0))
            for name, seconds in tracer.self_s.items():
                run.self_table[name] += seconds
        else:
            run.untraced.append(elapsed)
            run.counters.append(counters)
        i += 1
        if (
            i >= needed
            and time.perf_counter() - start >= opts.seconds
            and enough()
        ):
            break
    run.peak_rss_mb = peak_rss_mb()


def pipeline_counts(pipeline) -> Dict[str, int]:
    return {
        f"pipeline.{stage}.{key}": getattr(pipeline.stats[stage], key)
        for stage in PIPELINE_STAGES
        for key in PIPELINE_COUNTERS
    }


# ----------------------------------------------------------------------
# xz-cold: ``repro link <files> --jobs 2 --out report.json``, in-process
# ----------------------------------------------------------------------


def run_cold(opts: Options, run: Run, tracer: Optional[Tracer]) -> None:
    import repro.__main__ as cli

    src_dir = opts.workdir / "src"

    def setup() -> List[str]:
        shutil.rmtree(src_dir, ignore_errors=True)
        src_dir.mkdir(parents=True)
        paths = []
        for name, text in make_program(opts).files:
            path = src_dir / name
            path.write_text(text)
            paths.append(str(path))
        return paths

    paths = timed_setups(opts, run, setup)
    files = [(Path(p).name, Path(p).read_text()) for p in paths]
    expected = reference_solution(link_sources(files).program).named_canonical_digest()
    out = opts.workdir / "report.json"
    argv = ["link", *paths, "--jobs", "2", "--out", str(out)]

    with open(os.devnull, "w") as devnull:

        def step(i: int, tr: Optional[Tracer]):
            if out.exists():
                out.unlink()
            gc.collect()
            with tracing(tr, "fifo-pip"), contextlib.redirect_stdout(devnull):
                with Timer(tr) as timer:
                    status = cli.main(argv)
            report = json.loads(out.read_text()) if status == 0 else None
            if report is None:
                run.check(False, f"iteration {i}: repro link exited {status}")
                return timer.elapsed, {}
            blob = json.dumps(
                report["solution"], sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            run.check(
                hashlib.sha256(blob).hexdigest() == expected,
                f"iteration {i}: report solution differs from {REFERENCE_CONFIG}",
            )
            counters = {
                f"pipeline.{stage}.{key}": report["stages"][stage][key]
                for stage in PIPELINE_STAGES
                for key in PIPELINE_COUNTERS
            }
            counters["encode.report_bytes"] = len(blob)
            for key in ("joint_vars", "joint_constraints", "resolved_imports"):
                counters[f"link.{key}"] = report["link"][key]
            return timer.elapsed, counters

        measure(opts, run, tracer, step)
    out.unlink(missing_ok=True)
    run.details["cold_analysis_s"] = statistics.median(run.untraced)


# ----------------------------------------------------------------------
# xz-configs: the Table V solver configurations on the prebuilt program
# ----------------------------------------------------------------------


def run_configs(opts: Options, run: Run, tracer: Optional[Tracer]) -> None:
    import repro.analysis.config as config_mod
    from repro.analysis.constraints import ConstraintProgram

    files = make_program(opts).files
    linked = timed_setups(opts, run, lambda: link_sources(files))
    encoded = linked.program.to_dict()
    del linked
    expected = reference_solution(ConstraintProgram.from_dict(encoded))
    expected_memory = memory_answer(expected)
    configs = [(label, config_mod.parse_name(name)) for label, name in CONFIG_LABELS.items()]

    def step(i: int, tr: Optional[Tracer]):
        total = 0.0
        counters: Dict = {}
        for label, config in configs:
            # A freshly decoded program per solve: the offline reduction
            # is memoised against the program object.
            program = ConstraintProgram.from_dict(encoded)
            gc.collect()
            with tracing(tr, label):
                with Timer(tr) as timer:
                    solution = config_mod.solve_prepared(
                        config_mod.prepare_program(program, config), config
                    )
            total += timer.elapsed
            # Reduce may widen never-read registers it folded into their
            # target; it guarantees the memory locations' answer only.
            if config.reduce:
                same = memory_answer(solution) == expected_memory
            else:
                same = solution == expected
            run.check(same, f"iteration {i}: {label} differs from {REFERENCE_CONFIG}")
            for key in SOLVER_COUNTERS:
                counters[f"solve.{label}.{key}"] = getattr(solution.stats, key)
        return total, counters

    measure(opts, run, tracer, step)
    run.details["config_sweep_s"] = statistics.median(run.untraced)


# ----------------------------------------------------------------------
# xz-serve-edits: one closed-loop editor client on the analysis server
# ----------------------------------------------------------------------


class EditSession:
    """The seeded edit-and-read script of one served session."""

    def __init__(self, opts: Options, program: Program, snapshot) -> None:
        self.rng = random.Random(f"serve-edits/{opts.seed}")
        self.program = program
        self.original = dict(program.files)
        self.texts = dict(program.files)
        self.names = sorted(self.texts)
        # point-read targets: memory locations with a unique name, by unit
        joint = snapshot.linked.program
        seen = Counter(joint.var_names)
        unit_of = {prefix: name for name, prefix in program.prefix.items()}
        self.locations: Dict[str, List[str]] = defaultdict(list)
        for v, var in enumerate(joint.var_names):
            unit = unit_of.get(var.split("_", 1)[0] + "_")
            if unit is not None and joint.in_m[v] and seen[var] == 1:
                self.locations[unit].append(var)
        self._functions: Dict[str, List[Tuple[str, int]]] = {}

    def functions(self, name: str) -> List[Tuple[str, int]]:
        """(function, memory accesses) of one unit; edits never add any."""
        if name not in self._functions:
            from repro.alias import memory_accesses
            from repro.frontend import compile_c

            module = compile_c(self.original[name], name)
            found = []
            for fn in sorted(module.defined_functions(), key=lambda f: f.name):
                accesses = sum(1 for _ in memory_accesses(fn))
                if accesses:
                    found.append((fn.name, accesses))
            self._functions[name] = found
        return self._functions[name]

    def round(self, index: int) -> List[Tuple[str, Dict]]:
        """update, then a burst of point reads, then an escape audit."""
        rng = self.rng
        name = rng.choice(self.names)
        prefix = self.program.prefix[name]
        self.texts[name] += f"\nint *{prefix}edit{index};\n"
        neighbours = self.program.neighbours[name]
        units = [name] + rng.sample(neighbours, min(3, len(neighbours)))
        reads: List[Tuple[str, Dict]] = []
        for unit in units:
            for var in rng.sample(self.locations[unit], min(3, len(self.locations[unit]))):
                reads.append(("points_to", {"var": var}))
            functions = self.functions(unit)
            if functions:
                for _ in range(3):
                    fn, accesses = rng.choice(functions)
                    reads.append(
                        (
                            "may_alias",
                            {
                                "member": unit,
                                "function": fn,
                                "a": rng.randrange(accesses),
                                "b": rng.randrange(accesses),
                            },
                        )
                    )
                fn, _ = rng.choice(functions)
                reads.append(("conflict_rate", {"member": unit, "function": fn}))
            reads.append(("callgraph", {"member": unit}))
        reads.append(("classify", {}))
        # a third of the burst asks again: the memo answers those
        reads += rng.sample(reads, len(reads) // 3)
        return (
            [("update", {"files": {name: self.texts[name]}})]
            + reads
            + [("audit", {"client": "escape"})]
        )


def run_serve(opts: Options, run: Run, tracer: Optional[Tracer]) -> None:
    from repro.analysis.config import parse_name
    from repro.serve import AnalysisServer, InProcessClient, Project

    program = make_program(opts)

    def setup():
        server = AnalysisServer(workers=1)
        client = InProcessClient(server)
        client.call("open", {"files": dict(program.files)})
        return server, client

    server, client = timed_setups(opts, run, setup)
    session = EditSession(opts, program, server.project.snapshot)
    last_round: List[Tuple[str, Dict, Dict]] = []

    def step(i: int, tr: Optional[Tracer]):
        requests = session.round(i)
        memo = server.memo
        hits, misses = memo.hits, memo.misses
        stages = pipeline_counts(server.project.pipeline)
        last_round.clear()
        total = 0.0
        gc.collect()
        with tracing(tr, "fifo-pip"):
            for method, params in requests:
                with Timer(tr) as timer:
                    response = client.request(method, params)
                total += timer.elapsed
                last_round.append((method, params, response))
                if tr is None:
                    kind = method if method in ("update", "audit") else "read"
                    run.samples[kind].append(timer.elapsed)
        for method, params, response in last_round:
            ok = response["ok"]
            if ok and method == "update":
                ok = response["result"]["stages"]["constraints"]["runs"] == 1
            run.check(ok, f"round {i}: {method} failed")
        looked_up = memo.hits - hits + memo.misses - misses
        counters = {
            key: value - stages[key]
            for key, value in pipeline_counts(server.project.pipeline).items()
        }
        counters["serve.memo_hit_rate"] = (memo.hits - hits) / max(1, looked_up)
        if tr is not None:
            counters["encode.report_bytes"] = sum(
                len(json.dumps(r.get("result"), sort_keys=True)) for _, _, r in last_round
            )
        return total, counters

    measure(opts, run, tracer, step, enough=lambda: len(run.samples["read"]) >= opts.min_reads)

    # The reference for the final generation: a server whose project
    # holds the final linked program solved with IP+Naive, asked the
    # same final round.
    final = server.project.snapshot
    oracle = Project(config=parse_name(REFERENCE_CONFIG))
    oracle.restore(
        final.sources,
        final.members,
        final.linked,
        reference_solution(final.linked.program),
        final.generation,
    )
    ref_client = InProcessClient(AnalysisServer(project=oracle, workers=1))
    for method, params, response in last_round[1:]:
        answer = ref_client.request(method, params)
        if response["ok"] and not (
            answer["ok"] and answer["result"] == response["result"]
        ):
            # already counted as attempted in its round
            run.failed += 1
            run.problems.append(
                f"final generation: {method} {params} differs from {REFERENCE_CONFIG}"
            )

    reads = run.samples["read"]
    p90 = statistics.quantiles(reads, n=10)[-1]
    run.details.update(
        {
            "update_p50_s": statistics.median(run.samples["update"]),
            "query_p50_s": statistics.median(reads),
            "query_p90_s": p90,
            "audit_p50_s": statistics.median(run.samples["audit"]),
            "session_s": sum(run.untraced),
            "update.samples": len(run.samples["update"]),
            "query.samples": len(reads),
            "query.above_p90": sum(1 for x in reads if x > p90),
            "audit.samples": len(run.samples["audit"]),
        }
    )


RUNNERS = {
    "xz-cold": run_cold,
    "xz-configs": run_configs,
    "xz-serve-edits": run_serve,
}
