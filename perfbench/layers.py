"""Which entry points the traced run wraps, and the per-layer metrics.

Layer names follow the modules of ``src/repro``.  Each wrapper is
installed from here, around a public entry point; nothing inside the
package changes.  Time metrics ending in ``self_s`` are self times
(span minus child spans); the others are a span's whole duration, used
where a layer has no wrapped children or where the issue names the
inclusive time (``serve.update_s``, ``serve.evaluate.*``,
``audit.run_s``).  The self times of *all* spans, listed or not, add up
to the traced end-to-end time; ``trace.accounted_share`` reports that.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracer import Tracer

#: solver configuration labels → configuration names (paper Table V)
CONFIG_LABELS: Dict[str, str] = {
    "fifo-pip": "IP+WL(FIFO)+PIP",
    "ocd": "IP+OVS+WL(LRF)+OCD+PIP+PTS(bitset)",
    "hcd-lcd": "IP+WL(LRF)+HCD+LCD+PIP+PTS(bitset)",
    "reduce": "IP+Reduce+WL(FIFO)+PIP+PTS(bitset)",
}
#: the labels whose configuration runs a cycle detector
DETECTOR_LABELS = ("ocd", "hcd-lcd")
#: the correctness reference: the paper's naive algorithm
REFERENCE_CONFIG = "IP+Naive"

SOLVER_COUNTERS = (
    "visits",
    "propagations",
    "pair_evals",
    "edges_added",
    "unifications",
    "memo_hits",
    "shared_sets",
)
PIPELINE_STAGES = ("parse", "lower", "constraints", "link", "solve")
PIPELINE_COUNTERS = ("runs", "hits", "memo_hits")
#: the serve query methods the edit session asks
EVALUATED = ("points_to", "may_alias", "callgraph", "conflict_rate", "classify", "audit")
DETECTOR_HOOKS = (
    "attach",
    "before_solve",
    "on_visit",
    "on_equal_propagation",
    "on_union",
)

#: per-layer time metrics: (metric, "self" | "total", span names)
TIME_METRICS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("cli.self_s", "self", ("cli",)),
    ("parse.self_s", "self", ("parse",)),
    ("lower.self_s", "self", ("lower",)),
    ("constraints.self_s", "self", ("constraints",)),
    ("link.s", "total", ("link",)),
    ("prepare.s", "total", ("prepare",)),
    ("reduce.s", "total", ("reduce",)),
    ("ovs.s", "total", ("ovs",)),
]
for _c in CONFIG_LABELS:
    TIME_METRICS += [
        (f"solve.{_c}.init_s", "self", (f"solve.{_c}.init",)),
        (f"solve.{_c}.loop_s", "self", (f"solve.{_c}.loop",)),
        (f"solve.{_c}.extract_s", "self", (f"solve.{_c}.extract",)),
    ]
for _c in DETECTOR_LABELS:
    TIME_METRICS.append(
        (f"cycles.{_c}.hook_s", "self", (f"cycles.{_c}.hook", f"cycles.{_c}.new_edge"))
    )
TIME_METRICS += [
    ("encode.canonical_s", "self", ("encode.canonical",)),
    ("encode.decode_s", "self", ("encode.decode",)),
    ("encode.named_s", "self", ("encode.named",)),
    ("encode.digest_s", "self", ("encode.digest",)),
    ("encode.program_digest_s", "self", ("encode.program_digest",)),
    ("serve.client_self_s", "self", ("serve.client",)),
    ("serve.handle_self_s", "self", ("serve.handle",)),
    ("serve.update_s", "total", ("serve.update",)),
]
TIME_METRICS += [
    (f"serve.evaluate.{m}_s", "total", (f"serve.evaluate.{m}",)) for m in EVALUATED
]
TIME_METRICS.append(("audit.run_s", "total", ("audit.run",)))

#: every per-layer metric the traced run prints, with its unit
PER_LAYER: List[Tuple[str, str]] = [(name, "s") for name, _, _ in TIME_METRICS]
PER_LAYER += [
    ("parse.units", "count"),
    ("lower.ir_insts", "count"),
    ("constraints.vars", "count"),
    ("constraints.count", "count"),
    ("link.joint_vars", "count"),
    ("link.joint_constraints", "count"),
    ("link.resolved_imports", "count"),
]
PER_LAYER += [(f"cycles.{c}.new_edge_calls", "count") for c in DETECTOR_LABELS]
PER_LAYER += [
    (f"solve.{c}.{k}", "count") for c in CONFIG_LABELS for k in SOLVER_COUNTERS
]
PER_LAYER += [
    ("encode.report_bytes", "bytes"),
    ("encode.entries", "count"),
]
PER_LAYER += [
    (f"pipeline.{s}.{k}", "count") for s in PIPELINE_STAGES for k in PIPELINE_COUNTERS
]
PER_LAYER += [
    ("serve.memo_hit_rate", "ratio"),
    ("audit.findings", "count"),
    # the workload-specific end-to-end figures, from the untraced
    # iterations of the traced run, with their sample counts
    ("cold_analysis_s", "s"),
    ("config_sweep_s", "s"),
    ("update_p50_s", "s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("audit_p50_s", "s"),
    ("session_s", "s"),
    ("update.samples", "count"),
    ("query.samples", "count"),
    ("query.above_p90", "count"),
    ("audit.samples", "count"),
    ("failure_rate", "ratio"),
    ("host.cpu_count", "count"),
    ("trace.iteration_untraced_s", "s"),
    ("trace.iteration_traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.accounted_share", "ratio"),
]

#: end-to-end metrics: (name, unit); every workload reports all of them
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("iteration_s", "s"),
    ("peak_rss_mb", "MB"),
]


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


def _evaluated_method(args: tuple) -> str:
    # QueryEngine.evaluate(self, method, params)
    return f"serve.evaluate.{args[1]}"


def instrument(tracer: Tracer) -> Tracer:
    """Register every layer wrapper on ``tracer`` (not yet installed)."""
    import repro.__main__ as cli
    import repro.analysis.config as config
    import repro.analysis.reduce as reduce_mod
    import repro.audit.base as audit_base
    import repro.frontend as frontend
    import repro.link as link
    from repro.analysis.constraints import ConstraintProgram
    from repro.analysis.solution import Solution
    from repro.analysis.solvers import cycles
    from repro.analysis.solvers.base import SolverState
    from repro.analysis.solvers.worklist import WorklistSolver
    from repro.pipeline import Pipeline
    from repro.serve.client import InProcessClient
    from repro.serve.project import Project
    from repro.serve.queries import QueryEngine
    from repro.serve.server import AnalysisServer

    keep_result = lambda args, result: result  # noqa: E731
    keep_self = lambda args, result: args[0]  # noqa: E731

    tracer.wrap_function(cli, "main", "cli")
    # repro.frontend
    tracer.wrap_method(Pipeline, "parse", "parse")
    # the parser proper runs only on a memo miss: one capture per unit
    tracer.wrap_function(frontend, "parse", "parse", capture=keep_self)
    tracer.wrap_method(Pipeline, "lower", "lower")
    # the lowering function runs only on a memo miss: its results are
    # the modules this iteration actually lowered
    tracer.wrap_function(frontend, "lower", "lower", capture=keep_result)
    # repro.analysis.frontend
    tracer.wrap_method(Pipeline, "constraints", "constraints", capture=keep_result)
    # repro.link
    tracer.wrap_function(link, "link_programs", "link", capture=keep_result)
    # repro.analysis.config / reduce / ovs
    tracer.wrap_function(config, "prepare_program", "prepare")
    tracer.wrap_function(config, "solve_prepared", "solve.{c}")
    tracer.wrap_function(reduce_mod, "reduce_program_cached", "reduce")
    tracer.wrap_function(config, "compute_ovs_groups", "ovs")
    # repro.analysis.solvers
    tracer.wrap_method(WorklistSolver, "__init__", "solve.{c}.init")
    tracer.wrap_method(cycles.HybridCycleDetection, "__init__", "solve.{c}.init")
    tracer.wrap_method(WorklistSolver, "solve", "solve.{c}.loop")
    tracer.wrap_method(
        SolverState, "extract_solution", "solve.{c}.extract", capture=keep_result
    )
    for cls in (
        cycles.CycleDetector,
        cycles.OnlineCycleDetection,
        cycles.HybridCycleDetection,
        cycles.LazyCycleDetection,
        cycles.CombinedDetector,
    ):
        # detector hooks fire per visit/edge: aggregate, don't keep spans
        for hook in DETECTOR_HOOKS:
            if hook in cls.__dict__:
                tracer.wrap_method(cls, hook, "cycles.{c}.hook", keep=False)
        if "on_new_edge" in cls.__dict__:
            tracer.wrap_method(cls, "on_new_edge", "cycles.{c}.new_edge", keep=False)
    # the joint program's content hash keys Pipeline.solve
    tracer.wrap_method(ConstraintProgram, "digest", "encode.program_digest")
    # repro.analysis.solution
    tracer.wrap_method(Solution, "to_canonical_dict", "encode.canonical")
    tracer.wrap_method(Solution, "from_canonical_dict", "encode.decode")
    tracer.wrap_method(
        Solution, "to_named_canonical", "encode.named", capture=keep_result
    )
    tracer.wrap_method(
        Solution, "named_canonical_digest", "encode.digest", capture=keep_self
    )
    # repro.serve
    # the editor's side of a request: framing and decoding the reply
    tracer.wrap_method(InProcessClient, "request", "serve.client")
    tracer.wrap_method(AnalysisServer, "handle_line", "serve.handle")
    tracer.wrap_method(Project, "update", "serve.update")
    tracer.wrap_method(QueryEngine, "evaluate", _evaluated_method)
    # repro.audit
    tracer.wrap_function(audit_base, "run_audit", "audit.run", capture=keep_result)
    return tracer


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values of one traced iteration, from the tracer's
    aggregates and captures (call :meth:`Tracer.reset` between)."""
    out: Dict[str, float] = {}
    for metric, kind, spans in TIME_METRICS:
        table = tracer.self_s if kind == "self" else tracer.total_s
        out[metric] = sum(table.get(name, 0.0) for name in spans)
    for c in DETECTOR_LABELS:
        out[f"cycles.{c}.new_edge_calls"] = tracer.calls.get(f"cycles.{c}.new_edge", 0)
    captured = tracer.captured
    out["parse.units"] = len(captured.get("parse", ()))
    out["lower.ir_insts"] = sum(
        sum(1 for fn in module.defined_functions() for _ in fn.instructions())
        for module in captured.get("lower", ())
    )
    built = [art for art in captured.get("constraints", ()) if not art.from_cache]
    out["constraints.vars"] = sum(art.program.num_vars for art in built)
    out["constraints.count"] = sum(art.program.num_constraints() for art in built)
    linked = captured.get("link", ())
    out["link.joint_vars"] = sum(lp.program.num_vars for lp in linked)
    out["link.joint_constraints"] = sum(lp.program.num_constraints() for lp in linked)
    out["link.resolved_imports"] = sum(len(lp.resolved_imports()) for lp in linked)
    for c in CONFIG_LABELS:
        solutions = captured.get(f"solve.{c}.extract", ())
        for key in SOLVER_COUNTERS:
            out[f"solve.{c}.{key}"] = sum(getattr(s.stats, key) for s in solutions)
    entries = sum(len(named["points_to"]) for named in captured.get("encode.named", ()))
    for solution in captured.get("encode.digest", ()):
        in_m = solution.program.in_m
        entries += sum(1 for p in solution.pointers() if in_m[p])
    out["encode.entries"] = entries
    out["audit.findings"] = sum(len(r.findings) for r in captured.get("audit.run", ()))
    return out
