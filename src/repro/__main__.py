"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile FILE``
    Compile a C file and print the textual IR.
``analyze FILE``
    Run the points-to analysis; print points-to sets and the escape
    report.  ``--config`` picks a solver configuration by name,
    ``--dump-constraints`` shows the phase-1 constraint program.
``sweep FILE``
    Solve one file under several configurations and report runtimes and
    explicit-pointee counts (validating identical solutions).
``link FILE...``
    Run the staged pipeline over several translation units, link their
    constraint programs cross-TU, and solve the joint program.
    ``--ladder`` additionally reports the k-of-N prefix ladder,
    ``--cache`` memoises every stage artifact on disk, and ``--out``
    writes the full report (link summary, solution, per-stage timings
    and cache counters) as JSON.
``serve [FILE...]``
    The persistent analysis server (``repro.serve``): builds the files
    into a linked project and answers NDJSON protocol requests over
    stdio (default) or ``--tcp HOST:PORT``.
``query FILE... -q REQUEST``
    One-shot queries against an in-process server — answers are
    byte-identical to a served session over the same sources.
``run ...``
    The corpus experiment runner (``repro.bench.runner``); all its
    arguments pass through, e.g. ``repro run --jobs 4 --profile``.
``constraints export FILE...``
    Export C sources as canonical LIR constraint text
    (``repro.interchange``): one file exports its TU constraint
    program, several export the linked joint program.
``constraints solve FILE...``
    Solve constraint-text files directly — the second front door that
    bypasses the C frontend.  ``--config``, ``--backend``, ``--reduce``
    and ``--jobs`` pass through to the existing solver stack.
``audit CLIENT FILE...``
    Run one scenario audit client (``escape``, ``races``, ``dangling``,
    ``calls``) over the linked+solved program; C and ``.lir`` members
    mix freely.  ``--format json``/``--out`` emit the canonical report,
    ``--evidence`` prints each finding's justification chain, and
    ``--cache`` memoises the report keyed on (solution digest, client,
    canonical params).
``configs``
    List all valid solver configurations.

``sweep``, ``link``, ``serve``, ``query`` and ``run`` accept
``--profile`` (collect obs metrics) and ``--trace-out FILE`` (JSONL
trace events; implies ``--profile``).  Profiling never changes
solutions or cache contents.  Caching commands accept
``--cache-max-entries N`` to bound each on-disk cache namespace with
LRU eviction.

Frontend failures (preprocessor, parse, sema, lowering) exit 1 with a
one-line ``file:line: message`` diagnostic instead of a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import List, Optional

from . import __version__
from .analysis import (
    DEFAULT_CONFIGURATION,
    Configuration,
    ConfigurationError,
    analyze_module,
    build_constraints,
    enumerate_configurations,
    parse_name,
)
from .frontend import FRONTEND_ERRORS, compile_c, describe_error
from .ir import print_module


def _obs_setup(args):
    """(registry, trace) from the shared --profile/--trace-out options."""
    from .obs import Registry, TraceWriter

    profiling = args.profile or args.trace_out is not None
    registry = Registry() if profiling else None
    trace = (
        TraceWriter(args.trace_out) if args.trace_out is not None else None
    )
    return registry, trace


def _add_obs_options(parser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="collect obs metrics (counters/timers) for this run",
    )
    parser.add_argument(
        "--trace-out", type=pathlib.Path, default=None,
        help="write JSONL trace events here (implies --profile)",
    )


def _positive_int(text: str) -> int:
    """argparse type for counts and sizes: an integer of at least 1.

    A zero or negative value is a usage error (exit 2), not a
    ValueError traceback from the constructor it would reach.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _configuration(text: str) -> Configuration:
    """argparse type for configuration names: the parsed Configuration.

    An unknown or invalid name is a usage error (exit 2), not a
    ConfigurationError traceback from the command it would reach.
    """
    try:
        return parse_name(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_config_option(parser) -> None:
    parser.add_argument(
        "--config", type=_configuration, default=DEFAULT_CONFIGURATION,
        help="e.g. IP+WL(FIFO)+PIP",
    )


def _add_backend_option(parser, *aliases: str) -> None:
    parser.add_argument(
        "--pts-backend", *aliases,
        dest="pts_backend",
        choices=("set", "bitset"),
        default=None,
        help="points-to-set representation (default: the configuration's,"
        " i.e. set)" + "".join(f"; {a} is an alias" for a in aliases),
    )


def _add_reduce_option(parser) -> None:
    parser.add_argument(
        "--reduce",
        action="store_true",
        help="apply the offline constraint reduction before solving",
    )


def _add_link_options(parser) -> None:
    parser.add_argument(
        "--internalize",
        action="store_true",
        help="treat the link set as the whole program (LTO-style):"
        " exported definitions outside --keep lose their linkage escape",
    )
    parser.add_argument(
        "--keep", default=None,
        help="comma-separated symbols kept external under --internalize"
        " (default: main)",
    )


def _solver_config(args, *, backend: bool = True) -> Configuration:
    """``--config`` with ``--reduce`` and, if ``backend``,
    ``--pts-backend`` applied."""
    config = args.config
    if backend and args.pts_backend:
        config = dataclasses.replace(config, pts=args.pts_backend)
    if args.reduce:
        config = dataclasses.replace(config, reduce=True)
    return config


def _link_options(args):
    from .link import LinkOptions

    return LinkOptions(
        internalize=args.internalize,
        keep=tuple(args.keep.split(",")) if args.keep else ("main",),
    )


def _result_cache(args):
    """The on-disk cache the ``--cache`` flags ask for, or None."""
    if not args.cache:
        return None
    from .driver import ResultCache

    return ResultCache(args.cache_dir, max_entries=args.cache_max_entries)


def _print_points_to(solution, var_names) -> None:
    """One ``Sol(p) = {...}`` line per pointer with a non-empty set."""
    for p in solution.pointers():
        targets = solution.points_to(p)
        if targets:
            names = sorted(map(str, solution.names(targets)))
            print(f"  Sol({var_names[p]}) = {{{', '.join(names)}}}")


def _write_text_atomic(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` without ever exposing a partial file.

    Same-directory temp file + ``os.replace`` (the ResultCache idiom):
    a failure mid-write — full disk, permissions — leaves nothing under
    the requested name, and the temp file is unlinked on the way out.
    """
    import os
    import tempfile

    path = pathlib.Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_module(path: str, headers_dir: Optional[str]):
    source = pathlib.Path(path).read_text()
    headers = {}
    if headers_dir:
        for header in pathlib.Path(headers_dir).glob("*.h"):
            headers[header.name] = header.read_text()
    try:
        return compile_c(source, pathlib.Path(path).name, headers=headers)
    except FRONTEND_ERRORS as exc:
        if getattr(exc, "source_name", None) is None:
            exc.source_name = pathlib.Path(path).name
        raise


def _member_constraints(pipeline, src):
    """``src``'s constraint artifact; a frontend error names the file.

    ``.lir`` members enter through the interchange front door, anything
    else through the C frontend.
    """
    try:
        if src.name.endswith(".lir"):
            return pipeline.constraints_from_text(src)
        return pipeline.constraints(src)
    except FRONTEND_ERRORS as exc:
        if getattr(exc, "source_name", None) is None:
            exc.source_name = src.name
        raise


def _link_failed(exc, trace) -> int:
    """Print a LinkError's diagnostics, close the trace, return 1."""
    for error in exc.errors:
        print(f"link error: {error}", file=sys.stderr)
    if trace is not None:
        trace.close()
    return 1


def cmd_compile(args) -> int:
    module = _load_module(args.file, args.include)
    print(print_module(module))
    return 0


def cmd_analyze(args) -> int:
    module = _load_module(args.file, args.include)
    config = _solver_config(args)
    result = analyze_module(module, config)
    program = result.built.program
    solution = result.solution
    if args.dump_constraints:
        print(program.dump())
        print()
    print(f"; {program.num_vars} constraint variables,"
          f" {program.num_constraints()} constraints,"
          f" configuration {config.name}")
    print("\nexternally accessible:")
    for name in sorted(map(str, solution.names(solution.external))):
        print(f"  {name}")
    print("\npoints-to sets:")
    _print_points_to(solution, program.var_names)
    return 0


def cmd_sweep(args) -> int:
    from .driver import (
        FileContext,
        SolveTask,
        solve_tasks,
        source_digest,
        validate_agreement,
    )

    path = pathlib.Path(args.file)
    source = path.read_text()
    names = [config.name for config in args.configs] or [
        "EP+Naive",
        "EP+OVS+WL(LRF)+OCD",
        "IP+WL(FIFO)",
        "IP+WL(FIFO)+LCD+DP",
        "IP+WL(FIFO)+PIP",
    ]
    if args.include and (args.jobs > 1 or args.cache):
        # Worker tasks carry only the raw source, and the cache key is
        # its content hash — neither sees --include headers, so header
        # changes would go unnoticed.  Stay serial and uncached.
        print("note: --include forces --jobs 1 --no-cache", file=sys.stderr)
        args.jobs, args.cache = 1, False
    digest = source_digest(source)
    tasks = [
        SolveTask(
            index=i,
            file_name=path.name,
            source_hash=digest,
            config_name=name,
            source=source,
            pts_backend=args.pts_backend,
            repetitions=1,
        )
        for i, name in enumerate(names)
    ]
    contexts = None
    if args.jobs <= 1:
        # Reuse the richer header-aware front end for the local path;
        # workers compile the raw source themselves.
        module = _load_module(args.file, args.include)
        built = build_constraints(module)
        contexts = {digest: FileContext(path.name, digest, built.program)}
    cache = _result_cache(args)
    registry, trace = _obs_setup(args)
    try:
        results, stats = solve_tasks(
            tasks,
            jobs=args.jobs,
            cache=cache,
            contexts=contexts,
            registry=registry,
            trace=trace,
        )
        if trace is not None:
            trace.emit("metrics", "sweep", registry.to_dict())
    finally:
        if trace is not None:
            trace.close()
    print(f"{'configuration':>24}  {'time':>10}  {'explicit pointees':>18}")
    for result in results:
        pointees = result.explicit_pointees
        print(f"{result.config_name:>24}  {1000 * result.runtime_s:8.2f}ms"
              f"  {pointees:18,d}")
    validate_agreement(results, tasks, contexts)
    print("\nall configurations produced the identical solution")
    if args.cache or args.jobs > 1:
        print(stats)
    if registry is not None:
        print(
            f"profile: {registry.counter('solver.solves')} solves,"
            f" {registry.counter('solver.visits')} visits,"
            f" {registry.counter('solver.propagations')} propagations,"
            f" {registry.counter('solver.pair_evals')} pair evals"
        )
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    return 0


def cmd_link(args) -> int:
    import json

    from .bench.ladder import format_table, ladder_over_members
    from .link import LinkError
    from .pipeline import Pipeline

    config = args.config
    options = _link_options(args)
    cache = _result_cache(args)
    registry, trace = _obs_setup(args)
    pipeline = Pipeline(cache=cache, registry=registry)

    sources = [
        pipeline.source(pathlib.Path(f).name, pathlib.Path(f).read_text())
        for f in args.files
    ]
    members = [_member_constraints(pipeline, src) for src in sources]
    try:
        linked = pipeline.link(members, options).linked
    except LinkError as exc:
        return _link_failed(exc, trace)
    solution = pipeline.solve(linked.program, config).solution
    if trace is not None:
        trace.emit("link", "+".join(src.name for src in sources),
                   linked.summary())
        for stage, stage_stats in pipeline.stage_report(timings=True).items():
            trace.emit("stage", stage, stage_stats)
        trace.emit("metrics", "link", registry.to_dict())
        trace.close()

    summary = linked.summary()
    print(f"; linked {len(sources)} modules:"
          f" {summary['joint_vars']} constraint variables,"
          f" {summary['joint_constraints']} constraints,"
          f" configuration {config.name}")
    resolved = linked.resolved_imports()
    unresolved = linked.unresolved_imports()
    print(f"; {len(resolved)} imports resolved across modules,"
          f" {len(unresolved)} still external")
    if resolved:
        print("\nresolved cross-module:")
        for name in resolved:
            res = linked.resolutions[name]
            refs = ", ".join(res.referenced_by)
            print(f"  {name}: defined in {res.defined_in},"
                  f" imported by {refs}")
    if unresolved:
        print("\nstill external (feed Ω):")
        for name in unresolved:
            print(f"  {name}")
    print("\nexternally accessible:")
    for name in sorted(map(str, solution.names(solution.external))):
        print(f"  {name}")
    if args.show_solution:
        print("\npoints-to sets:")
        _print_points_to(solution, linked.program.var_names)

    ladder_rungs = None
    if args.ladder:
        if options.internalize:
            print("note: ladder always links prefixes in open mode",
                  file=sys.stderr)
        ladder_rungs = ladder_over_members(pipeline, members, config)
        print("\nprefix ladder:")
        print(format_table({"rungs": ladder_rungs}))

    if args.out is not None:
        report = {
            "schema": 1,
            "files": [src.name for src in sources],
            "config": config.name,
            "options": options.to_dict(),
            "link": summary,
            "resolved_imports": resolved,
            "unresolved_imports": unresolved,
            "solution": solution.to_named_canonical(),
            "stages": pipeline.stage_report(timings=True),
        }
        if registry is not None:
            report["metrics"] = registry.to_dict()
        if cache is not None:
            report["cache"] = {
                stage: stats.to_dict()
                for stage, stats in sorted(cache.stage_stats.items())
            }
        if ladder_rungs is not None:
            report["ladder"] = ladder_rungs
        _write_text_atomic(
            args.out, json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nwrote {args.out}")
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    return 0


def cmd_audit(args) -> int:
    import json

    from .audit import (
        AuditError,
        audit_names,
        build_audit_context,
        render_report_evidence,
        render_report_table,
    )
    from .link import LinkError
    from .pipeline import Pipeline

    config = _solver_config(args)
    options = _link_options(args)
    cache = _result_cache(args)
    if args.client not in audit_names():
        print(
            f"repro: error: unknown audit client {args.client!r}"
            f" (clients: {audit_names()})",
            file=sys.stderr,
        )
        return 2
    registry, trace = _obs_setup(args)
    pipeline = Pipeline(cache=cache, registry=registry)

    sources = [
        pipeline.source(pathlib.Path(f).name, pathlib.Path(f).read_text())
        for f in args.files
    ]
    # ``.lir`` files enter through the interchange front door; anything
    # else through the C frontend.  Constraint-tier clients cover both;
    # IR-tier clients see only the C members.
    ir_sources = [s for s in sources if not s.name.endswith(".lir")]
    members = [_member_constraints(pipeline, src) for src in sources]
    try:
        linked = pipeline.link(members, options).linked
    except LinkError as exc:
        return _link_failed(exc, trace)
    solution = pipeline.solve(linked.program, config).solution

    context = build_audit_context(pipeline, ir_sources, linked, solution)
    params = {}
    if args.oracle is not None:
        params["oracle"] = args.oracle
    if args.roots is not None:
        params["roots"] = [r for r in args.roots.split(",") if r]
    if args.heap_prefix is not None:
        params["heap_prefix"] = args.heap_prefix
    if args.frees is not None:
        params["frees"] = [f for f in args.frees.split(",") if f]
    if args.include_bounded is not None:
        params["include_bounded"] = args.include_bounded
    try:
        audit_art = pipeline.audit(
            context, args.client, params, solution.named_canonical_digest()
        )
    except AuditError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        if trace is not None:
            trace.close()
        return 1
    report = audit_art.report
    if trace is not None:
        trace.emit("audit", args.client, report["counts"])
        trace.emit("metrics", "audit", registry.to_dict())
        trace.close()

    if args.format == "json":
        sys.stdout.write(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    else:
        sys.stdout.write(render_report_table(report))
        if args.evidence and report["findings"]:
            sys.stdout.write("\nevidence:\n")
            sys.stdout.write(render_report_evidence(report))
    if args.out is not None:
        _write_text_atomic(
            args.out, json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    return 0


def cmd_constraints_export(args) -> int:
    from .interchange import export_constraint_text
    from .link import LinkError
    from .pipeline import Pipeline

    cache = _result_cache(args)
    registry, trace = _obs_setup(args)
    pipeline = Pipeline(cache=cache, registry=registry)
    sources = [
        pipeline.source(pathlib.Path(f).name, pathlib.Path(f).read_text())
        for f in args.files
    ]
    if len(sources) == 1:
        # One file exports its TU constraint program, pre-link: no
        # linkage escapes, no cross-module resolution.
        program = _member_constraints(pipeline, sources[0]).program
    else:
        members = [_member_constraints(pipeline, src) for src in sources]
        try:
            program = pipeline.link(members, _link_options(args)).linked.program
        except LinkError as exc:
            return _link_failed(exc, trace)
    text = export_constraint_text(program)
    if trace is not None:
        trace.emit("metrics", "constraints-export", registry.to_dict())
        trace.close()
    if args.out is not None:
        _write_text_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}", file=sys.stderr)
    return 0


def cmd_constraints_solve(args) -> int:
    import json

    from .analysis.solution import Solution
    from .driver import FileContext, SolveTask, solve_tasks, source_digest
    from .interchange import parse_constraint_text

    # The backend travels with each task, not in the configuration name.
    config = _solver_config(args, backend=False)
    tasks = []
    contexts = {}
    programs = {}
    for i, f in enumerate(args.files):
        path = pathlib.Path(f)
        text = path.read_text()
        digest = source_digest(text)
        if digest not in programs:
            # Parse in the main process even when solving on workers:
            # malformed text diagnoses here, file name attached, before
            # any pool spins up.
            programs[digest] = parse_constraint_text(text, path.name)
            contexts[digest] = FileContext(
                path.name, digest, programs[digest]
            )
        tasks.append(
            SolveTask(
                index=i,
                file_name=path.name,
                source_hash=digest,
                config_name=config.name,
                source=text,
                pts_backend=args.pts_backend,
                repetitions=1,
                source_kind="lir",
            )
        )
    cache = _result_cache(args)
    registry, trace = _obs_setup(args)
    try:
        results, stats = solve_tasks(
            tasks,
            jobs=args.jobs,
            cache=cache,
            contexts=contexts if args.jobs <= 1 else None,
            registry=registry,
            trace=trace,
        )
        if trace is not None:
            trace.emit("metrics", "constraints-solve", registry.to_dict())
    finally:
        if trace is not None:
            trace.close()
    entries = []
    for result in results:
        program = programs[tasks[result.index].source_hash]
        solution = Solution.from_canonical_dict(result.solution, program)
        digest = solution.named_canonical_digest()
        print(f"{result.file_name}: {program.num_vars} constraint"
              f" variables, {program.num_constraints()} constraints,"
              f" solution {digest[:12]}")
        external = sorted(map(str, solution.names(solution.external)))
        print(f"  externally accessible: {', '.join(external) or '(none)'}")
        if args.show_solution:
            _print_points_to(solution, program.var_names)
        entries.append(
            {
                "file": result.file_name,
                "config": result.config_name,
                "solution_digest": digest,
                "solution": solution.to_named_canonical(),
            }
        )
    if args.cache or args.jobs > 1:
        print(stats)
    if args.out is not None:
        report = {"schema": 1, "config": config.name, "results": entries}
        if registry is not None:
            report["metrics"] = registry.to_dict()
        _write_text_atomic(
            args.out, json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    return 0


def _read_project_files(paths) -> dict:
    """CLI FILE arguments → {member name: source text} in link order."""
    return {
        pathlib.Path(f).name: pathlib.Path(f).read_text() for f in paths
    }


def _serve_components(args):
    """(project, server, trace) shared by ``serve`` and ``query``."""
    from .serve import DEFAULT_MAX_REQUEST_BYTES, AnalysisServer, Project

    registry, trace = _obs_setup(args)
    project = Project(
        args.config, _link_options(args), cache=_result_cache(args),
        registry=registry,
    )
    server = AnalysisServer(
        project,
        timeout=args.timeout,
        max_request_bytes=(
            args.max_request_bytes
            if args.max_request_bytes is not None
            else DEFAULT_MAX_REQUEST_BYTES
        ),
        memo_entries=args.memo_entries,
        registry=registry,
        trace=trace,
        workers=getattr(args, "workers", 1),
        state_dir=getattr(args, "state_dir", None),
    )
    return project, server, trace


def cmd_serve(args) -> int:
    from .serve import serve_stdio, serve_tcp

    project, server, trace = _serve_components(args)
    try:
        if args.files:
            # Address the fleet's default project (a --state-dir restore
            # may have replaced the one _serve_components built), and
            # persist the startup generation like any other commit.
            from .serve import DEFAULT_PROJECT

            state = server._state(DEFAULT_PROJECT)
            with state.write_lock:
                state.project.open(_read_project_files(args.files))
                server._persist(state)
        if args.tcp is not None:
            host, _, port_text = args.tcp.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                print(
                    f"repro: error: bad --tcp address {args.tcp!r}"
                    " (expected HOST:PORT)",
                    file=sys.stderr,
                )
                return 2

            def ready(bound_host: str, bound_port: int) -> None:
                # The banner goes to stderr: on --stdio, stdout *is*
                # the protocol stream, and tcp keeps the convention.
                print(
                    f"repro serve: listening on {bound_host}:{bound_port}",
                    file=sys.stderr,
                    flush=True,
                )

            return serve_tcp(
                server, host or "127.0.0.1", port, ready=ready
            )
        return serve_stdio(server)
    finally:
        if trace is not None:
            trace.close()
            print(f"wrote {args.trace_out}", file=sys.stderr)


def cmd_query(args) -> int:
    import json

    from .serve import InProcessClient, encode_frame

    project, server, trace = _serve_components(args)
    client = InProcessClient(server)
    failures = 0
    try:
        project.open(_read_project_files(args.files))
        for raw in args.query:
            raw = raw.strip()
            if raw.startswith("{"):
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    print(
                        f"repro: error: bad --query JSON: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                if not isinstance(obj, dict) or "method" not in obj:
                    print(
                        "repro: error: --query object needs a 'method' key",
                        file=sys.stderr,
                    )
                    return 2
                method = obj["method"]
                params = obj.get("params", {})
            else:
                method, params = raw, {}
            response = client.request(method, params)
            # Re-encode canonically: the printed line is byte-identical
            # to what a served session would have written.
            print(encode_frame(response))
            if not response["ok"]:
                failures += 1
    finally:
        server.finish()
        if trace is not None:
            trace.close()
    return 1 if failures else 0


def cmd_run(args) -> int:
    from .bench.runner import main as runner_main

    return runner_main(list(args.args))


def cmd_configs(args) -> int:
    configs = enumerate_configurations()
    for config in configs:
        print(config.name)
    print(f"\n{len(configs)} valid configurations", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``run`` forwards verbatim to repro.bench.runner's own parser.
    # Forward before parsing: argparse.REMAINDER cannot capture leading
    # options (``repro run --jobs 2`` would be rejected here otherwise).
    if argv[:1] == ["run"]:
        from .bench.runner import main as runner_main

        return runner_main(argv[1:])

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_cache_options(p, what: str) -> None:
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=False,
            help=f"memoise {what} under --cache-dir",
        )
        p.add_argument(
            "--cache-dir",
            type=pathlib.Path,
            default=pathlib.Path(".repro-cache"),
        )
        p.add_argument(
            "--cache-max-entries",
            type=_positive_int,
            default=None,
            metavar="N",
            help="bound each cache namespace to N entries (LRU eviction;"
            " default: unbounded)",
        )

    p = sub.add_parser("compile", help="compile C to textual IR")
    p.add_argument("file")
    p.add_argument("--include", help="directory of headers", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("analyze", help="run the points-to analysis")
    p.add_argument("file")
    p.add_argument("--include", default=None)
    _add_config_option(p)
    _add_backend_option(p)
    _add_reduce_option(p)
    p.add_argument("--dump-constraints", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="compare solver configurations")
    p.add_argument("file")
    p.add_argument("--include", default=None)
    _add_backend_option(p)
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="solve configurations on N worker processes",
    )
    _add_cache_options(p, "solved results")
    _add_obs_options(p)
    p.add_argument("configs", nargs="*", type=_configuration)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "link", help="link several translation units and solve jointly"
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    _add_config_option(p)
    _add_link_options(p)
    p.add_argument(
        "--ladder",
        action="store_true",
        help="also solve every TU prefix and report the Ω-shrinkage ladder",
    )
    p.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="accepted for compatibility; has no effect (the link runs"
        " in one process)",
    )
    p.add_argument("--show-solution", action="store_true")
    _add_cache_options(p, "stage artifacts")
    p.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the full report JSON here",
    )
    _add_obs_options(p)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser(
        "audit",
        help="run a scenario audit client (escape, races, dangling,"
        " calls) over the solved program",
    )
    p.add_argument(
        "client",
        metavar="CLIENT",
        help="audit client name: escape | races | dangling | calls",
    )
    p.add_argument(
        "files", nargs="+", metavar="FILE",
        help="C translation units and/or .lir constraint-text files",
    )
    _add_config_option(p)
    _add_backend_option(p)
    _add_reduce_option(p)
    p.add_argument(
        "--oracle",
        choices=("andersen", "basicaa", "combined"),
        default=None,
        help="alias oracle answering client queries (default: combined)",
    )
    p.add_argument(
        "--roots", default=None, metavar="FN[,FN...]",
        help="races: override thread-entry detection with these"
        " defined functions",
    )
    p.add_argument(
        "--heap-prefix", default=None, metavar="PREFIX",
        help="escape: heap-site name prefix (default: heap.)",
    )
    p.add_argument(
        "--frees", default=None, metavar="FN[,FN...]",
        help="dangling: deallocator function names (default: free)",
    )
    p.add_argument(
        "--include-bounded",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="calls: also report bounded call sites (default: yes)",
    )
    _add_link_options(p)
    p.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="stdout rendering (default: table)",
    )
    p.add_argument(
        "--evidence",
        action="store_true",
        help="also print each finding's evidence chain (table format)",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the canonical report JSON here",
    )
    _add_cache_options(p, "stage artifacts and audit reports")
    _add_obs_options(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "constraints",
        help="LIR constraint-text interchange: export C programs as"
        " text, solve text directly",
    )
    csub = p.add_subparsers(dest="subcommand", required=True)

    pe = csub.add_parser(
        "export",
        help="compile C sources and print the canonical constraint text",
    )
    pe.add_argument("files", nargs="+", metavar="FILE")
    _add_link_options(pe)
    pe.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the constraint text here (default: stdout)",
    )
    _add_cache_options(pe, "stage artifacts")
    _add_obs_options(pe)
    pe.set_defaults(func=cmd_constraints_export)

    ps = csub.add_parser(
        "solve",
        help="solve constraint-text files directly (no C frontend)",
    )
    ps.add_argument("files", nargs="+", metavar="FILE")
    _add_config_option(ps)
    _add_backend_option(ps, "--backend")
    _add_reduce_option(ps)
    ps.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="solve files on N worker processes",
    )
    ps.add_argument("--show-solution", action="store_true")
    ps.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write a JSON report (named canonical solutions) here",
    )
    _add_cache_options(ps, "solved results")
    _add_obs_options(ps)
    ps.set_defaults(func=cmd_constraints_solve)

    def _add_serve_options(p) -> None:
        _add_config_option(p)
        _add_link_options(p)
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-request deadline (an expired request answers a"
            " structured 'timeout' error; default: none)",
        )
        p.add_argument(
            "--max-request-bytes", type=_positive_int, default=None,
            metavar="N",
            help="reject request lines longer than N bytes"
            " (default: 1 MiB)",
        )
        p.add_argument(
            "--memo-max-entries", "--memo-entries", dest="memo_entries",
            type=_positive_int, default=1024, metavar="N",
            help="per-project query-memo capacity, shared across"
            " generations (--memo-entries is the old spelling)",
        )
        _add_cache_options(p, "pipeline stage artifacts")
        _add_obs_options(p)

    p = sub.add_parser(
        "serve",
        help="persistent analysis server speaking NDJSON over"
        " stdio or TCP",
    )
    p.add_argument(
        "files", nargs="*", metavar="FILE",
        help="sources to open at startup, in link order"
        " (a client can also send an 'open' request)",
    )
    transport = p.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio", action="store_true",
        help="serve requests from stdin, one response line each (default)",
    )
    transport.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="serve TCP connections; PORT 0 binds an ephemeral port"
        " (the bound address is printed to stderr)",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="concurrent query workers; 1 (default) keeps the"
        " sequential one-connection-at-a-time behaviour, more turns"
        " --tcp into a thread-per-connection fleet",
    )
    p.add_argument(
        "--state-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="persist every committed generation here and warm-start"
        " from it on restart (digest-validated)",
    )
    _add_serve_options(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "query",
        help="one-shot queries against an in-process analysis server",
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument(
        "-q", "--query", action="append", required=True, metavar="REQUEST",
        help="a method name (e.g. 'classify') or a JSON object"
        ' {"method": ..., "params": {...}}; repeatable, answered in order',
    )
    _add_serve_options(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "run",
        help="corpus experiment runner (repro.bench.runner pass-through)",
    )
    p.add_argument(
        "args", nargs=argparse.REMAINDER,
        help="arguments for repro.bench.runner (see its --help)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("configs", help="list all valid configurations")
    p.set_defaults(func=cmd_configs)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FRONTEND_ERRORS as exc:
        print(f"repro: error: {describe_error(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Unreadable inputs, unwritable --out/--trace-out targets:
        # one-line diagnostic, nonzero exit, no traceback (and, thanks
        # to the atomic writers, no partial output file left behind).
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
