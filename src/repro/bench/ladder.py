"""The incremental-completeness experiment: Ω shrinkage as a curve.

The paper's soundness story is that an incomplete program's solution
over-approximates the whole program's: every external symbol feeds Ω.
This experiment makes that narrative measurable — link the first ``k``
of ``N`` translation units of one program (open, concatenation-semantics
mode), solve, and report how the external world shrinks as ``k`` grows:

- ``external_total``: |E| of the joint program (grows with program
  size, reported for context);
- ``external_tu0``: |E ∩ locs(TU₀)| — how much of the *first* unit's
  memory is still externally accessible.  TU₀'s joint indexes are
  identical at every rung (the linker renumbers the first member first),
  so this is a fixed-denominator curve; non-increasing in ``k``;
- ``concretized_tu0``: Σ|concretize(Sol(p)) ∩ (locs(TU₀) ∪ {Ω})| over
  TU₀'s pointers — the per-pointer solution-size curve; non-increasing
  in ``k``;
- ``omega_pointers_tu0``: how many of TU₀'s pointers still contain Ω —
  the count of pointers whose values may come from unknown code;
  non-increasing in ``k``;
- ``impfuncs_tu0``: TU₀-referenced functions still treated as
  implicitly-declared unknowns (``ImpFunc``); each later unit that
  defines one removes it; non-increasing in ``k``.

Run as a module for the CLI::

    python -m repro.bench.ladder --units 5 --seed 3 --cache [--out r.json]
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from ..analysis.config import Configuration
from ..analysis.omega import OMEGA, concretize
from ..driver.cache import ResultCache
from ..pipeline import ConstraintsArtifact, Pipeline
from .corpus import ProgramSpec, generate_c_source, plan_program

#: the default solver configuration for ladder runs (any configuration
#: produces the identical solution; IP+PIP is the paper's fastest)
DEFAULT_CONFIG_NAME = "IP+WL(FIFO)+PIP"


def ladder_over_members(
    pipeline: Pipeline,
    members: Sequence[ConstraintsArtifact],
    config: Configuration,
) -> List[Dict]:
    """Solve every TU-prefix of ``members``; one metrics dict per rung.

    Always links in *open* mode: internalizing a strict prefix would be
    unsound (unseen members may reference any exported symbol), and the
    monotonicity this experiment demonstrates only holds for sound
    refinements.
    """
    members = list(members)
    rungs: List[Dict] = []
    for k in range(1, len(members) + 1):
        link_art = pipeline.link(members[:k])
        linked = link_art.linked
        solution = pipeline.solve(linked.program, config).solution

        # TU₀'s image is index-identical at every rung.
        tu0_image = set(linked.member_vars(members[0].name))
        program = linked.program
        tu0_locs = {v for v in tu0_image if program.in_m[v]}
        tu0_pointers = sorted(v for v in tu0_image if program.in_p[v])
        external = solution.external
        visible = tu0_locs | {OMEGA}

        concretized = 0
        omega_pointers = 0
        for p in tu0_pointers:
            try:
                pointees = solution.points_to(p)
            except KeyError:  # pointer absent from the solution map
                continue
            if OMEGA in pointees:
                omega_pointers += 1
            concretized += len(concretize(pointees, external) & visible)

        rungs.append(
            {
                "k": k,
                "members": [m.name for m in members[:k]],
                "joint_vars": program.num_vars,
                "joint_constraints": program.num_constraints(),
                "external_total": len(external),
                "external_tu0": len(set(external) & tu0_locs),
                "concretized_tu0": concretized,
                "omega_pointers_tu0": omega_pointers,
                "impfuncs_tu0": sum(
                    1 for v in tu0_image if program.flag_impfunc[v]
                ),
                "resolved_imports": len(linked.resolved_imports()),
                "unresolved_imports": len(linked.unresolved_imports()),
            }
        )
    return rungs


def check_monotone(rungs: Sequence[Dict]) -> List[str]:
    """Violations of the soundness narrative (empty = all good)."""
    problems: List[str] = []
    for metric in (
        "external_tu0",
        "concretized_tu0",
        "omega_pointers_tu0",
        "impfuncs_tu0",
    ):
        values = [r[metric] for r in rungs]
        for a, b in zip(values, values[1:]):
            if b > a:
                problems.append(f"{metric} increased along the ladder: {values}")
                break
    return problems


def run_ladder(
    spec: ProgramSpec,
    config: Configuration,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Generate ``spec``'s units, run the prefix ladder, build a report.

    The ``rungs`` section is fully deterministic (byte-identical between
    cold and warm cache runs); stage timings live in the separate
    ``stages`` section so consumers can compare the canonical part.
    """
    pipeline = Pipeline(cache=cache)
    unit_specs = plan_program(spec)
    sources = [
        pipeline.source(unit.name, generate_c_source(unit))
        for unit in unit_specs
    ]
    members = [pipeline.constraints(src) for src in sources]
    rungs = ladder_over_members(pipeline, members, config)
    return {
        "schema": 1,
        "program": spec.name,
        "config": config.name,
        "units": [m.name for m in members],
        "rungs": rungs,
        "monotone": not check_monotone(rungs),
        "stages": pipeline.stage_report(timings=True),
    }


def canonical_report_json(report: Dict) -> str:
    """The deterministic part of a ladder report (no timings)."""
    payload = {
        key: report[key]
        for key in ("schema", "program", "config", "units", "rungs", "monotone")
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def format_table(report: Dict) -> str:
    """Human-readable rung table for terminal output."""
    header = (
        f"{'k':>3}  {'|V|':>6}  {'|C|':>6}  {'|E|':>5}  {'|E∩TU0|':>8}"
        f"  {'Sol∩TU0':>8}  {'Ω-ptrs':>7}  {'ImpFunc':>8}  {'unresolved':>10}"
    )
    lines = [header, "-" * len(header)]
    for rung in report["rungs"]:
        lines.append(
            f"{rung['k']:>3}  {rung['joint_vars']:>6}"
            f"  {rung['joint_constraints']:>6}  {rung['external_total']:>5}"
            f"  {rung['external_tu0']:>8}  {rung['concretized_tu0']:>8}"
            f"  {rung['omega_pointers_tu0']:>7}  {rung['impfuncs_tu0']:>8}"
            f"  {rung['unresolved_imports']:>10}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI: python -m repro.bench.ladder
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import pathlib

    from ..__main__ import _configuration

    parser = argparse.ArgumentParser(
        description="k-of-N TU prefix ladder (incremental completeness)"
    )
    parser.add_argument("--units", type=int, default=4)
    parser.add_argument("--unit-size", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--static-fraction", type=float, default=0.4)
    parser.add_argument("--config", type=_configuration, default=DEFAULT_CONFIG_NAME)
    parser.add_argument(
        "--cache",
        action="store_true",
        help="memoise stage artifacts under --cache-dir",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=pathlib.Path(".repro-cache")
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the full report JSON here",
    )
    args = parser.parse_args(argv)

    spec = ProgramSpec(
        name=f"ladder-{args.units}x{args.unit_size}",
        seed=args.seed,
        n_units=args.units,
        unit_size=args.unit_size,
        static_fraction=args.static_fraction,
    )
    cache = ResultCache(args.cache_dir) if args.cache else None
    report = run_ladder(spec, args.config, cache=cache)

    print(f"program {report['program']}, configuration {report['config']}")
    print(format_table(report))
    problems = check_monotone(report["rungs"])
    for problem in problems:
        print(f"warning: {problem}")
    print("\nstages:")
    for stage, stats in report["stages"].items():
        print(
            f"  {stage:>12}: {stats['runs']} runs, {stats['hits']} hits,"
            f" {stats['misses']} misses, {stats['seconds']:.3f}s"
        )
    if args.out is not None:
        args.out.write_text(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        )
        print(f"\nwrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
