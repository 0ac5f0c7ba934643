"""Run one workload of the source-to-answer benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload xz-cold --seed 0 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true",
        help="a three-unit 505.mcf program (the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def collect(args: argparse.Namespace) -> Dict:
    """Run the workload; return the result object (last output line)."""
    from perfbench.layers import END_TO_END, PER_LAYER, instrument
    from perfbench.tracer import Tracer
    from perfbench.workloads import RUNNERS, SETUPS, Options, Run

    if args.workload not in RUNNERS:
        raise SystemExit(
            f"unknown workload {args.workload!r} (choose from {sorted(RUNNERS)})"
        )
    workdir = ROOT / ".perfbench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    opts = Options(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        workdir=workdir,
        setups=SETUPS[args.workload],
    )
    if args.tiny:
        opts.profile, opts.files_scale, opts.min_reads = "505.mcf", 0.25, 10
    tracer = instrument(Tracer()) if args.trace else None
    run = Run()
    RUNNERS[args.workload](opts, run, tracer)

    # Work counters observed from outside must repeat exactly between
    # iterations that do the same work (every workload but the edit
    # session, whose rounds edit different units).
    if args.workload != "xz-serve-edits" and any(
        c != run.counters[0] for c in run.counters
    ):
        run.failed += 1
        run.problems.append("work counters differ between iterations")

    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {run.attempted} operations,"
          f" {run.failed} failed, cpu_count {os.cpu_count()}")
    print(f"  setup_s samples      {', '.join(f'{x:.4f}' for x in run.setup)}")
    print(f"  iteration_s samples  {', '.join(f'{x:.4f}' for x in run.untraced)}")
    for name, value in sorted(run.details.items()):
        print(f"  {name:<22} {value:.6g}")

    if not args.trace:
        values = {
            "setup_s": statistics.median(run.setup),
            "iteration_s": statistics.median(run.untraced),
            "peak_rss_mb": run.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        values = {}
        for name, unit in PER_LAYER:
            seen = [layer[name] for layer in run.layers if name in layer]
            if not seen:
                values[name] = 0
            elif unit == "s":
                values[name] = statistics.median(seen)
            else:
                # counters: the first traced iteration, which is the same
                # work on every run of one seed
                values[name] = seen[0]
        untraced = statistics.median(run.untraced)
        traced = statistics.median(run.traced)
        unattributed = statistics.median(run.unattributed)
        values.update(run.details)
        values.update(
            {
                "failure_rate": run.failed / max(1, run.attempted),
                "host.cpu_count": os.cpu_count(),
                "trace.iteration_untraced_s": untraced,
                "trace.iteration_traced_s": traced,
                "trace.overhead_s": traced - untraced,
                "trace.unattributed_s": unattributed,
                "trace.accounted_share": 1.0 - unattributed / traced,
            }
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        total = sum(run.self_table.values())
        print("  self time by span, all traced iterations"
              f" ({len(run.traced)} of them, {total:.4f} s):")
        for name, seconds in sorted(run.self_table.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<34} {seconds:10.4f} s  {100 * seconds / total:6.2f} %")
        tracer.dump(opts.workdir / f"spans-seed{args.seed}.jsonl")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    result = collect(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
