#!/usr/bin/env python3
"""One-shot reproduction driver (the artifact's ``run.sh`` equivalent).

Builds the corpus, runs every experiment, and writes each table/figure
to a file under the output directory:

    python benchmarks/reproduce.py results/ [--files-scale F] [--size-scale S]
                                   [--seed N] [--repetitions R]

Outputs (mirroring the paper artifact's results/ layout):

    file-sizes-table.txt                    Table III
    precision.txt                           Figure 9
    configuration-runtimes-table.txt        Table V
    ip_sans_pip_vs_ep_oracle_ratio.txt      Figure 10 (top)
    pip_vs_best_just_without_pip_ratio.txt  Figure 10 (bottom)
    configuration-memory-usage-table.txt    Table VI
    headline-claims.txt                     numbers quoted in the text
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.driver import ResultCache

from repro.bench.report import (
    figure9,
    figure10,
    headline_claims,
    measure_precision,
    render_headlines,
    render_ratio_series,
    table3,
    table5,
    table6,
)
from repro.bench.runner import (
    EP_ORACLE_CONFIGS,
    TABLE5_CONFIGS,
    TABLE6_CONFIGS,
    run_experiment,
)
from repro.bench.suite import build_corpus, flatten


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--files-scale", type=float, default=0.012)
    parser.add_argument("--size-scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the solver-runtime experiment",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memoise solved (file, configuration) results on disk so"
        " re-running reproduce.py replays prior measurements",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=pathlib.Path(".repro-cache")
    )
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        path = args.outdir / name
        path.write_text(text + "\n")
        print(f"--- wrote {path}")
        print(text)
        print()

    t0 = time.time()
    print("building corpus ...")
    corpus = build_corpus(
        files_scale=args.files_scale, size_scale=args.size_scale, seed=args.seed
    )
    files = flatten(corpus)
    print(f"  {len(files)} files in {time.time() - t0:.0f}s")
    write("file-sizes-table.txt", table3(corpus))

    print("measuring precision (Figure 9) ...")
    precision = measure_precision(corpus)
    write("precision.txt", figure9(precision))

    print("running the solver-runtime experiment (Tables V/VI, Fig. 10) ...")
    t0 = time.time()
    results = run_experiment(
        files,
        TABLE5_CONFIGS + EP_ORACLE_CONFIGS,
        repetitions=args.repetitions,
        jobs=args.jobs,
        cache=ResultCache(args.cache_dir) if args.cache else None,
    )
    print(f"  done in {time.time() - t0:.0f}s ({results.driver})")
    write("configuration-runtimes-table.txt", table5(results))
    write("configuration-memory-usage-table.txt", table6(results, TABLE6_CONFIGS))

    # Raw per-(file, configuration) measurements, for custom analysis.
    csv_lines = ["file,profile,configuration,runtime_s,explicit_pointees"]
    for run in results.runs:
        csv_lines.append(
            f"{run.file},{run.profile},{run.config},{run.runtime_s:.9f},"
            f"{run.explicit_pointees}"
        )
    (args.outdir / "raw-measurements.csv").write_text("\n".join(csv_lines) + "\n")
    print(f"--- wrote {args.outdir / 'raw-measurements.csv'}"
          f" ({len(results.runs)} rows)")
    (args.outdir / "report.json").write_text(results.to_json() + "\n")
    print(f"--- wrote {args.outdir / 'report.json'}")

    top, bottom = figure10(results)
    write("ip_sans_pip_vs_ep_oracle_ratio.txt", render_ratio_series(top))
    write("pip_vs_best_just_without_pip_ratio.txt", render_ratio_series(bottom))

    claims = headline_claims(results, corpus, precision)
    write("headline-claims.txt", render_headlines(claims))
    return 0


if __name__ == "__main__":
    sys.exit(main())
