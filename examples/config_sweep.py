#!/usr/bin/env python3
"""Solver-configuration sweep on one generated translation unit.

Demonstrates the paper's configuration space (Table IV / Fig. 8): the
pointer representation (EP vs IP), offline variable substitution, the
naive vs worklist solvers, the five iteration orders, and the online
techniques (PIP, OCD, HCD, LCD, DP).  Every configuration is validated
to produce the *identical* solution — the paper's §V-A check — while
runtimes and explicit-pointee counts differ wildly.

Run:  python examples/config_sweep.py [size]
"""

import sys
import time

from repro.analysis import (
    enumerate_configurations,
    parse_name,
    prepare_program,
    solve_prepared,
    validate_identical,
)
from repro.bench.corpus import FileSpec
from repro.bench.suite import build_file

SWEEP = [
    "EP+Naive",
    "EP+OVS+Naive",
    "EP+WL(FIFO)",
    "EP+WL(LRF)",
    "EP+OVS+WL(LRF)+OCD",
    "EP+WL(FIFO)+LCD+DP",
    "IP+Naive",
    "IP+WL(FIFO)",
    "IP+WL(LIFO)",
    "IP+WL(LRF)",
    "IP+WL(2LRF)",
    "IP+WL(TOPO)",
    "IP+WL(FIFO)+OCD",
    "IP+WL(FIFO)+HCD+LCD",
    "IP+WL(FIFO)+LCD+DP",
    "IP+WL(FIFO)+PIP",
    "IP+OVS+WL(FIFO)+PIP",
]


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 220
    spec = FileSpec(name="sweep.c", seed=2026, size=size)
    file = build_file(spec)
    stats = file.stats()
    print(
        f"generated {spec.name}: {stats['loc']} LOC,"
        f" {stats['ir_instructions']} IR instructions,"
        f" |V|={stats['num_vars']}, |C|={stats['num_constraints']}"
    )
    print(
        f"\n(total valid configurations: {len(enumerate_configurations())};"
        " sweeping a representative slice)\n"
    )
    print(f"{'configuration':>24}  {'time':>9}  {'explicit pointees':>18}")
    solutions = []
    for name in SWEEP:
        config = parse_name(name)
        prepared = file.ep_program if config.representation == "EP" else file.program
        start = time.perf_counter()
        solution = solve_prepared(prepared, config)
        elapsed = time.perf_counter() - start
        solutions.append(solution)
        print(
            f"{name:>24}  {1000 * elapsed:7.1f}ms"
            f"  {solution.stats.explicit_pointees:18,d}"
        )
    validate_identical(solutions)
    print("\nvalidated: all configurations produced the identical solution")


if __name__ == "__main__":
    main()
