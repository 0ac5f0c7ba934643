"""Table V — constraint-graph solver runtime per configuration.

One pytest-benchmark target per Table V row: each solves the whole
corpus once under that configuration.  The rendered table (with the EP
Oracle row) is printed from the session-wide experiment results, and the
paper's orderings are asserted:

- the fastest IP configuration beats the EP Oracle in total runtime;
- IP+WL(FIFO)+PIP has the best (smallest) maximum.
"""

import pytest

from repro.analysis.config import parse_name, solve_prepared
from repro.bench.report import table5
from repro.bench.runner import EP_ORACLE_CONFIGS, TABLE5_CONFIGS

ROWS = TABLE5_CONFIGS + ["EP+WL(FIFO)", "EP+Naive"]


@pytest.mark.parametrize("config_name", ROWS)
def test_solver_runtime(benchmark, corpus_files, config_name):
    config = parse_name(config_name)
    prepared = [
        f.ep_program if config.representation == "EP" else f.program
        for f in corpus_files
    ]

    def solve_all():
        return [solve_prepared(p, config) for p in prepared]

    solutions = benchmark.pedantic(solve_all, rounds=2, iterations=1, warmup_rounds=1)
    assert len(solutions) == len(corpus_files)


def test_render_table5_and_check_shape(benchmark, experiment_results):
    text = benchmark(lambda: table5(experiment_results))
    print()
    print(text)

    oracle_total = sum(
        experiment_results.oracle_runtimes(
            [c for c in EP_ORACLE_CONFIGS if c in experiment_results.runtimes]
        ).values()
    )
    pip_total = sum(experiment_results.runtime_values("IP+WL(FIFO)+PIP"))
    # Paper: implicit pointees are the single most important factor; the
    # best IP configuration beats the oracle over all EP configurations.
    assert pip_total < oracle_total, (
        f"IP+PIP total {pip_total:.3f}s should beat EP Oracle"
        f" {oracle_total:.3f}s"
    )
    # Paper: PIP tames the pathological maxima (Table V Max column).
    pip_max = max(experiment_results.runtime_values("IP+WL(FIFO)+PIP"))
    plain_max = max(experiment_results.runtime_values("IP+WL(FIFO)"))
    assert pip_max <= plain_max * 1.5
