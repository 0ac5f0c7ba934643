"""Figure 9 — alias-analysis precision (% MayAlias per benchmark).

Benchmarks the pairwise load/store conflict-rate client (§VI-A) for the
three analyses of the figure (BasicAA, Andersen, Andersen+BasicAA),
prints the per-benchmark series, and asserts the paper's shape: the
combined analysis substantially reduces MayAlias answers vs BasicAA
alone.
"""

from repro.alias import AndersenAA, BasicAA, CombinedAA, conflict_rate
from repro.analysis import analyze_module
from repro.bench.report import figure9


def test_conflict_rate_client(benchmark, corpus_files):
    modules = [f.module for f in corpus_files]
    points_to = [analyze_module(m) for m in modules]

    def run_combined_client():
        total_queries = total_may = 0
        for module, result in zip(modules, points_to):
            aa = CombinedAA([AndersenAA(result), BasicAA()])
            stats = conflict_rate(module, aa)
            total_queries += stats.queries
            total_may += stats.may_alias
        return total_queries, total_may

    queries, may = benchmark.pedantic(
        run_combined_client, rounds=2, iterations=1
    )
    assert queries > 0 and may <= queries


def test_figure9_series_and_shape(benchmark, precision_results, corpus):
    text = benchmark(lambda: figure9(precision_results))
    print()
    print(text)

    avg = precision_results.average
    basic = avg["BasicAA"]
    andersen = avg["Andersen"]
    combined = avg["Andersen+BasicAA"]
    # Shape: combining analyses can only help; the Andersen information
    # removes a substantial fraction of BasicAA's MayAlias answers
    # (paper: 40% on its corpus).
    assert combined <= basic + 1e-12
    assert combined <= andersen + 1e-12
    reduction = 1 - combined / basic if basic else 0.0
    print(f"\nMayAlias reduction vs BasicAA alone: {100 * reduction:.1f}%"
          f" (paper: ~40%)")
    assert reduction > 0.15, "expect a sizeable reduction from Andersen"
    # Every per-benchmark bar is a valid rate.
    for rates in precision_results.per_profile.values():
        for value in rates.values():
            assert 0.0 <= value <= 1.0
