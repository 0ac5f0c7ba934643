"""Table VI — number of explicit pointees in the solutions.

The memory-scalability result (§VI-C): all configurations produce the
identical solution, but the explicit-pointee footprint differs by orders
of magnitude.  Asserted ordering (the paper's rows):

    EP  ≫  IP  ≥  IP+LCD+DP  ≥  IP+PIP
"""

from repro.bench.report import table6
from repro.bench.runner import TABLE6_CONFIGS
from repro.bench.timing import distribution


def test_table6_and_memory_shape(benchmark, experiment_results):
    text = benchmark(lambda: table6(experiment_results, TABLE6_CONFIGS))
    print()
    print(text)

    totals = {
        config: sum(experiment_results.pointees[config].values())
        for config in TABLE6_CONFIGS
    }
    ep = totals["EP+OVS+WL(LRF)+OCD"]
    ip = totals["IP+WL(FIFO)"]
    lcd = totals["IP+WL(FIFO)+LCD+DP"]
    pip = totals["IP+WL(FIFO)+PIP"]
    assert ep > ip > pip, f"expected EP ≫ IP > PIP, got {totals}"
    assert lcd <= ip
    # Paper: implicit representation is not replaceable by cycle
    # elimination — EP with full cycle detection still dwarfs plain IP.
    assert ep > 2 * ip
    # Paper: PIP removes the doubled-up pointees; the Max row collapses.
    ep_max = max(experiment_results.pointees["EP+OVS+WL(LRF)+OCD"].values())
    pip_max = max(experiment_results.pointees["IP+WL(FIFO)+PIP"].values())
    assert pip_max < ep_max / 5


def test_pointee_distribution_quantiles(benchmark, experiment_results):
    def quantiles():
        return {
            config: distribution(
                list(experiment_results.pointees[config].values())
            )
            for config in TABLE6_CONFIGS
        }

    dists = benchmark(quantiles)
    for config, dist in dists.items():
        assert dist["p10"] <= dist["p50"] <= dist["max"]
