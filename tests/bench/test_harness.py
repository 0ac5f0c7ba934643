"""Harness tests: timing statistics, runner, report rendering."""

import pytest

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
    TABLE6_CONFIGS,
    FileRun,
    RunResults,
    run_experiment,
)
from repro.bench.suite import build_corpus, flatten
from repro.bench.timing import QUANTILE_COLUMNS, distribution, quantile


class TestStats:
    def test_quantile_single(self):
        assert quantile([5.0], 0.5) == 5.0

    def test_quantile_interpolates(self):
        assert quantile([0.0, 10.0], 0.5) == 5.0

    def test_quantile_extremes(self):
        data = sorted(float(i) for i in range(100))
        assert quantile(data, 0.0) == 0.0
        assert quantile(data, 1.0) == 99.0

    def test_distribution_keys(self):
        dist = distribution([1.0, 2.0, 3.0, 4.0])
        assert set(dist) == set(QUANTILE_COLUMNS)
        assert dist["max"] == 4.0
        assert dist["mean"] == 2.5

    def test_distribution_monotone(self):
        dist = distribution(list(range(1, 1001)))
        assert dist["p10"] <= dist["p25"] <= dist["p50"] <= dist["p90"]
        assert dist["p90"] <= dist["p99"] <= dist["max"]

    def test_empty_distribution_raises(self):
        with pytest.raises(ValueError):
            distribution([])


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus(
        files_scale=0.004, size_scale=0.006, seed=7,
        profiles=["505.mcf", "557.xz"],
    )


@pytest.fixture(scope="module")
def tiny_results(tiny_corpus):
    configs = [
        "EP+Naive",
        "EP+WL(LRF)",
        "EP+OVS+WL(LRF)+OCD",
        "IP+WL(FIFO)+LCD+DP",
        "IP+WL(FIFO)",
        "IP+WL(FIFO)+PIP",
    ]
    return run_experiment(flatten(tiny_corpus), configs, repetitions=1)


class TestRunner:
    def test_all_pairs_recorded(self, tiny_corpus, tiny_results):
        files = flatten(tiny_corpus)
        assert len(tiny_results.runs) == len(files) * 6

    def test_validation_catches_divergence(self, tiny_corpus):
        # Sanity: validation runs without raising on correct solvers.
        run_experiment(
            flatten(tiny_corpus)[:1], ["IP+Naive", "EP+Naive"], repetitions=1
        )

    def test_oracle_is_per_file_min(self, tiny_results):
        oracle = tiny_results.oracle_runtimes(["EP+Naive", "EP+WL(LRF)"])
        for f, t in oracle.items():
            assert t == min(
                tiny_results.runtimes["EP+Naive"][f],
                tiny_results.runtimes["EP+WL(LRF)"][f],
            )

    def test_pointee_counts_positive(self, tiny_results):
        for config, per_file in tiny_results.pointees.items():
            assert all(v >= 0 for v in per_file.values())

    def test_ep_counts_dominate_pip_counts(self, tiny_results):
        ep = tiny_results.pointees["EP+OVS+WL(LRF)+OCD"]
        pip = tiny_results.pointees["IP+WL(FIFO)+PIP"]
        assert sum(ep.values()) > sum(pip.values())


class TestReports:
    def test_table3_renders(self, tiny_corpus):
        text = table3(tiny_corpus)
        assert "505.mcf" in text and "|V| mean" in text

    def test_table5_renders_with_oracle(self, tiny_results):
        text = table5(tiny_results, oracle_configs=["EP+Naive", "EP+WL(LRF)"])
        assert "EP Oracle" in text
        assert "IP+WL(FIFO)+PIP" in text

    def test_table6_renders(self, tiny_results):
        text = table6(tiny_results, TABLE6_CONFIGS)
        assert "explicit pointees" in text

    def test_figure9(self, tiny_corpus):
        precision = measure_precision(tiny_corpus)
        text = figure9(precision)
        assert "AVERAGE" in text and "BasicAA" in text
        # Combining analyses can only help.
        assert (
            precision.average["Andersen+BasicAA"]
            <= precision.average["BasicAA"] + 1e-12
        )
        assert (
            precision.average["Andersen+BasicAA"]
            <= precision.average["Andersen"] + 1e-12
        )

    def test_figure10_series(self, tiny_results):
        top, bottom = figure10(
            tiny_results, oracle_configs=["EP+Naive", "EP+WL(LRF)"]
        )
        assert top.points and bottom.points
        assert 0.0 <= top.fraction_above_one <= 1.0
        text = render_ratio_series(top)
        assert "Figure 10" in text

    def test_headline_claims(self, tiny_corpus, tiny_results):
        precision = measure_precision(tiny_corpus)
        claims = headline_claims(
            tiny_results, tiny_corpus, precision,
            oracle_configs=["EP+Naive", "EP+WL(LRF)"],
        )
        assert set(claims) >= {
            "ip_vs_ep_oracle",
            "pip_vs_best_no_pip",
            "pip_vs_plain_ip",
            "external_pointer_fraction",
            "mayalias_reduction",
        }
        assert 0.0 <= claims["external_pointer_fraction"] <= 1.0
        text = render_headlines(claims)
        assert "paper" in text
