"""Unit tests for report rendering helpers."""

import pytest

from repro.bench.report import (
    RatioSeries,
    best_no_pip_config,
    render_ratio_series,
    render_table,
)
from repro.bench.runner import FileRun, RunResults


def make_results():
    results = RunResults()
    for config, times in {
        "IP+WL(FIFO)": [0.001, 0.002, 0.010],
        "IP+WL(FIFO)+LCD+DP": [0.002, 0.003, 0.008],
        "IP+WL(FIFO)+PIP": [0.001, 0.002, 0.004],
        "EP+Naive": [0.004, 0.009, 0.050],
    }.items():
        for i, t in enumerate(times):
            results.record(
                FileRun(f"file{i}.c", "profile", config, t, explicit_pointees=10 * (i + 1))
            )
    return results


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(["a", "bb"], [["1", "2"], ["33", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}  # separator row
        assert "33" in lines[4]

    def test_empty_rows(self):
        text = render_table(["x"], [])
        assert "x" in text


class TestBestNoPip:
    def test_picks_fastest_ip_without_pip(self):
        results = make_results()
        assert best_no_pip_config(results) == "IP+WL(FIFO)"

    def test_ignores_pip_and_ep(self):
        results = make_results()
        best = best_no_pip_config(results)
        assert "PIP" not in best and best.startswith("IP")

    def test_raises_without_candidates(self):
        results = RunResults()
        results.record(FileRun("f.c", "p", "EP+Naive", 0.1, 1))
        with pytest.raises(ValueError):
            best_no_pip_config(results)


class TestOracle:
    def test_oracle_runtimes(self):
        results = make_results()
        oracle = results.oracle_runtimes(["IP+WL(FIFO)", "EP+Naive"])
        assert oracle["file0.c"] == 0.001
        assert oracle["file2.c"] == 0.010


class TestRatioSeries:
    def test_fraction_above_one(self):
        series = RatioSeries("t", [("a", 0.5), ("b", 1.5), ("c", 3.0)])
        assert series.fraction_above_one == pytest.approx(2 / 3)

    def test_render(self):
        series = RatioSeries("demo", [("a", 0.5), ("b", 2.0)])
        text = render_ratio_series(series)
        assert "demo" in text and "50%" in text

    def test_empty_series(self):
        series = RatioSeries("empty", [])
        assert series.fraction_above_one == 0.0
        assert "0 files" in render_ratio_series(series)
