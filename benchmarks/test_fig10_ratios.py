"""Figure 10 — per-file runtime ratios.

Top series: EP Oracle vs the fastest IP configuration without PIP
(ratio > 1 ⇒ IP wins on that file).  Bottom series: best-without-PIP vs
PIP (ratio > 1 ⇒ PIP wins).  The paper's qualitative findings are
asserted: IP wins on the bulk of files and on every expensive file; PIP
is slightly slower on many cheap files but collapses the worst cases.
"""

from repro.bench.report import figure10, render_ratio_series
from repro.bench.timing import distribution


def test_figure10_series(benchmark, experiment_results):
    top, bottom = benchmark(lambda: figure10(experiment_results))
    print()
    print(render_ratio_series(top, bins=15))
    print()
    print(render_ratio_series(bottom, bins=15))

    # Top: IP beats the EP Oracle on a clear majority of files…
    assert top.fraction_above_one > 0.45, (
        f"IP should win on most files; won on"
        f" {100 * top.fraction_above_one:.0f}%"
    )
    # …and especially on the most expensive files (the right of Fig. 10):
    from repro.bench.report import best_no_pip_config

    ip = experiment_results.runtimes[best_no_pip_config(experiment_results)]
    expensive = sorted(ip, key=ip.get)[-max(3, len(ip) // 10):]
    ratios = dict(top.points)
    wins = sum(1 for f in expensive if ratios.get(f, 0) > 1.0)
    assert wins >= len(expensive) * 0.6

    # Bottom: PIP's wins are concentrated in the tail (paper: for most
    # files PIP is slightly slower, for the slowest it is dramatically
    # faster).
    best_ratio = bottom.points[-1][1] if bottom.points else 0.0
    assert best_ratio > 1.5, "PIP should clearly win some pathological file"


def test_pip_tames_the_tail(benchmark, experiment_results):
    def tail_stats():
        plain = distribution(
            experiment_results.runtime_values("IP+WL(FIFO)")
        )
        pip = distribution(
            experiment_results.runtime_values("IP+WL(FIFO)+PIP")
        )
        return plain, pip

    plain, pip = benchmark(tail_stats)
    # The paper's Table V story: PIP turns the pathological Max into a
    # non-event while the medians stay comparable.
    assert pip["max"] <= plain["max"]
    assert pip["p50"] <= plain["p50"] * 2.0
