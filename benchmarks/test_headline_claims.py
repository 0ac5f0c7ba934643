"""The paper's headline numbers (abstract & §VI text), paper vs measured.

Absolute factors depend on the host and on the Python cost model (bulk
set operations are comparatively cheap here, which attenuates the
EP-vs-IP gap at small file sizes — see EXPERIMENTS.md), so the
assertions check *direction and rough magnitude*, not exact values:

- implicit pointees beat the EP Oracle in total solver runtime;
- PIP gives a further speedup over the best configuration without it
  (paper: 1.9×);
- a large fraction of pointers may point to external memory (paper 51%);
- Andersen+BasicAA removes a large share of MayAlias answers (paper 40%).
"""

from repro.bench.report import headline_claims, render_headlines


def test_headline_claims(benchmark, experiment_results, corpus, precision_results):
    claims = benchmark.pedantic(
        lambda: headline_claims(
            experiment_results, corpus, precision_results
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_headlines(claims))

    assert claims["ip_vs_ep_oracle"] > 1.0, (
        "the implicit representation must beat the EP Oracle overall"
    )
    assert claims["pip_vs_best_no_pip"] > 1.0, (
        "PIP must beat the best configuration without PIP overall"
    )
    assert 0.15 <= claims["external_pointer_fraction"] <= 0.9
    assert claims["mayalias_reduction"] > 0.15
