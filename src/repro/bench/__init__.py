"""Benchmark harness: corpus generation, timing, experiment runners and
table/figure rendering for the paper's evaluation (Tables III/V/VI,
Figures 9/10).

Import from the submodules (``repro.bench.runner``, ``.report``,
``.suite``, ``.corpus``, ``.timing``, ``.ladder``): the package itself
loads none of them, so ``python -m repro.bench.runner`` runs the runner
module exactly once.
"""
