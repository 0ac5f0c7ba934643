"""Table III — benchmark summary.

Regenerates the corpus-statistics table (files, IR instructions, |V|,
|C| per benchmark) and benchmarks analysis *phase 1* (IR → constraints),
whose output sizes the table reports.
"""

from repro.analysis import build_constraints
from repro.bench.report import table3


def test_table3_constraint_generation(benchmark, corpus, corpus_files):
    modules = [f.module for f in corpus_files]

    def phase1():
        return [build_constraints(m) for m in modules]

    built = benchmark(phase1)
    assert len(built) == len(corpus_files)

    text = table3(corpus)
    print()
    print(text)

    # Shape checks against the paper's Table III: per-benchmark relative
    # sizes must be preserved by the scaled corpus.
    stats = {
        name: [f.stats() for f in files] for name, files in corpus.items()
    }
    mean = lambda name: sum(
        s["ir_instructions"] for s in stats[name]
    ) / len(stats[name])
    # perlbench files are the largest on average; mcf/xz the smallest.
    assert mean("500.perlbench") > mean("505.mcf")
    assert mean("500.perlbench") > mean("557.xz")
    # |C| grows with |V| in every benchmark.
    for name, rows in stats.items():
        for s in rows:
            assert s["num_constraints"] >= s["num_vars"] * 0.5
