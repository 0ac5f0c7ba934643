"""repro — a full reproduction of "PIP: Making Andersen's Points-to
Analysis Sound and Practical for Incomplete C Programs" (CGO 2026).

Subpackages
-----------
``repro.ir``
    An LLVM-flavoured SSA intermediate representation (the substrate the
    analysis consumes).
``repro.frontend``
    A C compiler frontend: preprocessor, lexer, parser, semantic
    analysis, and lowering to the IR.
``repro.analysis``
    The paper's contribution: a sound Andersen-style points-to analysis
    for incomplete programs, with explicit/implicit Ω representations,
    the PIP technique, and the full configuration space of Table IV.
``repro.alias``
    Alias-analysis clients: a BasicAA reimplementation, the
    Andersen-backed analysis, their combination, and the pairwise
    conflict-rate client of §VI-A.
``repro.clients``
    Call-graph construction and mod/ref summaries for incomplete
    programs.
``repro.audit``
    Scenario clients (escape, dangling, races, indirect calls) turned
    into severity-ranked audit reports.
``repro.interchange``
    LIR constraint text: export any constraint program, import one
    without the C frontend.
``repro.link``
    Cross-TU linking of per-unit constraint programs.
``repro.pipeline``
    The staged, content-addressed pipeline from source to solution.
``repro.driver``
    The parallel, cached solve driver.
``repro.serve``
    The persistent analysis server.
``repro.obs``
    Counters, timers and traces that cost nothing when disabled.
``repro.bench``
    The evaluation harness: synthetic corpus generation, timing, and
    regeneration of every table and figure in the paper.

Quick start::

    from repro.analysis import analyze_source

    result = analyze_source(open("file.c").read(), "file.c")
    print(result.solution)
"""

__version__ = "1.0.0"

__all__ = [
    "ir", "frontend", "analysis", "alias", "clients", "audit", "interchange",
    "link", "pipeline", "driver", "serve", "obs", "bench",
]
