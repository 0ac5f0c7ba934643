"""Shared helpers for the audit test suite.

``build_context`` mirrors the link path of ``repro audit`` (C and
``.lir`` members mixed), so determinism tests compare exactly what the
CLI would produce.
"""

import pathlib

from repro.analysis import DEFAULT_CONFIGURATION
from repro.audit import build_audit_context
from repro.link import LinkOptions
from repro.pipeline import Pipeline

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def build_context(files, config=None, cache=None, registry=None):
    """Link + solve fixture members; returns (pipeline, context, solution).

    ``files`` maps member names to source text (fixture names resolve
    via :func:`read_fixture`).
    """
    kwargs = {"cache": cache}
    if registry is not None:
        kwargs["registry"] = registry
    pipeline = Pipeline(**kwargs)
    sources = [
        pipeline.source(name, text) for name, text in files.items()
    ]
    ir_sources = [s for s in sources if not s.name.endswith(".lir")]
    members = [
        pipeline.constraints_from_text(s)
        if s.name.endswith(".lir")
        else pipeline.constraints(s)
        for s in sources
    ]
    linked = pipeline.link(members, LinkOptions()).linked
    configuration = config if config is not None else DEFAULT_CONFIGURATION
    solution = pipeline.solve(linked.program, configuration).solution
    context = build_audit_context(pipeline, ir_sources, linked, solution)
    return pipeline, context, solution


def fixture_context(names, **kwargs):
    """`build_context` over fixture files by name."""
    return build_context(
        {name: read_fixture(name) for name in names}, **kwargs
    )
