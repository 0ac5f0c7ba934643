"""The escape audit against its expanded-set reference.

``repro.audit.escape`` reads each pointer's stored set, where Ω leaves
E implicit: reachability adds E once, and a heap site in E gets its
explicit holders merged with every widened pointer.  Its report must
equal :mod:`tests.audit.reference_escape`'s, the walk over the expanded
view it replaced, byte for byte.

Inputs: each ``examples/corpus/*.c`` alone and all four linked, the
audit fixtures (``leak.lir`` is symbol-free, so its roots are
inferred), and two generated linked programs, each under
IP+WL(FIFO)+PIP, EP+WL(FIFO) and IP+Reduce+WL(FIFO)+PIP on both
points-to backends plus IP+Naive; then 557.xz at full scale.
"""

import dataclasses
import functools
import pathlib

import pytest

from repro.analysis import OMEGA, parse_name
from repro.audit import AuditContext, canonical_json, run_audit
from repro.bench.corpus import PROFILES, generate_c_source, plan_profile_program
from tests.audit.reference_escape import _MAX_HOLDERS, reference_report
from tests.audit.util import FIXTURES, build_context

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "corpus"
CORPUS_FILES = sorted(path.name for path in CORPUS.glob("*.c"))
GENERATED = ("505.mcf", "557.xz")


@functools.lru_cache(maxsize=None)
def input_files(name):
    """Member name → source text of one oracle input."""
    if name == "corpus-linked":
        return {f: (CORPUS / f).read_text() for f in CORPUS_FILES}
    if name in CORPUS_FILES:
        return {name: (CORPUS / name).read_text()}
    if name in GENERATED:
        specs = plan_profile_program(
            PROFILES[name], files_scale=0.2, size_scale=0.01, seed=3
        )
        return {
            pathlib.Path(spec.name).name: generate_c_source(spec)
            for spec in specs
        }
    return {name: (FIXTURES / name).read_text()}


INPUTS = (
    CORPUS_FILES
    + ["corpus-linked", "leak.c", "race.c", "dangling.c", "leak.lir"]
    + list(GENERATED)
)
CONFIGS = [
    (name, pts)
    for name in ("IP+WL(FIFO)+PIP", "EP+WL(FIFO)", "IP+Reduce+WL(FIFO)+PIP")
    for pts in ("set", "bitset")
] + [("IP+Naive", "set")]


def assert_matches_reference(context):
    report = run_audit(context, "escape")
    expected = reference_report(context)
    assert canonical_json(report.to_canonical_dict()) == canonical_json(
        expected.to_canonical_dict()
    )
    return report


@pytest.mark.parametrize("config_name,pts", CONFIGS)
@pytest.mark.parametrize("name", INPUTS)
def test_escape_matches_the_expanded_reference(name, config_name, pts):
    config = dataclasses.replace(parse_name(config_name), pts=pts)
    _, context, _ = build_context(input_files(name), config=config)
    assert_matches_reference(context)


@pytest.mark.parametrize("name", ["arena.c", "hashtable.c"])
def test_the_merged_holder_path_is_covered(name):
    # Heap sites in E whose holders include widened pointers: the
    # explicit and widened lists are merged, and the "more holders"
    # line counts both.  These two inputs are the ones that reach it.
    _, context, solution = build_context(input_files(name))
    report = assert_matches_reference(context)
    names = context.program.var_names
    widened = {
        names[p] for p, s in solution.stored_sets().items() if OMEGA in s
    }
    merged = [
        f
        for f in report.findings
        if f.kind == "heap-escape"
        and any(e.subjects[0] in widened for e in f.evidence)
        and f.evidence[_MAX_HOLDERS].detail.endswith("more holders")
    ]
    assert len(merged) == 2


def test_xz_matches_the_expanded_reference(xz_solution):
    context = AuditContext.from_solution(xz_solution.program, xz_solution)
    report = assert_matches_reference(context)
    assert report.counts()["by_kind"] == {"heap-leak": 267}


def test_constraint_tier_audits_expand_no_omega_set(xz_solution):
    # A fresh solution: the session fixture's expansion memo is shared
    # with the tests that read the expanded view.
    solution = xz_solution.rebase(xz_solution.program)
    context = AuditContext.from_solution(solution.program, solution)
    run_audit(context, "escape")
    run_audit(context, "calls")
    assert solution._expanded == {}
