"""The interchange round-trip oracle (this PR's locked guarantee).

Exporting any IP-form :class:`ConstraintProgram` and re-importing the
text must rebuild a program with the identical construction-order
canonical digest, and solving the re-import must reproduce the named
canonical solution byte-for-byte — across real frontend output (single
TUs and linked joint programs), synthetic random programs, both
points-to-set backends and the Reduce axis.
"""

import json
import pathlib

import pytest

from repro.analysis import parse_name, run_configuration
from repro.analysis.testing import random_program
from repro.bench.corpus import ProgramSpec, generate_c_source, plan_program
from repro.interchange import (
    InterchangeError,
    export_constraint_text,
    parse_constraint_text,
)
from repro.link import LinkOptions
from repro.pipeline import Pipeline

CORPUS = sorted(
    (pathlib.Path(__file__).parents[2] / "examples" / "corpus").glob("*.c")
)

#: backend × reduce matrix the oracle is locked across
CONFIGS = [
    "IP+WL(LRF)+PIP",
    "IP+Reduce+WL(LRF)+PIP",
    "IP+WL(LRF)+PIP+PTS(bitset)",
    "IP+Reduce+WL(LRF)+PIP+PTS(bitset)",
    "EP+WL(LRF)",
]


def named_json(solution):
    return json.dumps(
        solution.to_named_canonical(), sort_keys=True, separators=(",", ":")
    )


def assert_roundtrip(program):
    text = export_constraint_text(program)
    back = parse_constraint_text(text)
    assert back.digest() == program.digest()
    # The canonical text is a fixed point: re-exporting the re-import
    # reproduces it byte-for-byte.
    assert export_constraint_text(back) == text
    for name in CONFIGS:
        config = parse_name(name)
        assert named_json(run_configuration(back, config)) == named_json(
            run_configuration(program, config)
        ), name
    return back


class TestCorpusRoundTrip:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_single_tu(self, path):
        pipeline = Pipeline()
        program = pipeline.constraints(
            pipeline.source(path.name, path.read_text())
        ).program
        assert_roundtrip(program)

    @pytest.mark.parametrize("internalize", [False, True])
    def test_linked_joint_program(self, internalize):
        pipeline = Pipeline()
        members = [
            pipeline.constraints(pipeline.source(p.name, p.read_text()))
            for p in CORPUS
        ]
        options = LinkOptions(internalize=internalize, keep=("main", "serve"))
        program = pipeline.link(members, options).linked.program
        assert_roundtrip(program)


class TestSyntheticRoundTrip:
    @pytest.mark.parametrize("seed", [0, 7, 23, 91])
    def test_random_programs(self, seed):
        program = random_program(seed, n_vars=30, n_constraints=70)
        assert_roundtrip(program)

    def test_generated_multi_unit_link(self):
        spec = ProgramSpec(name="ix", seed=5, n_units=4, unit_size=24)
        pipeline = Pipeline()
        members = [
            pipeline.constraints(
                pipeline.source(u.name, generate_c_source(u))
            )
            for u in plan_program(spec)
        ]
        program = pipeline.link(members, LinkOptions()).linked.program
        assert_roundtrip(program)


class TestExportRestrictions:
    def test_ep_lowered_program_is_rejected(self):
        from repro.analysis.omega import lower_to_explicit

        program = random_program(3, n_vars=12, n_constraints=20)
        with pytest.raises(InterchangeError, match="EP-lowered"):
            export_constraint_text(lower_to_explicit(program))

    def test_duplicate_names_roundtrip_via_index_refs(self):
        from repro.analysis.constraints import ConstraintProgram, writable_set

        program = ConstraintProgram("dups")
        a = program.add_memory("x", pointer_compatible=True)
        b = program.add_memory("x", pointer_compatible=True)
        p = program.add_register("weird name")  # unsafe: space
        writable_set(program.base, p).add(a)
        writable_set(program.base, p).add(b)
        text = export_constraint_text(program)
        assert "@0" in text and "@1" in text and "@2" in text
        assert parse_constraint_text(text).digest() == program.digest()
