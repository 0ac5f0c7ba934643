"""The reduction-exactness matrix (the PR's locked acceptance oracle).

Reduction must be invisible: for *every* configuration in the space and
both points-to-set backends, solving with ``reduce`` on produces a
byte-identical named canonical solution to solving without it.  The
matrix runs the full configuration enumeration over random constraint
programs, a representative slice over generated C programs (through the
pipeline), and the cross-TU link path in both open and internalize
modes.
"""

import dataclasses
import json

import pytest

from repro.analysis import (
    enumerate_configurations,
    parse_name,
    run_configuration,
)
from repro.analysis.testing import random_program
from repro.bench.corpus import ProgramSpec, generate_c_source, plan_program
from repro.link import LinkOptions
from repro.pipeline import Pipeline

REPRESENTATIVE = [
    "IP+Naive",
    "EP+Naive",
    "IP+WL(FIFO)",
    "IP+WL(LRF)",
    "IP+WL(TOPO)",
    "EP+WL(FIFO)",
    "EP+WL(2LRF)",
    "IP+WL(FIFO)+PIP",
    "IP+WL(FIFO)+OCD",
    "IP+WL(FIFO)+HCD+LCD",
    "EP+WL(FIFO)+LCD+DP",
    "IP+OVS+WL(LRF)+OCD+PIP",
    "EP+OVS+WL(2LRF)+HCD+LCD+DP",
]


def named_json(solution):
    return json.dumps(
        solution.to_named_canonical(), sort_keys=True, separators=(",", ":")
    )


def with_reduce(config, pts="set"):
    return dataclasses.replace(config, reduce=True, pts=pts)


@pytest.mark.parametrize("seed", [5, 17])
def test_full_configuration_matrix(seed):
    """Every configuration × {set, bitset}: reduce on ≡ reduce off."""
    program = random_program(seed, n_vars=30, n_constraints=60)
    for config in enumerate_configurations():
        oracle = named_json(run_configuration(program, config))
        for pts in ("set", "bitset"):
            got = named_json(
                run_configuration(program, with_reduce(config, pts))
            )
            assert got == oracle, f"{config.name} / {pts} on seed {seed}"


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11, 23, 42, 99])
def test_representative_configs_on_random_programs(seed):
    program = random_program(seed, n_vars=40, n_constraints=85)
    for name in REPRESENTATIVE:
        config = parse_name(name)
        oracle = named_json(run_configuration(program, config))
        for pts in ("set", "bitset"):
            got = named_json(
                run_configuration(program, with_reduce(config, pts))
            )
            assert got == oracle, f"{name} / {pts} on seed {seed}"


@pytest.mark.parametrize("seed", [3, 11])
def test_generated_c_program_through_pipeline(seed):
    """Reduction exactness on realistic constraint programs (generated C
    sources, full frontend → constraints path)."""
    pipeline = Pipeline()
    spec = ProgramSpec(name=f"rex{seed}", seed=seed, n_units=1, unit_size=45)
    (unit,) = plan_program(spec)
    art = pipeline.constraints(pipeline.source(unit.name, generate_c_source(unit)))
    for name in ["IP+WL(FIFO)", "IP+WL(FIFO)+PIP", "EP+WL(FIFO)+LCD+DP"]:
        config = parse_name(name)
        oracle = named_json(
            run_configuration(art.program, config)
        )
        for pts in ("set", "bitset"):
            got = named_json(
                run_configuration(art.program, with_reduce(config, pts))
            )
            assert got == oracle, f"{name} / {pts}"


class TestMultiTU:
    """Reduction composes with cross-TU linking in both link modes."""

    @staticmethod
    def build(seed=29, n_units=3):
        pipeline = Pipeline()
        spec = ProgramSpec(
            name=f"rml{seed}", seed=seed, n_units=n_units, unit_size=30
        )
        sources = [
            pipeline.source(u.name, generate_c_source(u))
            for u in plan_program(spec)
        ]
        members = [pipeline.constraints(src) for src in sources]
        return pipeline, sources, members

    def test_open_link_vs_concat_with_reduce(self):
        """The linker's own oracle — open-mode link ≡ concatenated
        source — must keep holding when both sides solve reduced."""
        pipeline, sources, members = self.build()
        config = with_reduce(parse_name("IP+WL(FIFO)+PIP"))
        linked = pipeline.link(members).linked
        linked_sol = pipeline.solve(linked.program, config).solution
        concat = pipeline.source(
            "rml.c", "\n".join(src.text for src in sources)
        )
        whole = pipeline.constraints(concat)
        concat_sol = pipeline.solve(whole.program, config).solution
        assert named_json(linked_sol) == named_json(concat_sol)

    @pytest.mark.parametrize(
        "options",
        [LinkOptions(), LinkOptions(internalize=True, keep=("main",))],
        ids=["open", "internalize"],
    )
    def test_linked_program_reduce_on_off(self, options):
        pipeline, _sources, members = self.build()
        linked = pipeline.link(members, options).linked
        for name in ["IP+WL(FIFO)", "EP+WL(FIFO)+LCD+DP"]:
            config = parse_name(name)
            oracle = named_json(
                run_configuration(linked.program, config)
            )
            for pts in ("set", "bitset"):
                got = named_json(
                    run_configuration(
                        linked.program, with_reduce(config, pts)
                    )
                )
                assert got == oracle, f"{name} / {pts}"
