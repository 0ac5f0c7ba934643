"""Property tests for the soundness story of cross-TU linking.

Two theorems from the paper's over-approximation argument:

1. **Containment** — the per-TU (incomplete-program) solution, once
   concretized, over-approximates the whole-program solution on the
   TU's own variables: linking can only *refine*.
2. **Monotone Ω-shrinkage** — along any TU-prefix chain, the first
   unit's externally-accessible set, Ω-pointer count and ImpFunc count
   never grow.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OMEGA, parse_name
from repro.analysis.omega import concretize
from repro.bench.corpus import ProgramSpec, generate_c_source, plan_program
from repro.bench.ladder import check_monotone, ladder_over_members
from repro.pipeline import Pipeline

CONFIG = parse_name("IP+WL(FIFO)+PIP")


def build_members(seed, n_units, unit_size):
    pipeline = Pipeline()
    spec = ProgramSpec(
        name=f"prop{seed}", seed=seed, n_units=n_units, unit_size=unit_size
    )
    sources = [
        pipeline.source(u.name, generate_c_source(u))
        for u in plan_program(spec)
    ]
    return pipeline, [pipeline.constraints(src) for src in sources]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), n_units=st.integers(2, 4))
def test_whole_program_contained_in_per_tu_solution(seed, n_units):
    pipeline, members = build_members(seed, n_units, unit_size=20)
    linked = pipeline.link(members).linked
    joint_sol = pipeline.solve(linked.program, CONFIG).solution
    joint_external = set(joint_sol.external)

    for member in members:
        program = member.program
        tu_sol = pipeline.solve(program, CONFIG).solution
        mapping = linked.var_maps[member.name]
        image = set(mapping)

        # Escape containment: a TU location escaped in the whole program
        # must already be escaped in the TU's own (more abstract) run.
        tu_external_mapped = {mapping[x] for x in tu_sol.external}
        assert joint_external & image <= tu_external_mapped

        for p in range(program.num_vars):
            if not program.in_p[p]:
                continue
            try:
                tu_set = concretize(tu_sol.points_to(p), tu_sol.external)
                joint_set = concretize(
                    joint_sol.points_to(mapping[p]), joint_sol.external
                )
            except KeyError:
                continue
            tu_mapped = {
                x if x == OMEGA else mapping[x] for x in tu_set
            }
            # Whole-program pointees inside this TU's image must appear
            # in the TU's concretized set; pointees outside the image
            # (other TUs' memory) are abstracted by the TU's Ω.
            overflow = (joint_set & image) - tu_mapped
            assert not overflow, (
                f"{member.name} var {program.var_names[p]} misses "
                f"{sorted(overflow)}"
            )
            if (joint_set - image) - {OMEGA}:
                assert OMEGA in tu_set


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), n_units=st.integers(2, 4))
def test_omega_shrinkage_is_monotone_along_prefixes(seed, n_units):
    pipeline, members = build_members(seed, n_units, unit_size=20)
    rungs = ladder_over_members(pipeline, members, CONFIG)
    assert len(rungs) == n_units
    assert check_monotone(rungs) == []
