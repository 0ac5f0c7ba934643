"""End-to-end fuzzing: generated C → frontend → analysis, with
configuration agreement and soundness invariants (hypothesis-driven)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    OMEGA,
    build_constraints,
    parse_name,
    run_configuration,
)
from repro.bench.corpus import FileSpec, generate_c_source
from repro.frontend import compile_c

CONFIGS = ["IP+Naive", "EP+Naive", "IP+WL(FIFO)+PIP"]


@st.composite
def file_specs(draw):
    return FileSpec(
        name="fuzz.c",
        seed=draw(st.integers(min_value=0, max_value=100_000)),
        size=draw(st.integers(min_value=10, max_value=60)),
        n_structs=draw(st.integers(min_value=0, max_value=3)),
        n_globals=draw(st.integers(min_value=2, max_value=10)),
        n_functions=draw(st.integers(min_value=1, max_value=5)),
        escape_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
        cast_rate=draw(st.floats(min_value=0.0, max_value=0.15)),
        n_imports=draw(st.integers(min_value=0, max_value=10)),
    )


class TestEndToEndFuzz:
    @given(file_specs())
    @settings(max_examples=25, deadline=None)
    def test_generated_c_compiles_and_configs_agree(self, spec):
        source = generate_c_source(spec)
        module = compile_c(source, spec.name)
        built = build_constraints(module)
        oracle = run_configuration(built.program, parse_name(CONFIGS[0]))
        for name in CONFIGS[1:]:
            sol = run_configuration(built.program, parse_name(name))
            assert sol == oracle, f"{name}:\n{oracle.diff(sol)}"

    @given(file_specs())
    @settings(max_examples=15, deadline=None)
    def test_soundness_invariants(self, spec):
        source = generate_c_source(spec)
        module = compile_c(source, spec.name)
        built = build_constraints(module)
        sol = run_configuration(built.program, parse_name("IP+WL(FIFO)+PIP"))
        program = built.program
        external = sol.external
        # Escape closure over explicit pointees.
        for y in external:
            if program.in_p[y]:
                for x in sol.points_to(y):
                    assert x == OMEGA or x in external
        # Ω-expansion: unknown-origin pointers cover all of E.
        for p in sol.pointers():
            s = sol.points_to(p)
            if OMEGA in s:
                assert external <= s
        # Static symbols never exported: internal globals with no uses
        # outside constraints cannot be in E unless something leaked them
        # (can't assert absence in general), but exported globals must be.
        for gv in module.globals.values():
            if gv.is_exported:
                loc = built.memloc_of[gv]
                assert loc in external
