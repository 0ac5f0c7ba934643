"""Linking all TUs must equal analysing the concatenated source.

The linker's correctness oracle: open-mode linking implements C's
"paste the files together" semantics, so the joint canonical solution —
keyed by variable *names* and restricted to memory-object pointers —
must be byte-identical to the single-file analysis of the concatenation.
"""

import json

import pytest

from repro.analysis import parse_name
from repro.bench.corpus import ProgramSpec, generate_c_source, plan_program
from repro.pipeline import Pipeline


def named_json(solution):
    return json.dumps(
        solution.to_named_canonical(), sort_keys=True, separators=(",", ":")
    )


def link_and_concat_solutions(spec, config):
    pipeline = Pipeline()
    units = plan_program(spec)
    sources = [pipeline.source(u.name, generate_c_source(u)) for u in units]
    members = [pipeline.constraints(src) for src in sources]
    linked = pipeline.link(members).linked
    linked_sol = pipeline.solve(linked.program, config).solution

    concat = pipeline.source(
        spec.name + ".c", "\n".join(src.text for src in sources)
    )
    whole = pipeline.constraints(concat)
    concat_sol = pipeline.solve(whole.program, config).solution
    return linked_sol, concat_sol


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_linked_equals_concatenated(seed):
    spec = ProgramSpec(
        name=f"lvc{seed}", seed=seed, n_units=3, unit_size=30
    )
    config = parse_name("IP+WL(FIFO)+PIP")
    linked_sol, concat_sol = link_and_concat_solutions(spec, config)
    assert named_json(linked_sol) == named_json(concat_sol)


def test_linked_equals_concatenated_across_configs():
    spec = ProgramSpec(name="lvc-cfg", seed=5, n_units=3, unit_size=25)
    baseline = None
    for name in ["EP+OVS+WL(LRF)+OCD", "IP+WL(FIFO)", "IP+WL(FIFO)+PIP"]:
        linked_sol, concat_sol = link_and_concat_solutions(
            spec, parse_name(name)
        )
        text = named_json(linked_sol)
        assert text == named_json(concat_sol), name
        if baseline is None:
            baseline = text
        else:
            assert text == baseline, name


def test_two_handwritten_files():
    pipeline = Pipeline()
    a = "extern int *get_cell(void);\nint *ap;\nvoid use(void) { ap = get_cell(); }\n"
    b = "int cell;\nint *get_cell(void) { return &cell; }\n"
    config = parse_name("IP+WL(FIFO)")
    linked = pipeline.link_sources(
        [pipeline.source("a.c", a), pipeline.source("b.c", b)]
    ).linked
    linked_sol = pipeline.solve(linked.program, config).solution
    whole = pipeline.constraints(pipeline.source("ab.c", a + b))
    concat_sol = pipeline.solve(whole.program, config).solution
    assert named_json(linked_sol) == named_json(concat_sol)
