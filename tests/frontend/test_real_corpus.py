"""The hand-written realistic corpus in examples/corpus/ must compile,
verify, analyse under multiple configurations with identical solutions,
and exhibit sensible escape behaviour."""

import pathlib

import pytest

from repro.analysis import (
    analyze_module,
    build_constraints,
    parse_name,
    run_configuration,
    validate_identical,
)
from repro.clients import EXTERNAL, build_call_graph, compute_mod_ref
from repro.frontend import compile_c

CORPUS = sorted(
    (pathlib.Path(__file__).parent / ".." / ".." / "examples" / "corpus")
    .resolve()
    .glob("*.c")
)
CONFIGS = ["IP+Naive", "EP+Naive", "IP+WL(FIFO)+PIP", "EP+OVS+WL(LRF)+OCD"]


@pytest.fixture(params=CORPUS, ids=lambda p: p.name)
def corpus_module(request):
    return compile_c(request.param.read_text(), request.param.name)


def test_corpus_exists():
    assert len(CORPUS) >= 4


class TestRealCorpus:
    def test_compiles_and_verifies(self, corpus_module):
        assert corpus_module.instruction_count() > 50

    def test_configurations_agree(self, corpus_module):
        built = build_constraints(corpus_module)
        solutions = [
            run_configuration(built.program, parse_name(c)) for c in CONFIGS
        ]
        validate_identical(solutions)

    def test_clients_run(self, corpus_module):
        result = analyze_module(corpus_module)
        graph = build_call_graph(result)
        summaries = compute_mod_ref(result)
        assert summaries  # every defined function got a summary
        # Exported functions are externally callable.
        for fn in corpus_module.defined_functions():
            if fn.is_exported:
                assert graph.may_call(EXTERNAL, fn)


class TestSpecificFacts:
    def test_hashtable_heap_escapes_via_return(self):
        path = next(p for p in CORPUS if p.name == "hashtable.c")
        module = compile_c(path.read_text(), path.name)
        result = analyze_module(module)
        sol = result.solution
        # table_new returns malloc'd memory from an exported function:
        # at least one heap site must be externally accessible.
        heap = [n for n in sol.names(sol.external) if str(n).startswith("heap.")]
        assert heap

    def test_eventloop_static_state_partially_private(self):
        path = next(p for p in CORPUS if p.name == "eventloop.c")
        module = compile_c(path.read_text(), path.name)
        result = analyze_module(module)
        external = result.solution.names(result.solution.external)
        # `handlers` holds ctx pointers handed to unknown callbacks and
        # receives unknown handler pointers: it escapes.
        # `shutting_down` is a plain static int nobody exports a pointer
        # to: it stays private.
        assert "shutting_down" not in external

    def test_eventloop_indirect_dispatch_reaches_external(self):
        path = next(p for p in CORPUS if p.name == "eventloop.c")
        module = compile_c(path.read_text(), path.name)
        result = analyze_module(module)
        graph = build_call_graph(result)
        dispatch = module.functions["dispatch"]
        callees = graph.callees_of(dispatch)
        # Handlers registered by external modules: dispatch may call
        # external code AND the internal on_tick.
        assert EXTERNAL in callees
        assert module.functions["on_tick"] in callees

    def test_arena_alignment_cast_forces_escape(self):
        path = next(p for p in CORPUS if p.name == "arena.c")
        module = compile_c(path.read_text(), path.name)
        result = analyze_module(module)
        sol = result.solution
        # The ptr→int→ptr alignment round-trip exposes the current
        # block: arena blocks are externally accessible.
        heap = [n for n in sol.names(sol.external) if str(n).startswith("heap.")]
        assert heap
