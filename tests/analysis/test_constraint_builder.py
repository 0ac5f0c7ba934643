"""Tests for phase 1: IR → constraints (repro.analysis.frontend)."""

import pytest

from repro.analysis import (
    EXTENDED_SUMMARIES,
    OMEGA,
    analyze_module,
    analyze_source,
    build_constraints,
)
from repro.frontend import compile_c


def build(src, **kwargs):
    module = compile_c(src, "t.c")
    return module, build_constraints(module, **kwargs)


class TestLinkageSeeding:
    def test_exported_symbols_marked_ea(self):
        _, built = build("int pub; static int priv; int api(void) { return 0; }")
        cp = built.program
        names_ea = {
            cp.var_names[v] for v in range(cp.num_vars) if cp.flag_ea[v]
        }
        assert "pub" in names_ea and "api" in names_ea
        assert "priv" not in names_ea

    def test_imported_function_gets_impfunc(self):
        _, built = build("extern int* mystery(void);\nint* f(void) { return mystery(); }")
        cp = built.program
        loc = cp.var_names.index("mystery")
        assert cp.flag_impfunc[loc]
        assert cp.flag_ea[loc]

    def test_static_function_no_escape(self):
        _, built = build("static int helper(void) { return 1; }\nint use(void) { return helper(); }")
        cp = built.program
        loc = cp.var_names.index("helper")
        assert not cp.flag_ea[loc]


class TestCasts:
    def test_ptrtoint_marks_pointees_escape(self):
        _, built = build("unsigned long f(int* p) { return (unsigned long)p; }")
        cp = built.program
        assert any(cp.flag_pe)

    def test_inttoptr_marks_points_to_external(self):
        _, built = build("int* f(unsigned long v) { return (int*)v; }")
        cp = built.program
        assert any(cp.flag_pte)

    def test_roundtrip_cast_is_sound(self):
        result = analyze_source(
            "static int secret;\n"
            "int* f(void) {\n"
            "    int* p = &secret;\n"
            "    unsigned long bits = (unsigned long)p;\n"
            "    return (int*)bits;\n"
            "}"
        )
        sol = result.solution
        # The cast exposes &secret: secret must be externally accessible,
        # and the result may point to it (via Ω).
        assert "secret" in sol.names(sol.external)

    def test_pointer_to_pointer_cast_no_escape(self):
        result = analyze_source(
            "static int quiet;\n"
            "char* f(void) { int* p = &quiet; return (char*)p; }"
        )
        # f is exported, its return value escapes -> quiet escapes; make
        # f static to check the cast itself adds nothing:
        result2 = analyze_source(
            "static int quiet;\n"
            "static char* f(void) { int* p = &quiet; return (char*)p; }\n"
            "int keep(void) { return f() != 0; }"
        )
        assert "quiet" not in result2.solution.names(result2.solution.external)


class TestSmuggling:
    def test_scalar_load_marks_lscalar(self):
        _, built = build("int f(char* p) { return *p; }")
        cp = built.program
        assert any(cp.flag_lscalar)

    def test_scalar_store_marks_sscalar(self):
        _, built = build("void f(char* p) { *p = 0; }")
        cp = built.program
        assert any(cp.flag_sscalar)

    def test_pointer_smuggling_end_to_end(self):
        # Write a pointer's bytes through a char*; the pointee escapes.
        result = analyze_source(
            "static int hidden;\n"
            "static char sink[8];\n"
            "void expose(void) {\n"
            "    int** pp;\n"
            "    int* p = &hidden;\n"
            "    pp = (int**)sink;\n"
            "    *pp = p;\n"
            "    char c = sink[0];\n"  # scalar load of smuggled pointer
            "    (void)c;\n"
            "}"
        )
        # hold on: (void)c is a cast-expression statement; simpler check:
        assert "hidden" in result.solution.names(result.solution.external)


class TestHeapAndSummaries:
    def test_malloc_creates_heap_site(self):
        module, built = build(
            "extern void* malloc(unsigned long);\n"
            "int* f(void) { return malloc(4); }"
        )
        assert len(built.heap_site_of) == 1
        site = next(iter(built.heap_site_of.values()))
        assert built.program.in_m[site] and built.program.in_p[site]

    def test_two_sites_distinct(self):
        _, built = build(
            "extern void* malloc(unsigned long);\n"
            "void f(int** a, int** b) { *a = malloc(4); *b = malloc(4); }"
        )
        assert len(built.heap_site_of) == 2

    def test_malloc_result_not_external(self):
        result = analyze_source(
            "extern void* malloc(unsigned long);\n"
            "static int use(void) { int* p = malloc(4); return p ? *p : 0; }\n"
            "int keep(void) { return use(); }"
        )
        sol = result.solution
        heap_names = [n for n in sol.names(sol.external) if str(n).startswith("heap.")]
        assert not heap_names  # the allocation never escapes

    def test_free_adds_no_constraints(self):
        _, built = build(
            "extern void free(void*);\n"
            "void f(int* p) { free(p); }"
        )
        cp = built.program
        assert not cp.calls  # the call was summarised away
        assert not any(cp.flag_pe)  # and p did not escape

    def test_memcpy_propagates_pointees(self):
        result = analyze_source(
            "extern void* memcpy(void*, const void*, unsigned long);\n"
            "static int x;\n"
            "void f(void) {\n"
            "    int* src[1]; int* dst[1];\n"
            "    src[0] = &x;\n"
            "    memcpy(dst, src, sizeof(src));\n"
            "    **dst = 1;\n"
            "}"
        )
        program = result.built.program
        dst = program.var_names.index("f.dst")
        assert "x" in result.solution.names(result.solution.points_to(dst))

    def test_memcpy_returns_dst(self):
        # Found by the concrete-execution oracle: the result register of
        # a summarised memcpy call holds dst at run time.
        result = analyze_source(
            "extern void* memcpy(void*, const void*, unsigned long);\n"
            "static int x;\n"
            "void* f(int* src) {\n"
            "    return memcpy(&x, src, sizeof(int));\n"
            "}"
        )
        solution = result.solution
        ret = result.built.program.var_names.index("f.ret")
        assert "x" in solution.names(solution.points_to(ret))

    def test_extended_summaries_calloc(self):
        module, built = build(
            "extern void* calloc(unsigned long, unsigned long);\n"
            "int* f(void) { return calloc(1, 4); }",
            summaries=EXTENDED_SUMMARIES,
        )
        assert len(built.heap_site_of) == 1

    def test_summary_function_address_taken_falls_back(self):
        _, built = build(
            "extern void* malloc(unsigned long);\n"
            "void* (*alloc_hook)(unsigned long) = malloc;"
        )
        cp = built.program
        loc = cp.var_names.index("malloc")
        assert cp.flag_impfunc[loc]  # sound fallback for indirect calls


class TestCallsAndFunctions:
    def test_direct_call_uses_dummy_pointer(self):
        _, built = build(
            "static int callee(int* p) { return *p; }\n"
            "int caller(int* q) { return callee(q); }"
        )
        cp = built.program
        assert len(cp.calls) == 1
        target = cp.calls[0].target
        callee_loc = cp.var_names.index("callee")
        assert cp.base[target] == {callee_loc}

    def test_variadic_flag_set(self):
        _, built = build("int v(int* fmt, ...) { return 0; }")
        assert built.program.funcs[0].variadic

    def test_non_pointer_args_are_none(self):
        _, built = build("int f(int a, int* b, double c) { return a; }")
        args = built.program.funcs[0].args
        assert args[0] is None and args[1] is not None and args[2] is None

    def test_null_argument_uses_null_register(self):
        result = analyze_source(
            "static int sink(int* p) { return p == 0; }\n"
            "int f(void) { return sink(0); }"
        )
        program = result.built.program
        formal = program.var_names.index("sink.p")
        # Passing NULL adds no pointees and no external flag.
        assert result.solution.points_to(formal) == frozenset()

    def test_global_initializer_pointers(self):
        _, built = build("static int a, b;\nint* table[2] = { &a, &b };")
        cp = built.program
        tab = cp.var_names.index("table")
        assert cp.base[tab] == {cp.var_names.index("a"), cp.var_names.index("b")}


class TestVarStats:
    def test_num_constraints_counts_everything(self):
        _, built = build("int z;\nint* f(int* p) { return p; }")
        assert built.program.num_constraints() > 0

    def test_registers_not_in_m(self):
        _, built = build("int* f(int* p) { return p; }")
        cp = built.program
        formal = cp.var_names.index("f.p")
        assert cp.in_p[formal] and not cp.in_m[formal]
