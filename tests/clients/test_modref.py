"""Mod/ref summary tests."""

import pytest

from repro.analysis import OMEGA, analyze_module
from repro.clients import call_may_clobber, compute_mod_ref
from repro.frontend import compile_c
from repro.ir import Call


def summaries_for(src):
    module = compile_c(src, "t.c")
    result = analyze_module(module)
    return module, result, compute_mod_ref(result)


def loc(result, name):
    return result.built.program.var_names.index(name)


class TestLocalEffects:
    def test_store_is_mod(self):
        m, result, s = summaries_for("static int g;\nvoid w(void) { g = 1; }")
        assert loc(result, "g") in s[m.functions["w"]].mod

    def test_load_is_ref(self):
        m, result, s = summaries_for("static int g;\nint r(void) { return g; }")
        fn = m.functions["r"]
        assert loc(result, "g") in s[fn].ref
        assert loc(result, "g") not in s[fn].mod

    def test_pointer_store_mods_targets(self):
        m, result, s = summaries_for(
            "static int a, b;\n"
            "void w(int which) { int* p = which ? &a : &b; *p = 1; }"
        )
        fn = m.functions["w"]
        assert loc(result, "a") in s[fn].mod
        assert loc(result, "b") in s[fn].mod


class TestTransitiveEffects:
    def test_callee_effects_propagate(self):
        m, result, s = summaries_for(
            "static int g;\n"
            "static void inner(void) { g = 1; }\n"
            "void outer(void) { inner(); }"
        )
        assert loc(result, "g") in s[m.functions["outer"]].mod

    def test_recursive_functions_converge(self):
        m, result, s = summaries_for(
            "static int g;\n"
            "static void a(int n);\n"
            "static void b(int n) { g = n; if (n) a(n - 1); }\n"
            "static void a(int n) { if (n) b(n - 1); }\n"
            "void top(int n) { a(n); }"
        )
        assert loc(result, "g") in s[m.functions["top"]].mod

    def test_external_call_clobbers_external_memory(self):
        m, result, s = summaries_for(
            "extern void unknown(void);\n"
            "int shared;\n"
            "static int hidden;\n"
            "void f(void) { unknown(); }"
        )
        fn = m.functions["f"]
        assert OMEGA in s[fn].mod
        assert loc(result, "shared") in s[fn].mod
        assert loc(result, "hidden") not in s[fn].mod


class TestClobberQueries:
    def test_private_memory_not_clobbered_by_external_call(self):
        src = (
            "extern void unknown(void);\n"
            "int f(void) {\n"
            "    int local = 1;\n"
            "    int* p = &local;\n"
            "    unknown();\n"
            "    return *p;\n"
            "}"
        )
        module = compile_c(src, "t.c")
        result = analyze_module(module)
        summaries = compute_mod_ref(result)
        fn = module.functions["f"]
        call = next(i for i in fn.instructions() if isinstance(i, Call))
        load = [i for i in fn.instructions() if i.opcode == "load"][-1]
        assert not call_may_clobber(summaries, result, call, load.pointer)

    def test_escaped_memory_clobbered_by_external_call(self):
        src = (
            "extern void publish(int*);\n"
            "extern void unknown(void);\n"
            "int f(void) {\n"
            "    int leaked = 1;\n"
            "    publish(&leaked);\n"
            "    int* p = &leaked;\n"
            "    unknown();\n"
            "    return *p;\n"
            "}"
        )
        module = compile_c(src, "t.c")
        result = analyze_module(module)
        summaries = compute_mod_ref(result)
        fn = module.functions["f"]
        calls = [i for i in fn.instructions() if isinstance(i, Call)]
        unknown_call = calls[-1]
        load = [i for i in fn.instructions() if i.opcode == "load"][-1]
        assert call_may_clobber(summaries, result, unknown_call, load.pointer)

    def test_internal_call_with_disjoint_footprint(self):
        src = (
            "static int a, b;\n"
            "static void touch_a(void) { a = 1; }\n"
            "int f(void) {\n"
            "    int* p = &b;\n"
            "    touch_a();\n"
            "    return *p;\n"
            "}"
        )
        module = compile_c(src, "t.c")
        result = analyze_module(module)
        summaries = compute_mod_ref(result)
        fn = module.functions["f"]
        call = next(i for i in fn.instructions() if isinstance(i, Call))
        load = [i for i in fn.instructions() if i.opcode == "load"][-1]
        assert not call_may_clobber(summaries, result, call, load.pointer)

    def test_private_callee_does_not_clobber_parameter_target(self):
        # A parameter of an exported function points only to external
        # memory; a callee that writes a never-escaped static cannot
        # change it.
        src = (
            "static int counter;\n"
            "static void bump(void) { counter++; }\n"
            "int f(int* p) {\n"
            "    int a = *p;\n"
            "    bump();\n"
            "    return a + *p;\n"
            "}"
        )
        module = compile_c(src, "t.c")
        result = analyze_module(module)
        summaries = compute_mod_ref(result)
        fn = module.functions["f"]
        call = next(i for i in fn.instructions() if isinstance(i, Call))
        load = [i for i in fn.instructions() if i.opcode == "load"][-1]
        assert loc(result, "counter") in summaries[module.functions["bump"]].mod
        assert not call_may_clobber(summaries, result, call, load.pointer)
