"""Unit tests for the cross-TU constraint linker (repro.link)."""

import pytest

from repro.analysis import OMEGA, build_constraints, parse_name
from repro.analysis.config import prepare_program, solve_prepared
from repro.frontend import compile_c
from repro.link import LinkError, LinkOptions, link_programs
from repro.pipeline import Pipeline

CONFIG = parse_name("IP+WL(FIFO)")


def program_of(name, source):
    pipeline = Pipeline()
    return pipeline.constraints(pipeline.source(name, source)).program


def solve(program):
    return solve_prepared(prepare_program(program, CONFIG), CONFIG)


A_SRC = """
extern int *get_cell(void);
int *ap;
void use(void) { ap = get_cell(); }
"""

B_SRC = """
int cell;
int *get_cell(void) { return &cell; }
"""


class TestSymbolResolution:
    def test_duplicate_definition_rejected(self):
        a = program_of("a.c", "int shared;\n")
        b = program_of("b.c", "int shared;\n")
        with pytest.raises(LinkError) as exc:
            link_programs([a, b])
        (message,) = exc.value.errors
        assert "duplicate definition of symbol 'shared'" in message
        assert "'a.c'" in message and "'b.c'" in message

    def test_duplicate_function_definition_rejected(self):
        a = program_of("a.c", "int f(void) { return 0; }\n")
        b = program_of("b.c", "int f(void) { return 1; }\n")
        with pytest.raises(LinkError) as exc:
            link_programs([a, b])
        assert "duplicate definition of symbol 'f'" in exc.value.errors[0]

    def test_kind_mismatch_rejected(self):
        a = program_of("a.c", "int f(void) { return 0; }\n")
        b = program_of("b.c", "extern int f;\nint g(void) { return f; }\n")
        with pytest.raises(LinkError) as exc:
            link_programs([a, b])
        (message,) = exc.value.errors
        assert "kind mismatch" in message and "'f'" in message
        assert "'a.c'" in message and "'b.c'" in message

    def test_type_mismatch_rejected(self):
        a = program_of("a.c", "int *f(void) { static int x; return &x; }\n")
        b = program_of(
            "b.c", "extern int f(int *p);\nint g(void) { return f(0); }\n"
        )
        with pytest.raises(LinkError) as exc:
            link_programs([a, b])
        (message,) = exc.value.errors
        assert "type mismatch for symbol 'f'" in message
        assert "'a.c'" in message and "'b.c'" in message

    def test_global_type_mismatch_rejected(self):
        a = program_of("a.c", "int g;\n")
        b = program_of("b.c", "extern int *g;\nint *rb(void) { return g; }\n")
        with pytest.raises(LinkError) as exc:
            link_programs([a, b])
        (message,) = exc.value.errors
        assert "type mismatch for symbol 'g'" in message
        assert "'a.c'" in message and "'b.c'" in message

    def test_one_definition_many_declarations(self):
        a = program_of("a.c", "int counter;\n")
        b = program_of("b.c", "extern int counter;\nint rb(void) { return counter; }\n")
        c = program_of("c.c", "extern int counter;\nint rc(void) { return counter; }\n")
        resolution = link_programs([a, b, c]).resolutions["counter"]
        assert resolution.defined_in == "a.c"
        assert list(resolution.referenced_by) == ["b.c", "c.c"]

    def test_unprototyped_declaration_is_lenient(self):
        # C89 `extern int f();` matches any definition of f.
        a = program_of("a.c", "int f(int *p) { return *p; }\n")
        b = program_of("b.c", "extern int f();\nint g(void) { return f(); }\n")
        linked = link_programs([a, b])
        assert linked.resolutions["f"].defined_in == "a.c"

    def test_static_symbols_never_collide(self):
        a = program_of("a.c", "static int hidden;\nint ra(void) { return hidden; }\n")
        b = program_of("b.c", "static int hidden;\nint rb(void) { return hidden; }\n")
        linked = link_programs([a, b])
        assert "hidden" not in linked.resolutions

    def test_zero_programs_rejected(self):
        with pytest.raises(LinkError):
            link_programs([])

    def test_duplicate_member_names_rejected(self):
        a = program_of("a.c", "int x;\n")
        with pytest.raises(LinkError):
            link_programs([a, a])


class TestRenumbering:
    def test_first_member_keeps_its_indexes(self):
        a = program_of("a.c", A_SRC)
        b = program_of("b.c", B_SRC)
        linked = link_programs([a, b])
        assert linked.var_maps["a.c"] == list(range(a.num_vars))
        # ...and stays identical when more members follow (the ladder's
        # fixed-denominator invariant).
        c = program_of("c.c", "int unrelated;\n")
        wider = link_programs([a, b, c])
        assert wider.var_maps["a.c"] == linked.var_maps["a.c"]

    def test_resolved_symbols_share_one_joint_var(self):
        a = program_of("a.c", A_SRC)
        b = program_of("b.c", B_SRC)
        linked = link_programs([a, b])
        ja = linked.var_maps["a.c"][a.var_names.index("get_cell")]
        jb = linked.var_maps["b.c"][b.var_names.index("get_cell")]
        assert ja == jb == linked.resolutions["get_cell"].var

    def test_unshared_vars_are_disjoint(self):
        a = program_of("a.c", A_SRC)
        b = program_of("b.c", B_SRC)
        linked = link_programs([a, b])
        image_a = set(linked.var_maps["a.c"])
        image_b = set(linked.var_maps["b.c"])
        shared = image_a & image_b
        assert shared == {linked.resolutions["get_cell"].var}


class TestDeEscape:
    def test_resolved_import_loses_impfunc(self):
        a = program_of("a.c", A_SRC)
        assert a.flag_impfunc[a.var_names.index("get_cell")]
        b = program_of("b.c", B_SRC)
        linked = link_programs([a, b])
        j = linked.resolutions["get_cell"].var
        assert not linked.program.flag_impfunc[j]

    def test_unresolved_import_stays_impfunc(self):
        a = program_of("a.c", A_SRC)
        c = program_of("c.c", "int unrelated;\n")
        linked = link_programs([a, c])
        j = linked.resolutions["get_cell"].var
        assert linked.program.flag_impfunc[j]
        assert "get_cell" in linked.unresolved_imports()

    def test_open_mode_keeps_exported_definitions_escaped(self):
        # Concatenation semantics: an unseen module may still use `cell`.
        a = program_of("a.c", A_SRC)
        b = program_of("b.c", B_SRC)
        linked = link_programs([a, b])
        solution = solve(linked.program)
        names = linked.program.var_names
        external = {names[x] for x in solution.external}
        assert "cell" in external and "ap" in external

    def test_internalize_hides_non_kept_definitions(self):
        a = program_of("a.c", A_SRC + "int main(void) { use(); return 0; }\n")
        b = program_of("b.c", B_SRC)
        linked = link_programs(
            [a, b], LinkOptions(internalize=True, keep=("main",))
        )
        solution = solve(linked.program)
        names = linked.program.var_names
        external = {names[x] for x in solution.external}
        assert "cell" not in external and "ap" not in external
        assert linked.resolutions["cell"].internalized
        assert not linked.resolutions["main"].internalized

    def test_semantic_escape_survives_linking(self):
        # `atexit(cleanup)` escapes cleanup through a summary (a semantic
        # escape), so defining atexit later must NOT un-escape it.
        from repro.analysis.summaries import LIBC_SUMMARIES

        a = build_constraints(
            compile_c(
                "extern int atexit(void (*fn)(void));\n"
                "void cleanup(void) {}\n"
                "void setup(void) { atexit(cleanup); }\n",
                "a.c",
            ),
            LIBC_SUMMARIES,
        ).program
        b = program_of("b.c", "int atexit(void (*fn)(void)) { return 0; }\n")
        linked = link_programs(
            [a, b], LinkOptions(internalize=True, keep=("setup",))
        )
        solution = solve(linked.program)
        names = linked.program.var_names
        assert "cleanup" in {names[x] for x in solution.external}

    def test_ep_lowered_program_rejected(self):
        from repro.analysis.omega import lower_to_explicit

        a = program_of("a.c", A_SRC)
        with pytest.raises(LinkError) as exc:
            link_programs([lower_to_explicit(a)])
        assert "EP-lowered" in exc.value.errors[0]


class TestRelink:
    def test_linked_program_is_itself_linkable(self):
        a = program_of("a.c", A_SRC)
        b = program_of("b.c", B_SRC)
        c = program_of(
            "c.c", "extern int *ap;\nint deref(void) { return *ap; }\n"
        )
        once = link_programs([a, b, c])
        staged = link_programs([link_programs([a, b]).program, c])
        sol_once = solve(once.program).to_named_canonical()
        sol_staged = solve(staged.program).to_named_canonical()
        assert sol_once == sol_staged

    def test_omega_still_reachable_through_unresolved(self):
        a = program_of("a.c", A_SRC)
        linked = link_programs([a])
        solution = solve(linked.program)
        ap = linked.program.var_names.index("ap")
        assert OMEGA in solution.points_to(ap)
