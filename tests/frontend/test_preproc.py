"""Preprocessor tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.preproc import (
    _IDENT,
    Macro,
    Preprocessor,
    PreprocessorError,
    preprocess,
)


def pp(source, **kwargs):
    return preprocess(source, **kwargs)


class TestDefine:
    def test_object_macro(self):
        assert "42" in pp("#define N 42\nint x = N;")

    def test_macro_not_in_strings(self):
        out = pp('#define N 42\nchar* s = "N";')
        assert '"N"' in out

    def test_undef(self):
        out = pp("#define N 42\n#undef N\nint x = N;")
        assert "int x = N;" in out

    def test_function_macro(self):
        out = pp("#define SQ(x) ((x)*(x))\nint y = SQ(3);")
        assert "((3)*(3))" in out

    def test_function_macro_multiple_args(self):
        out = pp("#define ADD(a, b) (a + b)\nint y = ADD(1, 2);")
        assert "(1 + 2)" in out

    def test_function_macro_nested_parens(self):
        out = pp("#define ID(x) x\nint y = ID(f(1, 2));")
        assert "f(1, 2)" in out

    def test_function_macro_without_args_is_plain_name(self):
        out = pp("#define F(x) x\nint F;")
        assert "int F;" in out

    def test_recursive_macro_stops(self):
        out = pp("#define A A B\nA")
        assert "A" in out  # no infinite loop

    def test_macro_in_macro(self):
        out = pp("#define ONE 1\n#define TWO (ONE + ONE)\nint x = TWO;")
        assert "(1 + 1)" in out

    def test_line_continuation(self):
        out = pp("#define LONG 1 + \\\n  2\nint x = LONG;")
        assert "1 +   2" in out


class TestConditionals:
    def test_ifdef_taken(self):
        out = pp("#define YES\n#ifdef YES\nint a;\n#endif")
        assert "int a;" in out

    def test_ifdef_not_taken(self):
        out = pp("#ifdef NO\nint a;\n#endif")
        assert "int a;" not in out

    def test_ifndef(self):
        out = pp("#ifndef NO\nint a;\n#endif")
        assert "int a;" in out

    def test_else(self):
        out = pp("#ifdef NO\nint a;\n#else\nint b;\n#endif")
        assert "int b;" in out and "int a;" not in out

    def test_elif(self):
        out = pp(
            "#define V 2\n#if V == 1\nint a;\n#elif V == 2\nint b;\n"
            "#else\nint c;\n#endif"
        )
        assert "int b;" in out
        assert "int a;" not in out and "int c;" not in out

    def test_nested_conditionals(self):
        out = pp(
            "#define A\n#ifdef A\n#ifdef B\nint x;\n#else\nint y;\n#endif\n#endif"
        )
        assert "int y;" in out and "int x;" not in out

    def test_if_defined(self):
        out = pp("#define A 1\n#if defined(A) && !defined(B)\nint x;\n#endif")
        assert "int x;" in out

    def test_if_arithmetic(self):
        out = pp("#if (3 + 4) * 2 == 14\nint x;\n#endif")
        assert "int x;" in out

    def test_unknown_identifier_is_zero(self):
        out = pp("#if UNDEFINED_THING\nint x;\n#endif")
        assert "int x;" not in out

    def test_unterminated_if_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#ifdef A\nint x;")

    def test_stray_endif_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#endif")

    def test_define_in_dead_region_ignored(self):
        out = pp("#ifdef NO\n#define X 1\n#endif\nint y = X;")
        assert "int y = X;" in out


class TestInclude:
    def test_include_header(self):
        out = pp(
            '#include "defs.h"\nint x = N;',
            headers={"defs.h": "#define N 99"},
        )
        assert "99" in out

    def test_include_angle_brackets(self):
        out = pp(
            "#include <lib.h>\n", headers={"lib.h": "int from_lib;"}
        )
        assert "from_lib" in out

    def test_missing_header_raises(self):
        with pytest.raises(PreprocessorError):
            pp('#include "missing.h"')

    def test_include_guard_idiom(self):
        header = "#ifndef H\n#define H\nint once;\n#endif"
        out = pp(
            '#include "h.h"\n#include "h.h"\n', headers={"h.h": header}
        )
        assert out.count("int once;") == 1

    def test_error_directive(self):
        with pytest.raises(PreprocessorError):
            pp("#error nope")

    def test_pragma_ignored(self):
        assert "int x;" in pp("#pragma once\nint x;")

    def test_predefined_macros(self):
        out = pp("int v = LIMIT;", predefined={"LIMIT": "128"})
        assert "128" in out


class TestPassThrough:
    """A line in which no word names a macro is appended unchanged."""

    @given(
        st.lists(
            st.sampled_from(list("NFAB_x01 ()\"',\\+*#\t") + ["é", "NN", "F("]),
            max_size=30,
        ).map("".join)
    )
    @settings(max_examples=300, deadline=None)
    def test_expand_is_the_identity_without_macro_words(self, line):
        pre = Preprocessor(predefined={"N": "42", "AB": "(1 + 2)"})
        pre.macros["F"] = Macro("F", "f(x)", ["x"])
        if pre.macros.keys().isdisjoint(_IDENT.findall(line)):
            assert pre._expand(line) == line

    def test_no_macros_means_verbatim_lines(self):
        text = 'int x = 0x1F; /* N */ char *s = "F(";\n  y;'
        assert pp(text) == text


class TestLocatedErrors:
    def test_open_macro_arguments_name_file_and_line(self):
        with pytest.raises(PreprocessorError) as info:
            preprocess("#define F(a) a\nint x;\nint y = F(1;\n", filename="m.c")
        assert str(info.value) == "m.c:3: unterminated macro argument list"
        assert info.value.line == 3

    def test_open_define_parameters(self):
        with pytest.raises(PreprocessorError) as info:
            preprocess("int a;\n#define F(a\n", filename="m.c")
        assert str(info.value) == "m.c:2: unterminated parameter list in #define F"
        assert info.value.line == 2

    def test_directive_errors_carry_their_line(self):
        with pytest.raises(PreprocessorError) as info:
            preprocess("int a;\n\n#endif\n", filename="m.c")
        assert info.value.line == 3
