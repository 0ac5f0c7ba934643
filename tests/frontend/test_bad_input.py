"""Bad C input gives a ``file:line`` diagnostic, never a traceback.

Each case once ended in a Python exception outside ``FRONTEND_ERRORS``
(``ValueError``, ``TypeError`` or an IR ``VerificationError``), or in a
preprocessor message without a line.  Both front doors are checked: the
CLI exits 1 with one diagnostic, and the server answers ``build_error``
with the file and line.
"""

import pickle

import pytest

from repro.__main__ import main
from repro.frontend import (
    FRONTEND_ERRORS,
    ConstraintTextError,
    LexError,
    LowerError,
    ParseError,
    PreprocessorError,
    SemaError,
    compile_c,
    describe_error,
    error_line,
)
from repro.interchange import parse_constraint_text
from repro.serve import AnalysisServer, InProcessClient, Project

#: name → (source, line of the diagnostic, a fragment of its message)
CASES = {
    "octal-8": ("int a;\nint x = 08;\n", 2, "invalid digit '8' in octal constant"),
    "octal-9": ("int x = 09;\n", 1, "invalid digit '9' in octal constant"),
    "hex-no-digits": ("int x = 0x;\n", 1, "hexadecimal constant '0x' has no digits"),
    "hex-f-suffix": ("int x = 0x1uf;\n", 1, "invalid suffix 'uf'"),
    "superscript-digit": ("int x = ²;\n", 1, "invalid digit '²' in numeric constant"),
    "arabic-digit": ("int x = 1٣;\n", 1, "invalid digit '٣' in numeric constant"),
    "define-open-params": ("int a;\n#define F(a\nint x;\n", 2, "unterminated parameter list"),
    "macro-open-args": (
        "#define F(a) a\nint x = F(1;\n", 2, "unterminated macro argument list"
    ),
    "sizeof-incomplete": (
        "int f(void) {\n  return sizeof(struct nope);\n}\n", 2, "incomplete struct nope"
    ),
    "sizeof-void": ("int f(void) {\n  return sizeof(void);\n}\n", 2, "void has no size"),
    "sizeof-function": (
        "int g(void);\nint f(void) { return sizeof(g); }\n", 2, "function types have no size"
    ),
    "bound-incomplete": ("int a[sizeof(struct nope)];\n", 1, "incomplete struct nope"),
    "bound-void": ("int b;\nint a[sizeof(void)];\n", 2, "void has no size"),
    "goto-undeclared": (
        "void f(void) {\n  goto L;\n}\n", 2, "use of undeclared label 'L'"
    ),
    "too-few-arguments": (
        "void g(int *p);\nvoid f(void) { g(); }\n", 2, "0 given, 1 expected"
    ),
    "too-many-arguments": (
        "void g(int *p);\nint x;\nvoid f(void) { g(&x, &x); }\n", 3, "2 given, 1 expected"
    ),
    "arguments-before-prototype": (
        "int f();\nvoid g(void) {\n  f(1, 2);\n}\nint f(int a) { return a; }\n",
        3,
        "2 given, 1 expected",
    ),
    "void-member": ("struct s {\n  void v;\n};\n", 2, "member 'v' has no size"),
    "self-member": (
        "struct s {\n  struct s inner;\n};\n", 2, "member 'inner' has no size"
    ),
    "address-in-bound": ("char k[&32];\n", 1, "not a compile-time constant"),
    "function-over-variable": (
        "static int h[4];\nstatic void h(int e) {}\n", 2, "conflicting declarations of 'h'"
    ),
    "store-through-void": (
        "void f(void *p, void *q) {\n  *p = q;\n}\n", 2, "type void"
    ),
    "jump-past-declaration": (
        "void use(const char *s);\n"
        "int f(int x) {\n"
        "  if (x) goto fail;\n"
        "  if (x > 1) return 1;\n"
        "  const char *p = 0;\n"
        "  return 1;\n"
        "fail:\n"
        "  use(p);\n"
        "  return 0;\n"
        "}\n",
        8,
        "use of 'p' after a jump past its declaration",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("command", ["link", "analyze"])
def test_cli_prints_one_diagnostic(case, command, tmp_path, capsys):
    source, line, fragment = CASES[case]
    path = tmp_path / "bad.c"
    path.write_text(source)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [diagnostic] = err.splitlines()
    assert diagnostic.startswith(f"repro: error: bad.c:{line}: "), diagnostic
    assert fragment in diagnostic


@pytest.mark.parametrize("case", sorted(CASES))
def test_server_answers_build_error(case):
    source, line, fragment = CASES[case]
    client = InProcessClient(AnalysisServer(Project()))
    response = client.request("open", {"files": {"bad.c": source}})
    error = response["error"]
    assert error["code"] == "build_error"
    assert error["details"] == {"file": "bad.c", "line": line}
    assert error["message"].startswith(f"bad.c:{line}: ")
    assert fragment in error["message"]


#: one real input per member of FRONTEND_ERRORS: class → (file, text)
PICKLE_CASES = {
    PreprocessorError: ("pre.c", '#include "missing.h"\n'),
    LexError: ("lex.c", "int a;\nint x = 1 @ 2;\n"),
    ParseError: ("parse.c", "int a;\nfoo bar;\n"),
    SemaError: ("sema.c", "int f(void) { return y; }\n"),
    LowerError: ("lower.c", "int a;\nint *p = 5;\n"),
    ConstraintTextError: ("text.lir", "garbage here\n"),
}


def test_every_frontend_error_has_a_pickle_case():
    assert set(PICKLE_CASES) == set(FRONTEND_ERRORS)


@pytest.mark.parametrize(
    "cls", list(PICKLE_CASES), ids=lambda cls: cls.__name__
)
def test_frontend_error_survives_pickling(cls):
    """A process pool pickles a worker's exception back to the parent; a
    class that cannot be rebuilt from its pickle kills the pool's result
    thread instead."""
    name, text = PICKLE_CASES[cls]
    with pytest.raises(cls) as info:
        if name.endswith(".lir"):
            parse_constraint_text(text, name)
        else:
            compile_c(text, name)
    exc = info.value
    exc.source_name = name  # attached the way the CLI and pipeline do
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert error_line(back) == error_line(exc) > 0
    assert vars(back) == vars(exc)  # column or token, and source_name
    assert describe_error(back) == describe_error(exc)
    assert describe_error(back).startswith(f"{name}:")


class TestStillAccepted:
    """The fixes reject no call or literal that C allows."""

    def test_unprototyped_and_variadic_calls(self):
        compile_c(
            "void g();\nvoid h(int *p, ...);\nint x;\n"
            "void f(void) { g(); g(&x, &x); h(&x); h(&x, &x, 1); }\n"
        )

    def test_octal_and_leading_zero_floats(self):
        module = compile_c(
            "int a = 010; int b = 0644; int c = 00; unsigned long d = 010UL;\n"
            "double e = 08.5; double f = 09e1;\n"
        )
        inits = {name: g.initializer for name, g in module.globals.items()}
        assert [inits[n].value for n in "abcd"] == [8, 420, 0, 8]
        assert [inits[n].value for n in "ef"] == [8.5, 90.0]

    def test_labels_after_their_gotos(self):
        compile_c("int f(int x) {\n  if (x) goto out;\n  x = 2;\nout:\n  return x;\n}\n")
