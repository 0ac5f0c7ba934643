"""The master-regex lexer against the character loop it replaced.

``reference_lexer`` is the old loop.  Over arbitrary text, and over
every C input the repository has, both must give the same tokens
(kind, text, line, column, value) or raise the same exception with the
same message.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import PROFILES, generate_c_source, plan_profile_program
from repro.frontend.lexer import PUNCTUATION, LexError, tokenize
from tests.frontend.reference_lexer import reference_tokenize

ROOT = pathlib.Path(__file__).resolve().parents[2]
CORPUS = sorted((ROOT / "examples" / "corpus").glob("*.c"))


def outcome(lex, source):
    try:
        return [(t.kind, t.text, t.line, t.col, t.value) for t in lex(source)]
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc))


def assert_same(source):
    result = outcome(tokenize, source)
    assert result == outcome(reference_tokenize, source)
    # Bad text is a diagnostic, never another exception.
    assert isinstance(result, list) or result[0] is LexError


FRAGMENTS = (
    PUNCTUATION
    + list("abeEfFlLuUxX_019")
    + ["0x", "0X", "07", "08", "1e", "e+", "e-", "1.", ".5", "int", "sizeof"]
    + ['"', "'", "\\", "\\n", "\\x", "\\0", "\\8", "\\q", "//", "/*", "*/", "/**/"]
    + [" ", "\n", "\t", "\r", "\v", "\f", "\x00", "\x1c", "\x7f", "@", "#", "$", "`"]
    # non-ASCII letters, digits, numerals, spaces and symbols
    + ["é", "ß", "Ω", "ж", "ª", "²", "٣", "①", "½", "Ⅷ", " ", " ", "…"]
)
texts = st.lists(
    st.sampled_from(FRAGMENTS) | st.characters(), max_size=24
).map("".join)


class TestDifferential:
    @given(texts)
    @settings(max_examples=600, deadline=None)
    def test_arbitrary_text(self, source):
        assert_same(source)

    @pytest.mark.parametrize(
        "source",
        [
            # trivia skipped without backtracking into a comment's "/"
            "/**/é…*/",
            "//x\n@",
            "a /* b",
            '"s" /* open',
            "x /*/ y */ z",
            # numbers next to non-ASCII digits and exponents
            "1²", "1e²", "1e+²", "1.5²", ".²", "0x²", "1u²", "1e5e²", "²", "٣", "½",
            # literals that end where the old loop's did
            '"a\\\nb"', "'\\\n'", '"abc\\', "'a", '"a" "b\n', "0x1uf", "0644", "08.5",
            # octal escapes take octal digits only
            '"\\8"', "'\\9'", '"\\²"', '"\\18"',
        ],
    )
    def test_edge_cases(self, source):
        assert_same(source)


def _xz_units():
    specs = plan_profile_program(
        PROFILES["557.xz"], files_scale=1.0, size_scale=0.02, seed=0
    )
    return [generate_c_source(spec) for spec in specs]


def _frontend_test_strings():
    """Every string constant in the frontend tests' source."""
    strings = set()
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return sorted(strings)


class TestTokenIdentity:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_example_corpus(self, path):
        assert_same(path.read_text())

    def test_xz_units(self):
        units = _xz_units()
        assert len(units) == 89
        for source in units:
            assert_same(source)

    def test_frontend_test_inputs(self):
        strings = _frontend_test_strings()
        assert len(strings) > 200
        for source in strings:
            assert_same(source)
