"""Lexer tests."""

import pytest

from repro.frontend.lexer import LexError, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        assert kinds("int foo _bar baz2") == [
            ("keyword", "int"), ("id", "foo"), ("id", "_bar"), ("id", "baz2"),
        ]

    def test_all_punctuation_longest_match(self):
        assert [t for _, t in kinds("a <<= b >>= c ... -> ++ >= <<")] == [
            "a", "<<=", "b", ">>=", "c", "...", "->", "++", ">=", "<<",
        ]

    def test_line_tracking(self):
        toks = tokenize("a\nb\n  c")
        assert [(t.line, t.col) for t in toks[:-1]] == [(1, 1), (2, 1), (3, 3)]


class TestNumbers:
    def test_decimal(self):
        tok = tokenize("42")[0]
        assert tok.kind == "int" and tok.value == 42

    def test_hex(self):
        assert tokenize("0xFF")[0].value == 255

    def test_octal_zero(self):
        assert tokenize("0")[0].value == 0

    def test_suffixes(self):
        assert tokenize("42UL")[0].value == 42
        assert tokenize("7u")[0].value == 7

    def test_float(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == "float" and tok.value == 3.25

    def test_float_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-1")[0].value == 0.25

    def test_float_suffix(self):
        tok = tokenize("1.5f")[0]
        assert tok.kind == "float"

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == 0.5

    def test_octal(self):
        assert [t.value for t in tokenize("010 0644 00 010UL 0777u")[:-1]] == [
            8, 420, 0, 8, 511,
        ]

    def test_leading_zero_floats_stay_decimal(self):
        assert [t.value for t in tokenize("08.5 09e1 0.5")[:-1]] == [8.5, 90.0, 0.5]

    @pytest.mark.parametrize(
        "source, message",
        [
            ("x =\n  08;", "invalid digit '8' in octal constant"),
            ("x =\n  0679;", "invalid digit '9' in octal constant"),
            ("x =\n  0x;", "hexadecimal constant '0x' has no digits"),
            ("x =\n  0x1lf;", "invalid suffix 'lf' on hexadecimal constant"),
            ("x =\n  ²;", "invalid digit '²' in numeric constant"),
            ("x =\n  1e٣;", "invalid digit '٣' in numeric constant"),
            ("x =\n  .²;", "invalid digit '²' in numeric constant"),
        ],
    )
    def test_bad_literal_is_lex_error_at_literal(self, source, message):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert str(info.value) == f"line 2:3: {message}"


class TestStringsAndChars:
    def test_simple_string(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc\\d"')[0].value == "a\nb\tc\\d"

    def test_hex_escape(self):
        assert tokenize(r'"\x41"')[0].value == "A"

    def test_octal_escape(self):
        assert tokenize(r'"\101"')[0].value == "A"

    # \0 is the octal escape, not a one-character one: it takes up to
    # two more octal digits, and a non-octal digit ends it.
    @pytest.mark.parametrize(
        "source, value",
        [
            (r'"\012"', "\n"),
            (r'"\0"', "\0"),
            (r'"\08"', "\x008"),
            (r'"\1234"', "S4"),
            (r"'\012'", 10),
            (r"'\0'", 0),
        ],
    )
    def test_octal_escapes_starting_with_zero(self, source, value):
        assert tokenize(source)[0].value == value

    def test_adjacent_concatenation(self):
        assert tokenize('"foo" "bar"')[0].value == "foobar"

    def test_char_literal(self):
        assert tokenize("'A'")[0].value == 65

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == 10

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_multichar_char_rejected(self):
        with pytest.raises(LexError):
            tokenize("'ab'")

    @pytest.mark.parametrize("source", ['"\\8"', "'\\9'", '"\\²"'])
    def test_non_octal_digit_escape_rejected(self, source):
        with pytest.raises(LexError, match="unknown escape"):
            tokenize(source)


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]

    def test_unterminated_block(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_division_not_comment(self):
        assert kinds("a / b") == [("id", "a"), ("punct", "/"), ("id", "b")]

    def test_comment_is_never_reread_as_division(self):
        with pytest.raises(LexError, match=r"line 1:6: unexpected character '…'"):
            tokenize("/**/é…*/")
        with pytest.raises(LexError, match=r"line 2:1: unexpected character '@'"):
            tokenize("//x\n@")

    def test_unterminated_block_reported_at_end(self):
        with pytest.raises(LexError, match=r"line 2:3: unterminated block comment"):
            tokenize("a /*\n b")
