"""C lexer.

Tokenises a C translation unit (after preprocessing) into a stream of
:class:`Token`.  Covers the full C89 operator/punctuation set plus the
C99/C11 keywords the parser understands.  Comments are handled here so
the preprocessor can stay line-oriented.

Two compiled patterns do the work.  Per token, one ``match`` skips the
trivia (whitespace and comments) and one ``match`` of the master
pattern picks the token's named alternative.  Line and column come
from counting the newlines in the skipped spans.  The trivia has its
own call so that the token pattern can never backtrack into a comment
and re-read its ``/`` as division.  The patterns avoid atomic groups
and possessive quantifiers, which need Python 3.11.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "_Bool",
}

# Longest-match-first punctuation table.
PUNCTUATION = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


@dataclass
class Token:
    kind: str  # 'id', 'keyword', 'int', 'float', 'char', 'string', 'punct', 'eof'
    text: str
    line: int
    col: int
    #: decoded value for int/float/char/string tokens
    value: object = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


class LexError(SyntaxError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col
        self._message = message

    def __reduce__(self):
        # ``args`` holds only the formatted message: rebuild from the
        # constructor's own arguments so the error survives pickling.
        return type(self), (self._message, self.line, self.col), self.__dict__


_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


def _decode_escapes(body: str, line: int, col: int) -> str:
    out: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= len(body):
            raise LexError("dangling escape", line, col)
        esc = body[i]
        if esc in _SIMPLE_ESCAPES:
            out.append(_SIMPLE_ESCAPES[esc])
            i += 1
        elif esc == "x":
            j = i + 1
            while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                j += 1
            if j == i + 1:
                raise LexError("bad hex escape", line, col)
            out.append(chr(int(body[i + 1 : j], 16) & 0xFF))
            i = j
        elif esc in "01234567":
            j = i
            while j < len(body) and j < i + 3 and body[j] in "01234567":
                j += 1
            out.append(chr(int(body[i:j], 8) & 0xFF))
            i = j
        else:
            raise LexError(f"unknown escape \\{esc}", line, col)
    return "".join(out)


def _bad_digit(digit: str, line: int, col: int) -> LexError:
    return LexError(f"invalid digit {digit!r} in numeric constant", line, col)


def number_token(text: str, body: str, is_float: bool, line: int, col: int) -> Token:
    """The token for the numeric literal ``text``: ``body`` plus suffix.

    ``is_float`` says the body has a fraction or an exponent.  A leading
    ``0`` makes an integer octal (C 6.4.4.1); a float stays decimal.
    Literals that are not C constants raise :class:`LexError` at the
    literal: octal ``8``/``9``, ``0x`` with no digit, an ``f`` suffix on
    a hexadecimal integer and any non-ASCII digit.
    """
    if not body.isascii():
        raise _bad_digit(next(c for c in body if not c.isascii()), line, col)
    suffix = text[len(body):]
    if body[:2] in ("0x", "0X"):
        if len(body) == 2:
            raise LexError(f"hexadecimal constant {text!r} has no digits", line, col)
        if "f" in suffix or "F" in suffix:
            raise LexError(f"invalid suffix {suffix!r} on hexadecimal constant", line, col)
        return Token("int", text, line, col, value=int(body, 16))
    if is_float or "f" in suffix or "F" in suffix:
        return Token("float", text, line, col, value=float(body))
    if body[0] == "0":
        for digit in body:
            if digit in "89":
                raise LexError(f"invalid digit {digit!r} in octal constant", line, col)
        return Token("int", text, line, col, value=int(body, 8))
    return Token("int", text, line, col, value=int(body))


_SPACE = r"[ \t\r\n\f\v]"
#: whitespace, ``//`` and ``/* */`` comments; an unterminated ``/*`` is
#: left in place for the ``open_comment`` alternative
_TRIVIA = re.compile(
    rf"{_SPACE}*(?:(?://[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/){_SPACE}*)*"
)
_TOKEN = re.compile(
    r"(?P<id>[A-Za-z_]\w*)"
    + r"|(?P<hex>(?P<hex_body>0[xX][0-9a-fA-F]*)[uUlLfF]*)"
    + r"|(?P<number>(?P<body>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
    + r"(?:[eE][+-]?[0-9]+)?)[uUlLfF]*)"
    + r"|(?P<open_comment>/\*)"
    # "." before a non-ASCII character, which may be a digit
    + r"|(?P<dot>\.(?=[^\x00-\x7f]))"
    + "|(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")"
    + r'|(?P<string>")'
    + r"|(?P<char>')"
    # a non-ASCII word start: a letter, or else a digit or numeral
    + r"|(?P<word>[^\W\d]\w*)"
    + r"|(?P<eof>\Z)"
    + r"|(?P<other>[\s\S])"
)
#: a string or character literal's body from after its opening quote up
#: to its closing quote, or up to the newline or end where it stops
_STRING_BODY = re.compile(r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*')
_CHAR_BODY = re.compile(r"[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*")


def _error_at(source: str, offset: int, message: str) -> LexError:
    line = source.count("\n", 0, offset) + 1
    return LexError(message, line, offset - source.rfind("\n", 0, offset))


def _quoted_body(source: str, start: int, body: "re.Pattern[str]", what: str) -> int:
    """End of the literal body after the quote at ``start``."""
    end = body.match(source, start + 1).end()
    if end < len(source) and source[end] == source[start]:
        return end
    if end < len(source) and source[end] == "\n":
        raise _error_at(source, end, f"unterminated {what}")
    # end of input, possibly after a final backslash
    raise _error_at(source, len(source), f"unterminated {what}")


def _string(source: str, start: int, line: int, col: int) -> Tuple[Token, int]:
    """Adjacent string literals concatenate: the token and its end."""
    pieces: List[str] = []
    pos = start
    while source.startswith('"', pos):
        end = _quoted_body(source, pos, _STRING_BODY, "string literal")
        pieces.append(source[pos + 1 : end])
        pos = _TRIVIA.match(source, end + 1).end()
        if source.startswith("/*", pos):
            raise _error_at(source, len(source), "unterminated block comment")
    body = "".join(pieces)
    token = Token("string", f'"{body}"', line, col, value=_decode_escapes(body, line, col))
    return token, pos


def _char(source: str, start: int, line: int, col: int) -> Tuple[Token, int]:
    end = _quoted_body(source, start, _CHAR_BODY, "character constant")
    body = source[start + 1 : end]
    decoded = _decode_escapes(body, line, col)
    if len(decoded) != 1:
        raise LexError("character constant must be one character", line, col)
    return Token("char", f"'{body}'", line, col, value=ord(decoded)), end + 1


def _digit_after_number(source: str, end: int, body: str) -> str:
    """A non-ASCII digit that continues the decimal literal ``body``
    ending at ``end`` (as its next digit or its exponent), or ``""``."""
    ahead = source[end : end + 3]
    if ahead[:1] in ("e", "E") and "e" not in body and "E" not in body:
        ahead = ahead[2:] if ahead[1:2] in ("+", "-") else ahead[1:]
    digit = ahead[:1]
    return digit if digit and not digit.isascii() and digit.isdigit() else ""


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Lex a whole translation unit; the list ends with an ``eof`` token."""
    skip = _TRIVIA.match
    match = _TOKEN.match
    out: List[Token] = []
    append = out.append
    pos = 0
    line = 1
    line_start = 0  # offset of the current line's first character
    while True:
        start = skip(source, pos).end()
        m = match(source, start)
        kind = m.lastgroup
        if start != pos:
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, start) + 1
        col = start - line_start + 1
        pos = m.end()
        if kind == "punct":
            append(Token("punct", m.group(kind), line, col))
        elif kind == "id":
            text = m.group(kind)
            append(Token("keyword" if text in KEYWORDS else "id", text, line, col))
        elif kind == "number":
            text = m.group(kind)
            body = m.group("body")
            if len(text) == len(body) and pos < len(source):
                digit = _digit_after_number(source, pos, body)
                if digit:
                    raise _bad_digit(digit, line, col)
            append(number_token(text, body, not body.isdigit(), line, col))
        elif kind == "string" or kind == "char":
            token, pos = (_string if kind == "string" else _char)(source, start, line, col)
            append(token)
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, pos) + 1
        elif kind == "hex":
            text = m.group(kind)
            append(number_token(text, m.group("hex_body"), False, line, col))
        elif kind == "eof":
            append(Token("eof", "", line, col))
            return out
        elif kind == "word":
            text = m.group(kind)
            if text[0].isalpha():
                append(Token("id", text, line, col))
            elif text[0].isdigit():
                raise _bad_digit(text[0], line, col)
            else:
                raise LexError(f"unexpected character {text[0]!r}", line, col)
        elif kind == "dot":
            if source[pos].isdigit():
                raise _bad_digit(source[pos], line, col)
            append(Token("punct", ".", line, col))
        elif kind == "open_comment":
            raise _error_at(source, len(source), "unterminated block comment")
        else:  # other
            ch = m.group(kind)
            if ch.isdigit():
                raise _bad_digit(ch, line, col)
            raise LexError(f"unexpected character {ch!r}", line, col)
