"""The character-at-a-time C lexer, kept as an oracle for the real one.

This is the loop :mod:`repro.frontend.lexer` used before it became one
master regex, unchanged except that numeric literals are decoded by the
shared :func:`repro.frontend.lexer.number_token` (so octal constants and
malformed literals give the same diagnostics in both).  Tests compare
the two token streams, positions and error messages included.
"""

from __future__ import annotations

from typing import List

from repro.frontend.lexer import (
    PUNCTUATION,
    KEYWORDS,
    LexError,
    Token,
    _decode_escapes,
    number_token,
)


class Lexer:
    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    # ------------------------------------------------------------------

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    # ------------------------------------------------------------------

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind == "eof":
                return out

    def next_token(self) -> Token:
        self._skip_trivia()
        line, col = self.line, self.col
        ch = self._peek()
        if not ch:
            return Token("eof", "", line, col)
        if ch.isalpha() or ch == "_":
            return self._identifier(line, col)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._number(line, col)
        if ch == '"':
            return self._string(line, col)
        if ch == "'":
            return self._char(line, col)
        for punct in PUNCTUATION:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token("punct", punct, line, col)
        raise self._error(f"unexpected character {ch!r}")

    # ------------------------------------------------------------------

    def _identifier(self, line: int, col: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = "keyword" if text in KEYWORDS else "id"
        return Token(kind, text, line, col)

    def _number(self, line: int, col: int) -> Token:
        start = self.pos
        src = self.source
        is_float = False
        if src.startswith(("0x", "0X"), self.pos):
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() and self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() and self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        body = src[start : self.pos]
        # Suffixes.
        while self._peek() and self._peek() in "uUlLfF":
            self._advance()
        text = src[start : self.pos]
        return number_token(text, body, is_float, line, col)

    def _string(self, line: int, col: int) -> Token:
        # Adjacent string literals concatenate.
        pieces: List[str] = []
        while self._peek() == '"':
            self._advance()
            start = self.pos
            while True:
                ch = self._peek()
                if not ch or ch == "\n":
                    raise self._error("unterminated string literal")
                if ch == "\\":
                    self._advance(2)
                    continue
                if ch == '"':
                    break
                self._advance()
            pieces.append(self.source[start : self.pos])
            self._advance()  # closing quote
            self._skip_trivia()
        body = "".join(pieces)
        return Token(
            "string", f'"{body}"', line, col, value=_decode_escapes(body, line, col)
        )

    def _char(self, line: int, col: int) -> Token:
        self._advance()
        start = self.pos
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise self._error("unterminated character constant")
            if ch == "\\":
                self._advance(2)
                continue
            if ch == "'":
                break
            self._advance()
        body = self.source[start : self.pos]
        self._advance()
        decoded = _decode_escapes(body, line, col)
        if len(decoded) != 1:
            raise LexError("character constant must be one character", line, col)
        return Token("char", f"'{body}'", line, col, value=ord(decoded))


def reference_tokenize(source: str, filename: str = "<source>") -> List[Token]:
    return Lexer(source, filename).tokens()
