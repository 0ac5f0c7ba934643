"""A small C preprocessor.

Supports the directives real-world single-file analysis needs:

- object-like and function-like ``#define`` (no ``#``/``##`` operators,
  no variadic macros), ``#undef``;
- conditional compilation: ``#if``/``#ifdef``/``#ifndef``/``#elif``/
  ``#else``/``#endif`` with an integer constant-expression evaluator
  including ``defined(...)``;
- ``#include "name"`` resolved against a caller-provided mapping of
  header name → source text (the corpus generator and tests use this;
  there is no filesystem access by default);
- backslash line continuations; ``#pragma`` and ``#error`` handling.

The output is plain C text for :mod:`repro.frontend.lexer`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class PreprocessorError(SyntaxError):
    """A preprocessing error; the message starts with ``file:`` or
    ``file:line:``, and ``line`` is that line (0 when there is none)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


@dataclass
class Macro:
    name: str
    body: str
    params: Optional[List[str]] = None  # None for object-like macros

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


class Preprocessor:
    def __init__(
        self,
        headers: Optional[Dict[str, str]] = None,
        predefined: Optional[Dict[str, str]] = None,
        max_include_depth: int = 32,
    ):
        self.headers = headers or {}
        self.macros: Dict[str, Macro] = {}
        for name, body in (predefined or {}).items():
            self.macros[name] = Macro(name, body)
        self.max_include_depth = max_include_depth

    # ------------------------------------------------------------------

    def process(self, source: str, filename: str = "<source>") -> str:
        return "\n".join(self._process_lines(source, filename, depth=0))

    def _process_lines(self, source: str, filename: str, depth: int) -> List[str]:
        if depth > self.max_include_depth:
            raise PreprocessorError(f"{filename}: include depth exceeded")
        out: List[str] = []
        # (parent_active, taken_before, currently_active)
        cond_stack: List[Tuple[bool, bool, bool]] = []
        lines = self._splice_lines(source)
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            active = all(frame[2] for frame in cond_stack)
            if stripped.startswith("#"):
                self._directive(
                    stripped[1:].strip(), cond_stack, active, out, filename,
                    lineno, depth,
                )
                continue
            if not active:
                continue
            if not self.macros or self.macros.keys().isdisjoint(_IDENT.findall(line)):
                # No word of the line names a macro: _expand is the identity.
                out.append(line)
                continue
            try:
                out.append(self._expand(line))
            except PreprocessorError as exc:
                raise PreprocessorError(f"{filename}:{lineno}: {exc}", lineno) from None
        if cond_stack:
            raise PreprocessorError(f"{filename}: unterminated #if")
        return out

    @staticmethod
    def _splice_lines(source: str) -> List[str]:
        spliced: List[str] = []
        pending = ""
        for raw in source.split("\n"):
            if raw.endswith("\\"):
                pending += raw[:-1]
                continue
            spliced.append(pending + raw)
            pending = ""
        if pending:
            spliced.append(pending)
        return spliced

    # ------------------------------------------------------------------

    def _directive(
        self,
        body: str,
        cond_stack: List[Tuple[bool, bool, bool]],
        active: bool,
        out: List[str],
        filename: str,
        lineno: int,
        depth: int,
    ) -> None:
        match = _IDENT.match(body)
        name = match.group(0) if match else ""
        rest = body[len(name):].strip()
        parent_active = all(frame[2] for frame in cond_stack)

        if name == "ifdef":
            taken = active and rest in self.macros
            cond_stack.append((active, taken, taken))
        elif name == "ifndef":
            taken = active and rest not in self.macros
            cond_stack.append((active, taken, taken))
        elif name == "if":
            taken = active and bool(self._eval(rest, filename, lineno))
            cond_stack.append((active, taken, taken))
        elif name == "elif":
            if not cond_stack:
                raise PreprocessorError(f"{filename}:{lineno}: #elif without #if", lineno)
            was_active, taken_before, _ = cond_stack.pop()
            take = (
                was_active
                and not taken_before
                and bool(self._eval(rest, filename, lineno))
            )
            cond_stack.append((was_active, taken_before or take, take))
        elif name == "else":
            if not cond_stack:
                raise PreprocessorError(f"{filename}:{lineno}: #else without #if", lineno)
            was_active, taken_before, _ = cond_stack.pop()
            cond_stack.append(
                (was_active, True, was_active and not taken_before)
            )
        elif name == "endif":
            if not cond_stack:
                raise PreprocessorError(f"{filename}:{lineno}: #endif without #if", lineno)
            cond_stack.pop()
        elif not active:
            return  # other directives in dead regions are ignored
        elif name == "define":
            self._define(rest, filename, lineno)
        elif name == "undef":
            self.macros.pop(rest, None)
        elif name == "include":
            out.extend(self._include(rest, filename, lineno, depth))
        elif name == "pragma":
            pass
        elif name == "error":
            raise PreprocessorError(f"{filename}:{lineno}: #error {rest}", lineno)
        elif name == "":
            pass  # null directive
        else:
            raise PreprocessorError(
                f"{filename}:{lineno}: unknown directive #{name}", lineno
            )

    def _define(self, rest: str, filename: str, lineno: int) -> None:
        match = _IDENT.match(rest)
        if not match:
            raise PreprocessorError(f"{filename}:{lineno}: bad #define", lineno)
        name = match.group(0)
        after = rest[len(name):]
        if after.startswith("("):
            close = after.find(")")
            if close < 0:
                raise PreprocessorError(
                    f"{filename}:{lineno}: unterminated parameter list in #define {name}",
                    lineno,
                )
            param_text = after[1:close].strip()
            params = (
                [p.strip() for p in param_text.split(",")] if param_text else []
            )
            body = after[close + 1 :].strip()
            self.macros[name] = Macro(name, body, params)
        else:
            self.macros[name] = Macro(name, after.strip())

    def _include(
        self, rest: str, filename: str, lineno: int, depth: int
    ) -> List[str]:
        if rest.startswith('"') and rest.endswith('"'):
            header = rest[1:-1]
        elif rest.startswith("<") and rest.endswith(">"):
            header = rest[1:-1]
        else:
            raise PreprocessorError(f"{filename}:{lineno}: bad #include {rest}", lineno)
        if header not in self.headers:
            raise PreprocessorError(
                f"{filename}:{lineno}: header {header!r} not found", lineno
            )
        return self._process_lines(self.headers[header], header, depth + 1)

    # ------------------------------------------------------------------

    def _expand(self, text: str, hide: Optional[frozenset] = None) -> str:
        """Macro-expand a line of text (recursively, with hide sets)."""
        hide = hide or frozenset()
        out: List[str] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == '"' or ch == "'":
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == ch:
                        j += 1
                        break
                    j += 1
                out.append(text[i:j])
                i = j
                continue
            match = _IDENT.match(text, i)
            if not match:
                out.append(ch)
                i += 1
                continue
            word = match.group(0)
            i = match.end()
            macro = self.macros.get(word)
            if macro is None or word in hide:
                out.append(word)
                continue
            if macro.is_function_like:
                j = i
                while j < n and text[j] in " \t":
                    j += 1
                if j >= n or text[j] != "(":
                    out.append(word)
                    continue
                args, i = self._parse_args(text, j + 1)
                expanded_args = [self._expand(a, hide) for a in args]
                body = self._substitute(macro, expanded_args)
                out.append(self._expand(body, hide | {word}))
            else:
                out.append(self._expand(macro.body, hide | {word}))
        return "".join(out)

    @staticmethod
    def _parse_args(text: str, start: int) -> Tuple[List[str], int]:
        args: List[str] = []
        depth = 1
        current: List[str] = []
        i = start
        n = len(text)
        while i < n:
            ch = text[i]
            if ch in "\"'":
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == ch:
                        j += 1
                        break
                    j += 1
                current.append(text[i:j])
                i = j
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(current).strip())
                    if args == [""]:
                        args = []  # F() has zero arguments
                    return args, i + 1
            elif ch == "," and depth == 1:
                args.append("".join(current).strip())
                current = []
                i += 1
                continue
            current.append(ch)
            i += 1
        raise PreprocessorError("unterminated macro argument list")

    @staticmethod
    def _substitute(macro: Macro, args: List[str]) -> str:
        params = macro.params or []
        if len(args) == 1 and args[0] == "" and not params:
            args = []
        mapping = dict(zip(params, args))
        out: List[str] = []
        i = 0
        text = macro.body
        while i < len(text):
            match = _IDENT.match(text, i)
            if match:
                word = match.group(0)
                out.append(mapping.get(word, word))
                i = match.end()
            else:
                out.append(text[i])
                i += 1
        return "".join(out)

    # ------------------------------------------------------------------

    def _eval(self, expr: str, filename: str, lineno: int) -> int:
        """Evaluate a #if constant expression."""
        expanded = self._eval_expand(expr)
        try:
            return int(_CondParser(expanded).parse())
        except SyntaxError as exc:
            raise PreprocessorError(
                f"{filename}:{lineno}: bad #if expression {expr!r}: {exc}", lineno
            ) from exc

    def _eval_expand(self, expr: str) -> str:
        # Handle defined(X) / defined X before macro expansion.
        def repl(match: "re.Match[str]") -> str:
            name = match.group(1) or match.group(2)
            return "1" if name in self.macros else "0"

        expr = re.sub(
            r"defined\s*(?:\(\s*([A-Za-z_]\w*)\s*\)|\s([A-Za-z_]\w*))",
            repl,
            expr,
        )
        expanded = self._expand(expr)
        # Remaining identifiers evaluate to 0 (C semantics).
        return _IDENT.sub(
            lambda m: m.group(0) if m.group(0).isdigit() else "0", expanded
        )


class _CondParser:
    """Tiny Pratt parser for #if expressions (integers only)."""

    def __init__(self, text: str):
        self.tokens = re.findall(
            r"\d+[uUlL]*|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%()!~<>&|^?:]", text
        )
        self.pos = 0

    def _peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def _next(self) -> str:
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self) -> int:
        value = self._ternary()
        if self._peek():
            raise SyntaxError(f"trailing tokens near {self._peek()!r}")
        return value

    def _ternary(self) -> int:
        cond = self._binary(0)
        if self._peek() == "?":
            self._next()
            a = self._ternary()
            if self._next() != ":":
                raise SyntaxError("expected ':'")
            b = self._ternary()
            return a if cond else b
        return cond

    _LEVELS = [
        ["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="],
        ["<", ">", "<=", ">="], ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
    ]

    def _binary(self, level: int) -> int:
        if level >= len(self._LEVELS):
            return self._unary()
        lhs = self._binary(level + 1)
        while self._peek() in self._LEVELS[level]:
            op = self._next()
            rhs = self._binary(level + 1)
            lhs = _apply(op, lhs, rhs)
        return lhs

    def _unary(self) -> int:
        tok = self._peek()
        if tok == "!":
            self._next()
            return int(not self._unary())
        if tok == "-":
            self._next()
            return -self._unary()
        if tok == "+":
            self._next()
            return self._unary()
        if tok == "~":
            self._next()
            return ~self._unary()
        if tok == "(":
            self._next()
            value = self._ternary()
            if self._next() != ")":
                raise SyntaxError("expected ')'")
            return value
        if tok and tok[0].isdigit():
            self._next()
            return int(tok.rstrip("uUlL"), 0)
        raise SyntaxError(f"unexpected token {tok!r}")


def _apply(op: str, a: int, b: int) -> int:
    if op == "||":
        return int(bool(a) or bool(b))
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "&":
        return a & b
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "<":
        return int(a < b)
    if op == ">":
        return int(a > b)
    if op == "<=":
        return int(a <= b)
    if op == ">=":
        return int(a >= b)
    if op == "<<":
        return a << b
    if op == ">>":
        return a >> b
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a // b if b else 0
    if op == "%":
        return a % b if b else 0
    raise SyntaxError(f"unknown operator {op}")


def preprocess(
    source: str,
    headers: Optional[Dict[str, str]] = None,
    predefined: Optional[Dict[str, str]] = None,
    filename: str = "<source>",
) -> str:
    """One-shot preprocessing convenience wrapper."""
    return Preprocessor(headers, predefined).process(source, filename)
