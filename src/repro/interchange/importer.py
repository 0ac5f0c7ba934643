"""Importer: LIR constraint text → :class:`ConstraintProgram`.

Two dialects share one grammar (``docs/internals.md`` §15):

**Native** files carry the directive header our exporter writes
(``.format``/``.program``/``.var``/``.symbol``/``.impfunc``/
``.linkage_ea``).  The ``.var`` table pins the variable universe — every
index, name and P/M class — so the import is an exact inverse of the
export: ``parse_constraint_text(export_constraint_text(P))`` rebuilds a
program with ``digest() == P.digest()``.

**Inference** files are plain LIR (no ``.var`` directives), the form
third-party constraint generators produce.  Variables spring into
existence at first mention as pointer-compatible registers; a variable
also becomes a memory location when it appears as a ``ref`` payload or
names a ``lam`` definition (whose LIR semantics ``Sol(f) ∋ λ`` we model
as ``Func(f,…)`` plus ``f ⊇ {f}``).  Unknown symbols — variables that
are never defined by any constraint in the file — seed PIP's Ω
machinery instead of crashing or silently under-approximating: each
gets ``p ⊒ Ω`` (``pte``), the paper's "points to anything externally
accessible" widening, which the solvers already propagate through
loads, stores and indirect calls.

Malformed lines raise :class:`ConstraintTextError` with the 1-based
line number, rendered as ``file:line: message`` by the standard
:func:`repro.frontend.describe_error` path.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.constraints import (
    ConstraintProgram,
    ProgramSymbol,
    writable_list,
    writable_set,
)
from .errors import ConstraintTextError
from .export import FORMAT_VERSION, RESERVED_TOKENS

#: sentinel for a name declared by several ``.var`` directives — such a
#: variable can only be referenced as ``@<index>``
_AMBIGUOUS = -1

_CLASSES = {
    "p": (True, False),
    "m": (False, True),
    "pm": (True, True),
    "s": (False, False),
}

_SYMBOL_KINDS = ("func", "data")
_SYMBOL_LINKAGES = ("internal", "external", "import")

_INDEX_REF = re.compile(r"^@(\d+)$")
_BAD_TOKEN_CHARS = set(" \t(),<=[]")


def parse_constraint_text(
    text: str, source_name: str = "<constraints>"
) -> ConstraintProgram:
    """Parse one constraint-text file into a :class:`ConstraintProgram`."""
    return _Importer(text, source_name).run()


# ----------------------------------------------------------------------
# Expression parsing (shared by both dialects)
# ----------------------------------------------------------------------

#: parsed expression forms: ("omega",) | ("var", tok) | ("ref", tok)
#: | ("proj", tok) | ("lam", variadic, [name, ret, arg...])


class _Importer:
    def __init__(self, text: str, source_name: str):
        self.source_name = source_name
        #: (1-based line number, stripped content), comments dropped
        self.lines: List[Tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.lines.append((lineno, stripped))
        self.program = ConstraintProgram("constraints")
        self.by_name: Dict[str, int] = {}
        #: .linkage_ea directives, applied after the constraint block
        self.pending_linkage: List[Tuple[int, int]] = []
        self.native = any(
            content.startswith(".var ") for _, content in self.lines
        )

    def fail(self, message: str, lineno: int = 0) -> "ConstraintTextError":
        raise ConstraintTextError(message, lineno, self.source_name)

    # ------------------------------------------------------------------

    def run(self) -> ConstraintProgram:
        self._check_format_directive()
        if self.native:
            self._run_native()
        else:
            self._run_inference()
        for lineno, v in self.pending_linkage:
            if not self.program.flag_ea[v]:
                self.fail(
                    f".linkage_ea on {self.program.var_names[v]!r}, which "
                    "has no ea constraint (ref(x,x) <= _OMEGA)",
                    lineno,
                )
            self.program.linkage_ea.add(v)
        return self.program

    def _check_format_directive(self) -> None:
        has_directives = any(c.startswith(".") for _, c in self.lines)
        if not has_directives:
            return
        lineno, first = self.lines[0]
        if not first.startswith(".format"):
            self.fail(
                "files using directives must open with a .format line",
                lineno,
            )
        fields = first.split()
        if len(fields) != 2 or not fields[1].isdigit():
            self.fail("malformed .format directive", lineno)
        if int(fields[1]) != FORMAT_VERSION:
            self.fail(
                f"unsupported interchange format {fields[1]} "
                f"(this reader understands format {FORMAT_VERSION})",
                lineno,
            )

    # ------------------------------------------------------------------
    # Native dialect: the .var table pins the variable universe
    # ------------------------------------------------------------------

    def _run_native(self) -> None:
        for lineno, content in self.lines:
            if content.startswith("."):
                self._directive(lineno, content)
            else:
                lhs, rhs = self._split_line(lineno, content)
                self._constraint(lineno, lhs, rhs, inference=False)

    def _directive(self, lineno: int, content: str) -> None:
        word = content.split(None, 1)[0]
        if word == ".format":
            if self.lines[0][0] != lineno:
                self.fail(".format must be the first directive", lineno)
            return
        if word == ".program":
            rest = content[len(word):].strip()
            self.program.name = self._json_str(rest, lineno, ".program name")
            return
        if word == ".var":
            fields = content.split(None, 2)
            if len(fields) != 3 or fields[1] not in _CLASSES:
                self.fail(
                    "malformed .var (expected: .var p|m|pm|s \"name\")",
                    lineno,
                )
            name = self._json_str(fields[2], lineno, ".var name")
            in_p, in_m = _CLASSES[fields[1]]
            idx = self.program.add_var(
                name, pointer_compatible=in_p, is_memory=in_m
            )
            if name in self.by_name:
                self.by_name[name] = _AMBIGUOUS
            else:
                self.by_name[name] = idx
            return
        if word == ".symbol":
            self._symbol_directive(lineno, content)
            return
        if word == ".impfunc":
            fields = content.split()
            if len(fields) != 2:
                self.fail("malformed .impfunc directive", lineno)
            self.program.flag_impfunc[self._resolve(fields[1], lineno)] = True
            return
        if word == ".linkage_ea":
            fields = content.split()
            if len(fields) != 2:
                self.fail("malformed .linkage_ea directive", lineno)
            self.pending_linkage.append(
                (lineno, self._resolve(fields[1], lineno))
            )
            return
        self.fail(f"unknown directive {word!r}", lineno)

    def _symbol_directive(self, lineno: int, content: str) -> None:
        fields = content.split(None, 5)
        if len(fields) != 6:
            self.fail(
                "malformed .symbol (expected: .symbol func|data linkage "
                'def|decl <var> "name" "type")',
                lineno,
            )
        _, kind, linkage, defined, var_tok, rest = fields
        if kind not in _SYMBOL_KINDS:
            self.fail(f"bad symbol kind {kind!r}", lineno)
        if linkage not in _SYMBOL_LINKAGES:
            self.fail(f"bad symbol linkage {linkage!r}", lineno)
        if defined not in ("def", "decl"):
            self.fail(f"bad symbol definedness {defined!r}", lineno)
        decoder = json.JSONDecoder()
        try:
            name, end = decoder.raw_decode(rest)
            type_key, _ = decoder.raw_decode(rest[end:].lstrip())
        except ValueError:
            name = type_key = None
        if not isinstance(name, str) or not isinstance(type_key, str):
            self.fail("malformed .symbol name/type strings", lineno)
        symbol = ProgramSymbol(
            name=name,
            var=self._resolve(var_tok, lineno),
            kind=kind,
            linkage=linkage,
            defined=defined == "def",
            type_key=type_key,
        )
        try:
            self.program.add_symbol(symbol)
        except ValueError as exc:
            self.fail(str(exc), lineno)

    def _json_str(self, raw: str, lineno: int, what: str) -> str:
        try:
            value = json.loads(raw)
        except ValueError:
            value = None
        if not isinstance(value, str):
            self.fail(f"malformed {what} (expected one JSON string)", lineno)
        return value

    def _resolve(self, tok: str, lineno: int) -> int:
        match = _INDEX_REF.match(tok)
        if match:
            if not self.native:
                self.fail(
                    f"index reference {tok} requires a .var header", lineno
                )
            idx = int(match.group(1))
            if idx >= self.program.num_vars:
                self.fail(f"variable reference {tok} out of range", lineno)
            return idx
        idx = self.by_name.get(tok)
        if idx is None:
            self.fail(f"unknown variable {tok!r}", lineno)
        if idx == _AMBIGUOUS:
            self.fail(
                f"variable name {tok!r} is not unique; use its @index",
                lineno,
            )
        return idx

    # ------------------------------------------------------------------
    # Inference dialect: plain LIR, variables created on first mention
    # ------------------------------------------------------------------

    def _run_inference(self) -> None:
        parsed: List[Tuple[int, Tuple, Tuple]] = []
        order: List[str] = []
        seen = set()
        memory = set()

        def collect(tok: str, lineno: int, is_memory: bool = False) -> None:
            if tok in RESERVED_TOKENS:
                return
            if _INDEX_REF.match(tok):
                self.fail(
                    f"index reference {tok} requires a .var header", lineno
                )
            if tok not in seen:
                seen.add(tok)
                order.append(tok)
            if is_memory:
                memory.add(tok)

        for lineno, content in self.lines:
            if content.startswith("."):
                word = content.split(None, 1)[0]
                if word == ".format":
                    continue
                if word == ".program":
                    rest = content[len(word):].strip()
                    self.program.name = self._json_str(
                        rest, lineno, ".program name"
                    )
                    continue
                self.fail(
                    f"directive {word!r} requires a .var header", lineno
                )
            lhs, rhs = self._split_line(lineno, content)
            parsed.append((lineno, lhs, rhs))
            for side, other in ((lhs, rhs), (rhs, lhs)):
                if side[0] == "var":
                    collect(side[1], lineno)
                elif side[0] in ("ref", "proj"):
                    collect(side[1], lineno, is_memory=side[0] == "ref")
                elif side[0] == "lam" and side is lhs:
                    # a definition: the λ name is the function's memory
                    # location; the name slot of a *call* λ (rhs) is a
                    # placeholder and binds nothing
                    name, ret, args = side[2][0], side[2][1], side[2][2:]
                    collect(name, lineno, is_memory=True)
                    for tok in (ret, *args):
                        if tok != "_":
                            collect(tok, lineno)
                elif side[0] == "lam":
                    for tok in side[2][1:]:
                        if tok != "_":
                            collect(tok, lineno)

        for name in order:
            idx = self.program.add_var(
                name, pointer_compatible=True, is_memory=name in memory
            )
            self.by_name[name] = idx

        for lineno, lhs, rhs in parsed:
            self._constraint(lineno, lhs, rhs, inference=True)

        self._seed_unknown_symbols()

    def _seed_unknown_symbols(self) -> None:
        """PIP's soundness rule for incomplete constraint files: a
        variable with no defining constraint — nothing ever flows into
        it and it is not a memory location allocated or λ-bound in the
        file — is an unknown external symbol.  Its value may be any
        externally accessible pointer, so it gets ``p ⊒ Ω`` (pte) and
        the solvers' escape machinery takes over (§III, Table II)."""
        program = self.program
        defined = list(program.in_m)
        for v in range(program.num_vars):
            if program.base[v]:
                defined[v] = True
        for targets in program.simple_out:
            for p in targets:
                defined[p] = True
        for targets in program.load_from:
            for p in targets:
                defined[p] = True
        for fc in program.funcs:
            for a in fc.args:
                if a is not None:
                    defined[a] = True
        for cc in program.calls:
            if cc.ret is not None:
                defined[cc.ret] = True
        for v in range(program.num_vars):
            if not defined[v]:
                program.mark_points_to_external(v)

    # ------------------------------------------------------------------
    # Constraint lines (shared)
    # ------------------------------------------------------------------

    def _split_line(self, lineno: int, content: str) -> Tuple[Tuple, Tuple]:
        parts = content.split(" <= ")
        if len(parts) != 2:
            self.fail("expected '<exp> <= <exp>'", lineno)
        return (
            self._parse_exp(parts[0].strip(), lineno),
            self._parse_exp(parts[1].strip(), lineno),
        )

    def _parse_exp(self, text: str, lineno: int) -> Tuple:
        if text == "_OMEGA":
            return ("omega",)
        if text.startswith("ref(") and text.endswith(")"):
            parts = [p.strip() for p in text[4:-1].split(",")]
            if len(parts) != 2 or not all(parts):
                self.fail("malformed ref term (expected ref(x,x))", lineno)
            if parts[0] != parts[1]:
                self.fail(
                    "ref with distinct location and payload is not "
                    f"supported: ref({parts[0]},{parts[1]})",
                    lineno,
                )
            return ("ref", parts[0])
        if text.startswith("proj(") and text.endswith(")"):
            parts = [p.strip() for p in text[5:-1].split(",")]
            if len(parts) != 3 or parts[0] != "ref" or parts[1] != "1":
                self.fail(
                    "malformed proj term (expected proj(ref,1,x))", lineno
                )
            return ("proj", parts[2])
        if text.startswith("lam_["):
            close = text.find("](")
            if close < 0 or not text.endswith(")"):
                self.fail(
                    "malformed lam term (expected lam_[type](name,ret,...))",
                    lineno,
                )
            signature = text[5:close]
            parts = [p.strip() for p in text[close + 2 : -1].split(",")]
            if len(parts) < 2 or not all(parts):
                self.fail(
                    "lam term needs at least a name and a return slot",
                    lineno,
                )
            return ("lam", signature.endswith("..."), parts)
        if not text or any(c in _BAD_TOKEN_CHARS for c in text):
            self.fail(f"malformed expression {text!r}", lineno)
        return ("var", text)

    def _operand(self, tok: str, lineno: int) -> Optional[int]:
        return None if tok == "_" else self._resolve(tok, lineno)

    def _pointer(self, tok: str, lineno: int) -> int:
        v = self._resolve(tok, lineno)
        if not self.program.in_p[v]:
            self.fail(
                f"{self.program.var_names[v]!r} is not pointer compatible "
                "here",
                lineno,
            )
        return v

    def _constraint(
        self, lineno: int, lhs: Tuple, rhs: Tuple, inference: bool
    ) -> None:
        program = self.program
        forms = (lhs[0], rhs[0])
        if forms == ("ref", "var"):  # p ⊇ {x}
            x = self._resolve(lhs[1], lineno)
            if not program.in_m[x]:
                self.fail(
                    f"ref payload {program.var_names[x]!r} is not a memory "
                    "location",
                    lineno,
                )
            writable_set(program.base, self._pointer(rhs[1], lineno)).add(x)
        elif forms == ("var", "var"):  # p ⊇ q
            q = self._pointer(lhs[1], lineno)
            p = self._pointer(rhs[1], lineno)
            if q != p:
                writable_set(program.simple_out, q).add(p)
        elif forms == ("proj", "var"):  # p ⊇ *q
            q = self._pointer(lhs[1], lineno)
            writable_list(program.load_from, q).append(
                self._pointer(rhs[1], lineno)
            )
        elif forms == ("var", "proj"):  # *p ⊇ q
            q = self._pointer(lhs[1], lineno)
            writable_list(
                program.store_into, self._pointer(rhs[1], lineno)
            ).append(q)
        elif forms == ("lam", "var"):  # Func(f, r, a…)
            _, variadic, parts = lhs
            f = self._resolve(rhs[1], lineno)
            if self._resolve(parts[0], lineno) != f:
                self.fail(
                    f"lam definition names {parts[0]!r} but flows into "
                    f"{rhs[1]!r}",
                    lineno,
                )
            ret = self._operand(parts[1], lineno)
            args = [self._operand(a, lineno) for a in parts[2:]]
            program.add_func(f, ret, args, variadic=variadic)
            if inference:
                # LIR semantics: Sol(f) ∋ λ — the function value is its
                # own memory location
                writable_set(program.base, f).add(f)
        elif forms == ("var", "lam"):  # Call(h, r, a…)
            _, _, parts = rhs
            h = self._resolve(lhs[1], lineno)
            ret = self._operand(parts[1], lineno)
            args = [self._operand(a, lineno) for a in parts[2:]]
            program.add_call(h, ret, args)
        elif forms == ("ref", "omega"):  # ea: Ω ⊒ {x}
            program.flag_ea[self._resolve(lhs[1], lineno)] = True
        elif forms == ("omega", "var"):  # pte: p ⊒ Ω
            program.flag_pte[self._resolve(rhs[1], lineno)] = True
        elif forms == ("var", "omega"):  # pe: Ω ⊒ p
            program.flag_pe[self._resolve(lhs[1], lineno)] = True
        elif forms == ("omega", "proj"):  # sscalar: *p ⊒ Ω
            program.flag_sscalar[self._resolve(rhs[1], lineno)] = True
        elif forms == ("proj", "omega"):  # lscalar: Ω ⊒ *p
            program.flag_lscalar[self._resolve(lhs[1], lineno)] = True
        else:
            self.fail(
                f"unsupported constraint form {lhs[0]} <= {rhs[0]}", lineno
            )
