r"""The Andersen constraint language, extended for incomplete programs.

A :class:`ConstraintProgram` holds the finite sets of the analysis
(paper §II-A): abstract memory locations ``M``, pointers ``P``, and the
constraints ``C``.  Constraint variables are dense integer indexes
(paper §V-B uses 32-bit integers); per-variable data lives in parallel
lists.

Original constraint types (Table I):

========  ==============  =========================================
Base      p ⊇ {x}         taking an address
Simple    p ⊇ q           copying a pointer (edge q → p)
Load      p ⊇ *q          loading through a pointer
Store     *p ⊇ q          storing through a pointer
Func      Func(f,r,a…)    function definition
Call      Call(h,r,a…)    (possibly indirect) function call
========  ==============  =========================================

Extended constraint types representing the Ω node implicitly
(Table II), stored as 1-bit flags on constraint variables:

===============  ===========  ==========================================
Ω ⊒ {x}          ``ea``       x is externally accessible
p ⊒ Ω            ``pte``      p targets all externally accessible memory
Ω ⊒ p            ``pe``       pointees of p are externally accessible
*p ⊒ Ω           ``sscalar``  a scalar is stored at \*p (smuggle in)
Ω ⊒ *p           ``lscalar``  \*p is loaded as a scalar (smuggle out)
ImpFunc(f)       ``impfunc``  f is an imported external function
===============  ===========  ==========================================

Two extra flags exist only in programs produced by
:func:`repro.analysis.omega.lower_to_explicit`, which materialises Ω as a
real constraint variable for the EP (explicit pointee) representation:

- ``extfunc``: the variable behaves as ``Func(f, Ω, …, Ω)`` with generic
  arity (constraint ⑤ / imported functions).
- ``extcall``: the variable behaves as ``Call(v, Ω, Ω, …)`` with generic
  arity (constraint ④: external modules call everything that escaped).

Normalisation (paper §V-B): constraints that mix pointer-compatible and
pointer-incompatible variables are conversions between pointers and
integers and are rewritten into Ω flags when added, so the solvers only
ever see well-typed constraints.

Row representation: most variables have no constraint of a given kind,
so every empty row is one shared immutable value, :data:`EMPTY_SET_ROW`
for the set rows and :data:`EMPTY_LIST_ROW` for the list rows.  A
writer takes the row through :func:`writable_set` or
:func:`writable_list`, which swap in a fresh container on the row's
first write; a writer that bypasses them raises ``AttributeError``
instead of writing into every other variable's row.  Readers only
iterate, test, count and subtract, so they see no difference.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

#: the one value of every empty set row (``base``, ``simple_out``)
EMPTY_SET_ROW: FrozenSet[int] = frozenset()
#: the one value of every empty list row (``load_from``, ``store_into``)
EMPTY_LIST_ROW: Tuple[int, ...] = ()


def writable_set(rows: List, v: int) -> Set[int]:
    """Set row ``rows[v]``, ready to write: an empty row becomes a
    fresh set of its own on its first write."""
    row = rows[v]
    if not row:
        row = rows[v] = set()
    return row


def writable_list(rows: List, v: int) -> List[int]:
    """List row ``rows[v]``, ready to write: an empty row becomes a
    fresh list of its own on its first write."""
    row = rows[v]
    if not row:
        row = rows[v] = []
    return row


class ProgramFormatError(ValueError):
    """A serialised constraint program failed validation.

    Raised by :meth:`ConstraintProgram.from_dict` when the payload is
    internally inconsistent — mismatched parallel-array lengths,
    dangling (out-of-range) constraint operands, duplicate symbols.
    ``where`` names the offending field, e.g. ``"load_from[3]"``.
    """

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


@dataclass(frozen=True)
class ProgramSymbol:
    """Linkage-level identity of one named memory object (global or
    function), as seen by the cross-TU linker (:mod:`repro.link`).

    ``var`` is the constraint variable of the symbol's memory location.
    ``linkage`` follows :attr:`repro.ir.values.GlobalValue.LINKAGES`:
    ``internal`` symbols are invisible to other TUs and never merged;
    ``import`` names a declaration satisfied elsewhere; ``external`` is
    an exported definition.  ``type_key`` is the printed IR type, used
    to diagnose def/decl mismatches at link time.
    """

    name: str
    var: int
    kind: str  # "func" | "data"
    linkage: str  # "internal" | "external" | "import"
    defined: bool
    type_key: str

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "var": self.var,
            "kind": self.kind,
            "linkage": self.linkage,
            "defined": self.defined,
            "type_key": self.type_key,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ProgramSymbol":
        return cls(
            name=data["name"],
            var=int(data["var"]),
            kind=data["kind"],
            linkage=data["linkage"],
            defined=bool(data["defined"]),
            type_key=data["type_key"],
        )


@dataclass(frozen=True)
class FuncConstraint:
    """``Func(f, r, a1…an)``: variable ``f`` names a defined function.

    ``ret`` is the constraint variable holding the function's returned
    pointer value (None when the return type is not pointer compatible);
    ``args`` are the formal-parameter variables, with None entries at
    positions whose type is not pointer compatible.
    """

    func: int
    ret: Optional[int]
    args: Tuple[Optional[int], ...]
    #: True for variadic functions: extra pointer actuals at call sites
    #: escape (they may be retrieved via va_arg)
    variadic: bool = False


@dataclass(frozen=True)
class CallConstraint:
    """``Call(h, r, a1…an)``: a call through variable ``h``."""

    target: int
    ret: Optional[int]
    args: Tuple[Optional[int], ...]


class ConstraintProgram:
    """Sets P, M and C for one translation unit (paper phase 1 output).

    The constraint rows ``base``, ``simple_out``, ``load_from`` and
    ``store_into`` hold :data:`EMPTY_SET_ROW` or :data:`EMPTY_LIST_ROW`
    wherever they are empty, and a container of their own otherwise;
    write them through :func:`writable_set` and :func:`writable_list`.
    """

    def __init__(self, name: str = "program"):
        self.name = name
        # Per-variable parallel arrays.
        self.var_names: List[str] = []
        self.in_p: List[bool] = []  # pointer compatible (has a Sol set)
        self.in_m: List[bool] = []  # abstract memory location (can be pointed to)
        # Original constraints.
        self.base: List[Set[int]] = []  # base[p] = {x, ...}
        self.simple_out: List[Set[int]] = []  # q -> {p : p ⊇ q}
        self.load_from: List[List[int]] = []  # q -> [p : p ⊇ *q]
        self.store_into: List[List[int]] = []  # p -> [q : *p ⊇ q]
        self.funcs: List[FuncConstraint] = []
        self.funcs_of: Dict[int, List[int]] = {}  # f -> indexes into funcs
        self.calls: List[CallConstraint] = []
        self.calls_on: Dict[int, List[int]] = {}  # h -> indexes into calls
        # Extended constraint flags (Table II).
        self.flag_ea: List[bool] = []  # Ω ⊒ {x}
        self.flag_pte: List[bool] = []  # p ⊒ Ω
        self.flag_pe: List[bool] = []  # Ω ⊒ p
        self.flag_sscalar: List[bool] = []  # *p ⊒ Ω
        self.flag_lscalar: List[bool] = []  # Ω ⊒ *p
        self.flag_impfunc: List[bool] = []
        # EP-lowering flags (set only by repro.analysis.omega).
        self.flag_extfunc: List[bool] = []
        self.flag_extcall: List[bool] = []
        #: index of the materialised Ω variable in EP-lowered programs
        self.omega: Optional[int] = None
        #: linkage-level symbol table (name → :class:`ProgramSymbol`),
        #: populated by the constraint builder; consumed by the linker
        self.symbols: Dict[str, ProgramSymbol] = {}
        #: variables whose ``flag_ea`` is due *solely* to linkage seeding
        #: (exported/imported symbols).  A variable that also escaped
        #: semantically (through data flow) is never in this set.  The
        #: linker may clear linkage-seeded escapes when a symbol is
        #: resolved within the link set; semantic escapes must survive.
        self.linkage_ea: Set[int] = set()

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def add_var(
        self,
        name: str,
        pointer_compatible: bool,
        is_memory: bool,
    ) -> int:
        """Create a constraint variable; returns its index."""
        idx = len(self.var_names)
        self.var_names.append(name)
        self.in_p.append(pointer_compatible)
        self.in_m.append(is_memory)
        self.base.append(EMPTY_SET_ROW)
        self.simple_out.append(EMPTY_SET_ROW)
        self.load_from.append(EMPTY_LIST_ROW)
        self.store_into.append(EMPTY_LIST_ROW)
        for flags in (
            self.flag_ea,
            self.flag_pte,
            self.flag_pe,
            self.flag_sscalar,
            self.flag_lscalar,
            self.flag_impfunc,
            self.flag_extfunc,
            self.flag_extcall,
        ):
            flags.append(False)
        return idx

    def add_register(self, name: str) -> int:
        """A pointer-compatible virtual register (in P, not in M)."""
        return self.add_var(name, pointer_compatible=True, is_memory=False)

    def add_memory(self, name: str, pointer_compatible: bool = True) -> int:
        """An abstract memory location (in M; in P iff pointer compatible)."""
        return self.add_var(name, pointer_compatible, is_memory=True)

    def pointers(self) -> List[int]:
        """The set P as a list of indexes."""
        return [v for v in range(self.num_vars) if self.in_p[v]]

    def memory_locations(self) -> List[int]:
        """The set M as a list of indexes."""
        return [v for v in range(self.num_vars) if self.in_m[v]]

    # ------------------------------------------------------------------
    # Original constraints (with §V-B pointer/integer normalisation)
    # ------------------------------------------------------------------

    def add_base(self, p: int, x: int) -> None:
        """p ⊇ {x}.  ``x`` must be a memory location."""
        if not self.in_m[x]:
            raise ValueError(f"base target {self.var_names[x]!r} is not memory")
        if not self.in_p[p]:
            # An address flows into untracked (pointer-incompatible)
            # storage: the target is exposed to scalar channels.
            self.mark_externally_accessible(x)
            return
        writable_set(self.base, p).add(x)

    def add_simple(self, dst: int, src: int) -> None:
        """dst ⊇ src (a simple edge src → dst)."""
        dp, sp = self.in_p[dst], self.in_p[src]
        if dp and sp:
            if dst != src:
                writable_set(self.simple_out, src).add(dst)
        elif sp:  # pointer copied into an integer: pointees escape
            self.mark_pointees_escape(src)
        elif dp:  # integer copied into a pointer: unknown origin
            self.mark_points_to_external(dst)
        # neither side tracks pointers: nothing to model

    def add_load(self, dst: int, src: int) -> None:
        """dst ⊇ *src."""
        if not self.in_p[src]:
            # Loading through an untracked pointer value: unknown origin.
            if self.in_p[dst]:
                self.mark_points_to_external(dst)
            return
        if not self.in_p[dst]:
            self.mark_load_scalar(src)
            return
        writable_list(self.load_from, src).append(dst)

    def add_store(self, dst: int, src: int) -> None:
        """*dst ⊇ src."""
        if not self.in_p[dst]:
            # Storing through an untracked pointer value: the stored
            # pointer may land anywhere external.
            if self.in_p[src]:
                self.mark_pointees_escape(src)
            return
        if not self.in_p[src]:
            self.mark_store_scalar(dst)
            return
        writable_list(self.store_into, dst).append(src)

    def add_func(
        self,
        func: int,
        ret: Optional[int],
        args: Sequence[Optional[int]],
        variadic: bool = False,
    ) -> FuncConstraint:
        fc = FuncConstraint(func, ret, tuple(args), variadic)
        self.funcs_of.setdefault(func, []).append(len(self.funcs))
        self.funcs.append(fc)
        return fc

    def add_call(
        self,
        target: int,
        ret: Optional[int],
        args: Sequence[Optional[int]],
    ) -> CallConstraint:
        cc = CallConstraint(target, ret, tuple(args))
        self.calls_on.setdefault(target, []).append(len(self.calls))
        self.calls.append(cc)
        return cc

    # ------------------------------------------------------------------
    # Extended constraints (Table II flags)
    # ------------------------------------------------------------------

    def mark_externally_accessible(self, x: int, linkage: bool = False) -> None:
        """Ω ⊒ {x}: x escapes / is importable.

        ``linkage=True`` records that the escape comes from symbol
        visibility (exported/imported linkage) rather than data flow;
        such escapes are tracked in :attr:`linkage_ea` so the cross-TU
        linker can recompute them.  A semantic escape (the default)
        always wins: it can never be undone by linking.
        """
        if linkage:
            if not self.flag_ea[x]:
                self.linkage_ea.add(x)
        else:
            self.linkage_ea.discard(x)
        self.flag_ea[x] = True

    def mark_points_to_external(self, p: int) -> None:
        """p ⊒ Ω: p may target any externally accessible memory."""
        if self.in_p[p]:
            self.flag_pte[p] = True

    def mark_pointees_escape(self, p: int) -> None:
        """Ω ⊒ p: everything p points to is externally accessible."""
        if self.in_p[p]:
            self.flag_pe[p] = True

    def mark_store_scalar(self, p: int) -> None:
        """*p ⊒ Ω: a pointer-incompatible value is stored through p."""
        if self.in_p[p]:
            self.flag_sscalar[p] = True

    def mark_load_scalar(self, p: int) -> None:
        """Ω ⊒ *p: memory reachable from p is read as scalars."""
        if self.in_p[p]:
            self.flag_lscalar[p] = True

    def mark_imported_function(self, f: int) -> None:
        """ImpFunc(f): calls to f behave as Func(f, Ω, …, Ω)."""
        self.flag_impfunc[f] = True

    # ------------------------------------------------------------------
    # Symbols (linker interface)
    # ------------------------------------------------------------------

    def add_symbol(self, symbol: ProgramSymbol) -> None:
        """Register one named memory object for cross-TU linking."""
        if symbol.name in self.symbols:
            raise ValueError(f"duplicate symbol {symbol.name!r}")
        if not self.in_m[symbol.var]:
            raise ValueError(f"symbol {symbol.name!r} is not a memory var")
        self.symbols[symbol.name] = symbol

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def num_constraints(self) -> int:
        """|C|: total number of stored constraints (flags included)."""
        n = sum(map(len, self.base))
        n += sum(map(len, self.simple_out))
        n += sum(map(len, self.load_from))
        n += sum(map(len, self.store_into))
        n += len(self.funcs) + len(self.calls)
        for flags in (
            self.flag_ea,
            self.flag_pte,
            self.flag_pe,
            self.flag_sscalar,
            self.flag_lscalar,
            self.flag_impfunc,
        ):
            n += sum(flags)
        return n

    def dump(self) -> str:
        """Human-readable listing of all constraints (for tests/docs)."""
        nm = self.var_names
        lines: List[str] = [f"; constraint program {self.name}"]
        for v in range(self.num_vars):
            kind = []
            if self.in_p[v]:
                kind.append("P")
            if self.in_m[v]:
                kind.append("M")
            lines.append(f"var {v} {nm[v]} [{'+'.join(kind) or 'scalar'}]")
        for p in range(self.num_vars):
            for x in sorted(self.base[p]):
                lines.append(f"{nm[p]} ⊇ {{{nm[x]}}}")
        for q in range(self.num_vars):
            for p in sorted(self.simple_out[q]):
                lines.append(f"{nm[p]} ⊇ {nm[q]}")
            for p in self.load_from[q]:
                lines.append(f"{nm[p]} ⊇ *{nm[q]}")
        for p in range(self.num_vars):
            for q in self.store_into[p]:
                lines.append(f"*{nm[p]} ⊇ {nm[q]}")
        for fc in self.funcs:
            args = ", ".join(nm[a] if a is not None else "_" for a in fc.args)
            ret = nm[fc.ret] if fc.ret is not None else "_"
            lines.append(f"Func({nm[fc.func]}, {ret}, {args})")
        for cc in self.calls:
            args = ", ".join(nm[a] if a is not None else "_" for a in cc.args)
            ret = nm[cc.ret] if cc.ret is not None else "_"
            lines.append(f"Call({nm[cc.target]}, {ret}, {args})")
        flag_rows = (
            (self.flag_ea, "Ω ⊒ {{{0}}}"),
            (self.flag_pte, "{0} ⊒ Ω"),
            (self.flag_pe, "Ω ⊒ {0}"),
            (self.flag_sscalar, "*{0} ⊒ Ω"),
            (self.flag_lscalar, "Ω ⊒ *{0}"),
            (self.flag_impfunc, "ImpFunc({0})"),
            (self.flag_extfunc, "ExtFunc({0})"),
            (self.flag_extcall, "ExtCall({0})"),
        )
        for flags, fmt in flag_rows:
            for v in range(self.num_vars):
                if flags[v]:
                    lines.append(fmt.format(nm[v]))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Canonical serialisation (stage cache / content addressing)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serialisable canonical form of the whole program.

        Fully deterministic *and* construction-order independent: sets
        are emitted sorted, flag vectors as 0/1 lists, and the
        order-insensitive collections (``load_from``/``store_into``
        rows, the ``funcs``/``calls`` lists — solvers treat them as
        bags) are emitted in a canonical sort, so two programs with the
        same constraints serialise identically no matter how they were
        built (the interchange round-trip oracle relies on this).  The
        inverse is :meth:`from_dict`; :meth:`digest` hashes this form
        to content-address pipeline stage artifacts.
        """

        def row_key(row):
            # None operands (pointer-incompatible slots) sort as -1.
            return json.dumps(
                [-1 if x is None else x for x in row[:2]]
                + [[-1 if a is None else a for a in row[2]]]
                + row[3:]
            )

        return {
            "name": self.name,
            "var_names": list(self.var_names),
            "in_p": [int(b) for b in self.in_p],
            "in_m": [int(b) for b in self.in_m],
            "base": [sorted(s) for s in self.base],
            "simple_out": [sorted(s) for s in self.simple_out],
            "load_from": [sorted(l) for l in self.load_from],
            "store_into": [sorted(l) for l in self.store_into],
            "funcs": sorted(
                (
                    [fc.func, fc.ret, list(fc.args), int(fc.variadic)]
                    for fc in self.funcs
                ),
                key=row_key,
            ),
            "calls": sorted(
                ([cc.target, cc.ret, list(cc.args)] for cc in self.calls),
                key=row_key,
            ),
            "flags": {
                "ea": [int(b) for b in self.flag_ea],
                "pte": [int(b) for b in self.flag_pte],
                "pe": [int(b) for b in self.flag_pe],
                "sscalar": [int(b) for b in self.flag_sscalar],
                "lscalar": [int(b) for b in self.flag_lscalar],
                "impfunc": [int(b) for b in self.flag_impfunc],
                "extfunc": [int(b) for b in self.flag_extfunc],
                "extcall": [int(b) for b in self.flag_extcall],
            },
            "omega": self.omega,
            "symbols": [
                self.symbols[name].to_dict() for name in sorted(self.symbols)
            ],
            "linkage_ea": sorted(self.linkage_ea),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ConstraintProgram":
        """Rebuild a program from :meth:`to_dict` output.

        The payload is validated structurally — this is the entry
        point for cache artifacts and persisted serve state, neither
        of which enjoys the C frontend's well-formedness guarantees.
        Mismatched parallel-array lengths, dangling (out-of-range)
        constraint operands and duplicate symbol names raise
        :class:`ProgramFormatError` instead of producing a
        silently-inconsistent program.
        """
        program = cls(data["name"])
        program.var_names = list(data["var_names"])
        n = len(program.var_names)

        def check(where: str, ok: bool, message: str) -> None:
            if not ok:
                raise ProgramFormatError(where, message)

        def index(where: str, v, memory: bool = False) -> int:
            check(where, isinstance(v, int) and 0 <= v < n,
                  f"dangling operand {v!r} (|V|={n})")
            if memory:
                check(where, program.in_m[v],
                      f"operand {v} is not a memory location")
            return v

        def operand(where: str, v) -> Optional[int]:
            return None if v is None else index(where, v)

        check("var_names", all(isinstance(v, str) for v in program.var_names),
              "expected strings")
        for field_name in (
            "in_p", "in_m", "base", "simple_out", "load_from", "store_into"
        ):
            check(field_name, len(data[field_name]) == n,
                  f"expected {n} rows, got {len(data[field_name])}")
        program.in_p = [bool(b) for b in data["in_p"]]
        program.in_m = [bool(b) for b in data["in_m"]]
        program.base = [
            {index(f"base[{p}]", x, memory=True) for x in row}
            or EMPTY_SET_ROW
            for p, row in enumerate(data["base"])
        ]
        program.simple_out = [
            {index(f"simple_out[{q}]", p) for p in row} or EMPTY_SET_ROW
            for q, row in enumerate(data["simple_out"])
        ]
        program.load_from = [
            [index(f"load_from[{q}]", p) for p in row] or EMPTY_LIST_ROW
            for q, row in enumerate(data["load_from"])
        ]
        program.store_into = [
            [index(f"store_into[{p}]", q) for q in row] or EMPTY_LIST_ROW
            for p, row in enumerate(data["store_into"])
        ]
        for i, row in enumerate(data["funcs"]):
            where = f"funcs[{i}]"
            check(where, len(row) == 4, f"expected 4 fields, got {len(row)}")
            func, ret, args, variadic = row
            program.add_func(
                index(where, func),
                operand(where, ret),
                [operand(where, a) for a in args],
                bool(variadic),
            )
        for i, row in enumerate(data["calls"]):
            where = f"calls[{i}]"
            check(where, len(row) == 3, f"expected 3 fields, got {len(row)}")
            target, ret, args = row
            program.add_call(
                index(where, target),
                operand(where, ret),
                [operand(where, a) for a in args],
            )
        flags = data["flags"]
        check("flags", isinstance(flags, dict), "expected a mapping")
        for flag_name, row in flags.items():
            check(f"flags[{flag_name!r}]", len(row) == n,
                  f"expected {n} entries, got {len(row)}")
        program.flag_ea = [bool(b) for b in flags["ea"]]
        program.flag_pte = [bool(b) for b in flags["pte"]]
        program.flag_pe = [bool(b) for b in flags["pe"]]
        program.flag_sscalar = [bool(b) for b in flags["sscalar"]]
        program.flag_lscalar = [bool(b) for b in flags["lscalar"]]
        program.flag_impfunc = [bool(b) for b in flags["impfunc"]]
        program.flag_extfunc = [bool(b) for b in flags["extfunc"]]
        program.flag_extcall = [bool(b) for b in flags["extcall"]]
        program.omega = operand("omega", data["omega"])
        for sym in data["symbols"]:
            symbol = ProgramSymbol.from_dict(sym)
            where = f"symbols[{symbol.name!r}]"
            check(where, all(
                isinstance(s, str) for s in (
                    symbol.name, symbol.kind, symbol.linkage, symbol.type_key
                )
            ), "expected string fields")
            index(where, symbol.var, memory=True)
            check(where, symbol.name not in program.symbols,
                  "duplicate symbol name")
            program.symbols[symbol.name] = symbol
        program.linkage_ea = {
            index("linkage_ea", v) for v in data["linkage_ea"]
        }
        return program

    def digest(self) -> str:
        """Content hash of the canonical form (stage cache key part)."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ConstraintProgram {self.name}: |V|={self.num_vars}"
            f" |C|={self.num_constraints()}>"
        )
