"""Semantic analysis for the C frontend.

Walks the AST produced by :mod:`repro.frontend.cparser`, building symbol
tables and annotating every expression with its C type (``expr.ctype``),
lvalue-ness (``expr.is_lvalue``) and, for identifiers, the resolved
:class:`Symbol` (``expr.symbol``).  Linkage is resolved C-style:

- file-scope ``static`` → internal linkage;
- declarations that are never defined → imports;
- everything else at file scope → exported definitions;
- block-scope ``static`` variables become internal globals;
- calls to undeclared functions create implicit ``int f()`` imports
  (C89 semantics, pervasive in older real-world code).

The pass is deliberately permissive where production compilers only
warn (e.g. implicit integer/pointer conversions): the points-to analysis
must handle such code soundly, so the frontend must accept it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..ir import types as ty
from . import ast_nodes as ast


class SemaError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def sizeof_type(ctype: ty.Type, line: int) -> int:
    """``sizeof`` of ``ctype``; a SemaError when the type has no size:
    void, a function or an incomplete struct (C 6.5.3.4p1)."""
    try:
        return ctype.sizeof()
    except TypeError as exc:
        raise SemaError(f"invalid sizeof: {exc}", line) from None


@dataclass
class Symbol:
    """A declared entity."""

    name: str
    ctype: ty.Type
    kind: str  # 'global' | 'function' | 'local' | 'param' | 'static-local'
    storage: Optional[str] = None
    defined: bool = False
    init: Optional[ast.InitItem] = None
    line: int = 0
    #: unique name for block-scope statics promoted to module level
    mangled: Optional[str] = None

    @property
    def linkage(self) -> str:
        """IR linkage for module-level symbols."""
        if self.kind == "static-local" or self.storage == "static":
            return "internal"
        if not self.defined:
            return "import"
        return "external"


@dataclass
class FunctionInfo:
    symbol: Symbol
    definition: ast.FunctionDef
    #: parameter symbols in order
    params: List[Symbol] = field(default_factory=list)
    #: every block-scope symbol, in declaration order
    locals: List[Symbol] = field(default_factory=list)
    #: goto labels used/defined
    labels: List[str] = field(default_factory=list)


@dataclass
class SemaResult:
    unit: ast.TranslationUnit
    #: file-scope symbols by name (variables and functions)
    globals: Dict[str, Symbol]
    #: block-scope statics promoted to module level
    static_locals: List[Symbol]
    #: analysed function definitions
    functions: List[FunctionInfo]


def _decay(t: ty.Type) -> ty.Type:
    """Array-to-pointer and function-to-pointer decay."""
    if isinstance(t, ty.ArrayType):
        return ty.ptr(t.element)
    if isinstance(t, ty.FunctionType):
        return ty.ptr(t)
    return t


def _is_arith(t: ty.Type) -> bool:
    return isinstance(t, (ty.IntType, ty.FloatType))


def _usual_conversions(a: ty.Type, b: ty.Type) -> ty.Type:
    """Usual arithmetic conversions (simplified LP64 model)."""
    if isinstance(a, ty.FloatType) or isinstance(b, ty.FloatType):
        bits = max(
            a.bits if isinstance(a, ty.FloatType) else 0,
            b.bits if isinstance(b, ty.FloatType) else 0,
            32,
        )
        return ty.FloatType(bits)
    assert isinstance(a, ty.IntType) and isinstance(b, ty.IntType)
    bits = max(a.bits, b.bits, 32)
    signed = a.signed and b.signed
    if a.bits == b.bits and a.signed != b.signed:
        signed = False
    return ty.IntType(bits, signed)


class Sema:
    def __init__(self, unit: ast.TranslationUnit, permissive: bool = True):
        self.unit = unit
        self.permissive = permissive
        self.globals: Dict[str, Symbol] = {}
        self.static_locals: List[Symbol] = []
        self.functions: List[FunctionInfo] = []
        self.scopes: List[Dict[str, Symbol]] = []
        self.current_fn: Optional[FunctionInfo] = None
        #: the current function's goto statements, checked at its end
        self._gotos: List[ast.Goto] = []
        self._static_counter = 0

    # ------------------------------------------------------------------

    def run(self) -> SemaResult:
        for item in self.unit.items:
            if isinstance(item, ast.Declaration):
                self._file_scope_declaration(item)
            elif isinstance(item, ast.FunctionDef):
                self._function_definition(item)
        return SemaResult(
            self.unit, self.globals, self.static_locals, self.functions
        )

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _file_scope_declaration(self, decl: ast.Declaration) -> None:
        if decl.storage == "typedef":
            return  # handled entirely in the parser
        for d in decl.declarators:
            is_function = isinstance(d.ctype, ty.FunctionType)
            dtype = _fixup_array_init(d.ctype, d.init)
            d.ctype = dtype
            existing = self.globals.get(d.name)
            has_def = d.init is not None or (
                not is_function and decl.storage not in ("extern",)
            )
            if existing is not None:
                if existing.ctype != dtype and not (
                    is_function and isinstance(existing.ctype, ty.FunctionType)
                ):
                    raise SemaError(
                        f"conflicting declarations of {d.name!r}", d.line
                    )
                existing.defined = existing.defined or has_def
                if d.init is not None:
                    if existing.init is not None:
                        raise SemaError(f"redefinition of {d.name!r}", d.line)
                    existing.init = d.init
                if decl.storage == "static":
                    existing.storage = "static"
            else:
                self.globals[d.name] = Symbol(
                    d.name,
                    dtype,
                    "function" if is_function else "global",
                    decl.storage,
                    defined=has_def,
                    init=d.init,
                    line=d.line,
                )
            if d.init is not None:
                self._check_initializer(d.init, dtype, file_scope=True)

    def _function_definition(self, fdef: ast.FunctionDef) -> None:
        existing = self.globals.get(fdef.name)
        if existing is not None:
            if existing.kind != "function":
                raise SemaError(f"conflicting declarations of {fdef.name!r}", fdef.line)
            if existing.defined and existing.init:
                raise SemaError(f"redefinition of {fdef.name!r}", fdef.line)
            existing.defined = True
            existing.ctype = fdef.ctype
            if fdef.storage == "static":
                existing.storage = "static"
            symbol = existing
        else:
            symbol = Symbol(
                fdef.name, fdef.ctype, "function", fdef.storage,
                defined=True, line=fdef.line,
            )
            self.globals[fdef.name] = symbol
        symbol.init = ast.InitItem()  # marks "has a body"

        info = FunctionInfo(symbol, fdef)
        self.current_fn = info
        self.scopes.append({})
        for param in fdef.params:
            if param.name is None:
                raise SemaError(
                    f"unnamed parameter in definition of {fdef.name!r}",
                    fdef.line,
                )
            psym = Symbol(param.name, param.ctype, "param", line=param.line)
            self.scopes[-1][param.name] = psym
            info.params.append(psym)
        self._gotos = []
        self._compound(fdef.body)
        for goto in self._gotos:
            if goto.label not in info.labels:
                raise SemaError(f"use of undeclared label {goto.label!r}", goto.line)
        self.scopes.pop()
        self.current_fn = None
        self.functions.append(info)

    def _local_declaration(self, decl: ast.Declaration) -> None:
        if decl.storage == "typedef":
            return
        assert self.current_fn is not None
        for d in decl.declarators:
            dtype = _fixup_array_init(d.ctype, d.init)
            d.ctype = dtype
            if decl.storage == "extern":
                # Block-scope extern refers to a module-level symbol.
                sym = self.globals.get(d.name)
                if sym is None:
                    kind = (
                        "function"
                        if isinstance(dtype, ty.FunctionType)
                        else "global"
                    )
                    sym = Symbol(d.name, dtype, kind, "extern", line=d.line)
                    self.globals[d.name] = sym
                self.scopes[-1][d.name] = sym
                continue
            if isinstance(dtype, ty.FunctionType):
                # Block-scope function declaration.
                sym = self.globals.setdefault(
                    d.name, Symbol(d.name, dtype, "function", line=d.line)
                )
                self.scopes[-1][d.name] = sym
                continue
            if decl.storage == "static":
                self._static_counter += 1
                sym = Symbol(
                    d.name, dtype, "static-local", "static",
                    defined=True, init=d.init, line=d.line,
                    mangled=f"{self.current_fn.symbol.name}.{d.name}.{self._static_counter}",
                )
                self.static_locals.append(sym)
                if d.init is not None:
                    self._check_initializer(d.init, dtype, file_scope=True)
            else:
                sym = Symbol(
                    d.name, dtype, "local", defined=True, init=d.init,
                    line=d.line,
                )
                self.current_fn.locals.append(sym)
                if d.init is not None:
                    self._check_initializer(d.init, dtype, file_scope=False)
            self.scopes[-1][d.name] = sym
            d.symbol = sym  # type: ignore[attr-defined]

    def _check_initializer(
        self, init: ast.InitItem, target: ty.Type, file_scope: bool
    ) -> None:
        if init.expr is not None:
            self._expr(init.expr)
            return
        assert init.items is not None
        if isinstance(target, ty.ArrayType):
            for item in init.items:
                self._check_initializer(item, target.element, file_scope)
        elif isinstance(target, ty.StructType):
            fields = target.fields
            if len(init.items) > len(fields) and not target.is_union:
                raise SemaError("too many initialisers", init.line)
            for item, (_, ftype) in zip(init.items, fields):
                self._check_initializer(item, ftype, file_scope)
        else:
            if len(init.items) != 1:
                raise SemaError("too many initialisers for scalar", init.line)
            self._check_initializer(init.items[0], target, file_scope)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _compound(self, stmt: ast.Compound) -> None:
        self.scopes.append({})
        for item in stmt.items:
            if isinstance(item, ast.Declaration):
                self._local_declaration(item)
            else:
                self._stmt(item)
        self.scopes.pop()

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Compound):
            self._compound(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.cond)
            self._stmt(stmt.then)
            if stmt.otherwise is not None:
                self._stmt(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._stmt(stmt.body)
            self._expr(stmt.cond)
        elif isinstance(stmt, ast.For):
            self.scopes.append({})
            if isinstance(stmt.init, ast.Declaration):
                self._local_declaration(stmt.init)
            elif stmt.init is not None:
                self._expr(stmt.init)
            if stmt.cond is not None:
                self._expr(stmt.cond)
            if stmt.step is not None:
                self._expr(stmt.step)
            self._stmt(stmt.body)
            self.scopes.pop()
        elif isinstance(stmt, ast.Return):
            assert self.current_fn is not None
            rtype = self.current_fn.definition.ctype.return_type
            if stmt.value is not None:
                if isinstance(rtype, ty.VoidType):
                    raise SemaError("return with value in void function", stmt.line)
                self._expr(stmt.value)
            elif not isinstance(rtype, ty.VoidType) and not self.permissive:
                raise SemaError("bare return in non-void function", stmt.line)
        elif isinstance(stmt, ast.Switch):
            self._expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, (ast.Case, ast.Default)):
            if isinstance(stmt, ast.Case):
                self._expr(stmt.value)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.Label):
            assert self.current_fn is not None
            self.current_fn.labels.append(stmt.name)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.Goto):
            self._gotos.append(stmt)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        else:  # pragma: no cover
            raise SemaError(f"unhandled statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _lookup(self, name: str) -> Optional[Symbol]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return self.globals.get(name)

    def _expr(self, expr: ast.Expr) -> ty.Type:
        """Annotate ``expr`` and return its (undecayed) type."""
        t = self._expr_inner(expr)
        expr.ctype = t
        return t

    def _rvalue_type(self, expr: ast.Expr) -> ty.Type:
        return _decay(self._expr(expr))

    def _expr_inner(self, expr: ast.Expr) -> ty.Type:
        if isinstance(expr, ast.Identifier):
            sym = self._lookup(expr.name)
            if sym is None:
                raise SemaError(f"undeclared identifier {expr.name!r}", expr.line)
            expr.symbol = sym  # type: ignore[attr-defined]
            expr.is_lvalue = not isinstance(sym.ctype, ty.FunctionType)
            return sym.ctype
        if isinstance(expr, ast.IntLiteral):
            return ty.I64 if expr.value > 0x7FFFFFFF else ty.I32
        if isinstance(expr, ast.FloatLiteral):
            return ty.F64
        if isinstance(expr, ast.CharLiteral):
            return ty.I32
        if isinstance(expr, ast.StringLiteral):
            expr.is_lvalue = True
            return ty.ArrayType(ty.I8, len(expr.value) + 1)
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Assignment):
            return self._assignment(expr)
        if isinstance(expr, ast.Conditional):
            self._rvalue_type(expr.cond)
            a = self._rvalue_type(expr.if_true)
            b = self._rvalue_type(expr.if_false)
            if _is_arith(a) and _is_arith(b):
                return _usual_conversions(a, b)
            if isinstance(a, ty.PointerType):
                return a
            if isinstance(b, ty.PointerType):
                return b
            return a
        if isinstance(expr, ast.Cast):
            self._rvalue_type(expr.operand)
            return expr.target_type.ctype
        if isinstance(expr, ast.SizeofType):
            sizeof_type(expr.target_type.ctype, expr.line)
            return ty.U64
        if isinstance(expr, ast.SizeofExpr):
            sizeof_type(self._expr(expr.operand), expr.line)
            return ty.U64
        if isinstance(expr, ast.CallExpr):
            return self._call(expr)
        if isinstance(expr, ast.Index):
            base = self._rvalue_type(expr.base)
            self._rvalue_type(expr.index)
            if isinstance(base, ty.PointerType):
                expr.is_lvalue = True
                return base.pointee
            raise SemaError("subscripted value is not a pointer/array", expr.line)
        if isinstance(expr, ast.Member):
            return self._member(expr)
        if isinstance(expr, ast.Comma):
            self._expr(expr.lhs)
            return self._rvalue_type(expr.rhs)
        raise SemaError(f"unhandled expression {type(expr).__name__}", expr.line)

    def _unary(self, expr: ast.Unary) -> ty.Type:
        op = expr.op
        if op == "&":
            t = self._expr(expr.operand)
            if isinstance(t, ty.FunctionType):
                return ty.ptr(t)
            if not expr.operand.is_lvalue:
                raise SemaError("cannot take the address of an rvalue", expr.line)
            return ty.ptr(t)
        if op == "*":
            t = self._rvalue_type(expr.operand)
            if not isinstance(t, ty.PointerType):
                raise SemaError("dereference of non-pointer", expr.line)
            if isinstance(t.pointee, ty.FunctionType):
                return t.pointee  # *fn_ptr is the function designator
            expr.is_lvalue = True
            return t.pointee
        if op in ("++", "--", "p++", "p--"):
            t = self._expr(expr.operand)
            if not expr.operand.is_lvalue:
                raise SemaError(f"{op} requires an lvalue", expr.line)
            if isinstance(t, ty.VoidType):
                raise SemaError(f"{op} of an expression of type void", expr.line)
            return _decay(t)
        t = self._rvalue_type(expr.operand)
        if op == "!":
            return ty.I32
        if op in ("+", "-", "~"):
            if isinstance(t, ty.IntType):
                return _usual_conversions(t, ty.I32)
            if isinstance(t, ty.FloatType) and op != "~":
                return t
            raise SemaError(f"bad operand for unary {op}", expr.line)
        raise SemaError(f"unknown unary operator {op}", expr.line)

    def _binary(self, expr: ast.Binary) -> ty.Type:
        op = expr.op
        a = self._rvalue_type(expr.lhs)
        b = self._rvalue_type(expr.rhs)
        if op in ("&&", "||", "==", "!=", "<", ">", "<=", ">="):
            return ty.I32
        if op == "+":
            if isinstance(a, ty.PointerType) and isinstance(b, ty.IntType):
                return a
            if isinstance(b, ty.PointerType) and isinstance(a, ty.IntType):
                return b
        if op == "-":
            if isinstance(a, ty.PointerType) and isinstance(b, ty.PointerType):
                return ty.I64  # ptrdiff_t
            if isinstance(a, ty.PointerType) and isinstance(b, ty.IntType):
                return a
        if _is_arith(a) and _is_arith(b):
            if op in ("%", "&", "|", "^", "<<", ">>") and not (
                isinstance(a, ty.IntType) and isinstance(b, ty.IntType)
            ):
                raise SemaError(f"bad operands for {op}", expr.line)
            if op in ("<<", ">>"):
                return _usual_conversions(a, ty.I32)
            return _usual_conversions(a, b)
        if self.permissive and (
            isinstance(a, ty.PointerType) or isinstance(b, ty.PointerType)
        ):
            # Mixed pointer/integer arithmetic through implicit casts.
            return a if isinstance(a, ty.PointerType) else b
        raise SemaError(f"bad operands for {op}: {a} and {b}", expr.line)

    def _assignment(self, expr: ast.Assignment) -> ty.Type:
        t = self._expr(expr.target)
        if not expr.target.is_lvalue:
            raise SemaError("assignment target is not an lvalue", expr.line)
        if isinstance(t, ty.ArrayType):
            raise SemaError("cannot assign to an array", expr.line)
        if isinstance(t, ty.VoidType):
            raise SemaError("cannot assign to an expression of type void", expr.line)
        self._rvalue_type(expr.value)
        return t

    def _call(self, expr: ast.CallExpr) -> ty.Type:
        callee = expr.callee
        if isinstance(callee, ast.Identifier) and self._lookup(callee.name) is None:
            # C89 implicit declaration: int name().
            implicit = ty.FunctionType(ty.I32, (), variadic=True)
            sym = Symbol(callee.name, implicit, "function", line=expr.line)
            self.globals[callee.name] = sym
        ctype = self._rvalue_type(callee)
        if isinstance(ctype, ty.PointerType) and isinstance(
            ctype.pointee, ty.FunctionType
        ):
            ftype = ctype.pointee
        elif isinstance(ctype, ty.FunctionType):
            ftype = ctype
        else:
            raise SemaError("called object is not a function", expr.line)
        if not ftype.variadic and ftype.params and len(expr.args) != len(ftype.params):
            if not self.permissive:
                raise SemaError("wrong number of arguments", expr.line)
        for arg in expr.args:
            self._rvalue_type(arg)
        return ftype.return_type

    def _member(self, expr: ast.Member) -> ty.Type:
        base = self._expr(expr.base)
        if expr.arrow:
            base = _decay(base)
            if not isinstance(base, ty.PointerType):
                raise SemaError("-> on non-pointer", expr.line)
            stype = base.pointee
            expr.is_lvalue = True
        else:
            stype = base
            expr.is_lvalue = expr.base.is_lvalue
        if not isinstance(stype, ty.StructType):
            raise SemaError("member access on non-struct", expr.line)
        if not stype.complete:
            raise SemaError(f"use of incomplete struct {stype.name}", expr.line)
        try:
            return stype.field_type(expr.name)
        except KeyError:
            raise SemaError(
                f"no member {expr.name!r} in {stype}", expr.line
            ) from None


def _fixup_array_init(dtype: ty.Type, init: Optional[ast.InitItem]) -> ty.Type:
    """Size incomplete arrays from their initialiser."""
    if (
        isinstance(dtype, ty.ArrayType)
        and dtype.count == 0
        and init is not None
    ):
        if init.items is not None:
            return ty.ArrayType(dtype.element, max(len(init.items), 1))
        if init.expr is not None and isinstance(init.expr, ast.StringLiteral):
            return ty.ArrayType(dtype.element, len(init.expr.value) + 1)
    return dtype


def analyse(unit: ast.TranslationUnit, permissive: bool = True) -> SemaResult:
    """Run semantic analysis over a parsed translation unit."""
    return Sema(unit, permissive).run()
