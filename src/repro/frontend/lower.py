"""Lowering: typed C AST → repro IR.

Follows the clang ``-O0`` shape the paper's pipeline relies on: every
local variable and parameter gets an ``alloca``; reads and writes go
through loads and stores; short-circuit operators, loops and switches
become explicit control flow.  This keeps a one-to-one correspondence
between source pointer operations and the IR instructions the points-to
analysis consumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ..ir import instructions as ins
from ..ir import types as ty
from ..ir.builder import IRBuilder
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import (
    AggregateConstant,
    Constant,
    FloatConstant,
    GlobalValue,
    GlobalVariable,
    IntConstant,
    NullConstant,
    UndefConstant,
    Value,
)
from . import ast_nodes as ast
from .sema import FunctionInfo, SemaError, SemaResult, Symbol, _decay


class LowerError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class Lowering:
    def __init__(self, sema: SemaResult, module_name: str = "module"):
        self.sema = sema
        self.module = Module(module_name)
        self.builder = IRBuilder(self.module)
        #: Symbol → IR value holding its address (GlobalValue or Alloca)
        self.addresses: Dict[int, Value] = {}
        #: Symbol → IR Function
        self.ir_functions: Dict[int, Function] = {}
        self._strings: Dict[str, GlobalVariable] = {}
        # per-function state
        self._break_stack: List[BasicBlock] = []
        self._continue_stack: List[BasicBlock] = []
        self._labels: Dict[str, BasicBlock] = {}
        #: label blocks a goto created before the label was lowered
        self._forward_labels: Set[BasicBlock] = set()
        self._switch_cases: Optional[List[Tuple[Optional[int], BasicBlock]]] = None

    # ------------------------------------------------------------------

    def run(self) -> Module:
        # 1. Declare all module-level symbols.
        for sym in self.sema.globals.values():
            self._declare_global(sym)
        for sym in self.sema.static_locals:
            self._declare_global(sym)
        # 2. Global initialisers (need all symbols declared first).
        for sym in list(self.sema.globals.values()) + self.sema.static_locals:
            if sym.kind in ("global", "static-local") and sym.init is not None:
                gv = self.addresses[id(sym)]
                assert isinstance(gv, GlobalVariable)
                gv.initializer = self._const_init(sym.init, sym.ctype)
        # 3. Function bodies.
        for info in self.sema.functions:
            self._lower_function(info)
        return self.module

    # ------------------------------------------------------------------

    def _declare_global(self, sym: Symbol) -> None:
        if id(sym) in self.addresses or id(sym) in self.ir_functions:
            return
        if isinstance(sym.ctype, ty.FunctionType):
            fn = Function(sym.ctype, sym.name, sym.linkage)
            self.module.add_function(fn)
            self.ir_functions[id(sym)] = fn
            self.addresses[id(sym)] = fn
        else:
            name = sym.mangled or sym.name
            gv = GlobalVariable(sym.ctype, name, sym.linkage)
            self.module.add_global(gv)
            self.addresses[id(sym)] = gv

    def _string_literal(self, text: str) -> GlobalVariable:
        cached = self._strings.get(text)
        if cached is not None:
            return cached
        data = text.encode("latin-1", errors="replace") + b"\0"
        atype = ty.ArrayType(ty.I8, len(data))
        gv = GlobalVariable(
            atype,
            self.module.unique_name(".str"),
            linkage="internal",
            initializer=AggregateConstant(
                atype, [IntConstant(ty.I8, b) for b in data]
            ),
            is_constant=True,
        )
        self.module.add_global(gv)
        self._strings[text] = gv
        return gv

    # ------------------------------------------------------------------
    # Constant initialisers
    # ------------------------------------------------------------------

    def _const_init(self, init: ast.InitItem, target: ty.Type):
        if init.expr is not None:
            if isinstance(target, ty.ArrayType) and isinstance(
                init.expr, ast.StringLiteral
            ):
                return self._string_array_constant(init.expr.value, target)
            return self._const_expr(init.expr, target)
        assert init.items is not None
        if isinstance(target, ty.ArrayType):
            elements = [
                self._const_init(item, target.element) for item in init.items
            ]
            while len(elements) < target.count:
                elements.append(self._zero(target.element))
            return AggregateConstant(target, elements)
        if isinstance(target, ty.StructType):
            elements = []
            for i, (_, ftype) in enumerate(target.fields):
                if i < len(init.items):
                    elements.append(self._const_init(init.items[i], ftype))
                elif not target.is_union:
                    elements.append(self._zero(ftype))
                if target.is_union:
                    break
            return AggregateConstant(target, elements)
        if len(init.items) == 1:
            return self._const_init(init.items[0], target)
        raise LowerError("too many initialisers for scalar", init.line)

    def _string_array_constant(self, text: str, target: ty.ArrayType):
        data = list(text.encode("latin-1", errors="replace")) + [0]
        while len(data) < target.count:
            data.append(0)
        return AggregateConstant(
            target, [IntConstant(ty.I8, b) for b in data[: max(target.count, len(data))]]
        )

    def _zero(self, t: ty.Type):
        if isinstance(t, ty.IntType):
            return IntConstant(t, 0)
        if isinstance(t, ty.FloatType):
            return FloatConstant(t, 0.0)
        if isinstance(t, ty.PointerType):
            return NullConstant(t)
        if isinstance(t, ty.ArrayType):
            return AggregateConstant(t, [self._zero(t.element)] * t.count)
        if isinstance(t, ty.StructType):
            return AggregateConstant(
                t, [self._zero(ftype) for _, ftype in t.fields]
            )
        return UndefConstant(t)

    def _const_expr(self, expr: ast.Expr, target: ty.Type):
        """Evaluate a file-scope constant initialiser expression."""
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            if isinstance(target, ty.PointerType):
                if expr.value == 0:
                    return NullConstant(target)
                raise LowerError("non-null integer pointer initialiser", expr.line)
            if isinstance(target, ty.FloatType):
                return FloatConstant(target, float(expr.value))
            assert isinstance(target, ty.IntType)
            return IntConstant(target, expr.value)
        if isinstance(expr, ast.FloatLiteral):
            if isinstance(target, ty.FloatType):
                return FloatConstant(target, expr.value)
            if isinstance(target, ty.IntType):
                return IntConstant(target, int(expr.value))
        if isinstance(expr, ast.StringLiteral):
            return self._string_literal(expr.value)
        if isinstance(expr, ast.Cast):
            return self._const_expr(expr.operand, target)
        if isinstance(expr, ast.Unary) and expr.op == "&":
            target_sym = self._address_constant(expr.operand)
            if target_sym is not None:
                return target_sym
        if isinstance(expr, ast.Identifier):
            sym = getattr(expr, "symbol", None)
            if sym is not None and isinstance(
                sym.ctype, (ty.ArrayType, ty.FunctionType)
            ):
                return self.addresses[id(sym)]  # decay to address
        # Fold arithmetic constant expressions.
        folded = _fold_int(expr)
        if folded is not None:
            if isinstance(target, ty.PointerType):
                if folded == 0:
                    return NullConstant(target)
            elif isinstance(target, ty.FloatType):
                return FloatConstant(target, float(folded))
            elif isinstance(target, ty.IntType):
                return IntConstant(target, folded)
        raise LowerError("unsupported constant initialiser", expr.line)

    def _address_constant(self, expr: ast.Expr) -> Optional[Value]:
        """&expr at file scope: the base global, field-insensitively."""
        if isinstance(expr, ast.Identifier):
            sym = getattr(expr, "symbol", None)
            if sym is not None and id(sym) in self.addresses:
                return self.addresses[id(sym)]
        if isinstance(expr, (ast.Index, ast.Member)):
            return self._address_constant(
                expr.base if isinstance(expr, (ast.Index, ast.Member)) else expr
            )
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self._address_constant(expr.operand)
        return None

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _lower_function(self, info: FunctionInfo) -> None:
        fn = self.ir_functions[id(info.symbol)]
        builder = self.builder
        builder.set_function(fn)
        entry = fn.add_block("entry")
        builder.position_at_end(entry)
        self._labels = {}
        self._forward_labels = set()
        self._break_stack = []
        self._continue_stack = []

        # Parameters: alloca + store (clang -O0 idiom).
        for psym, arg in zip(info.params, fn.args):
            arg.name = psym.name
            slot = builder.alloca(psym.ctype, name=f"{psym.name}.addr")
            builder.store(arg, slot)
            self.addresses[id(psym)] = slot

        self._compound(info.definition.body)

        # Implicit return.
        if builder.block is not None and not builder.is_terminated:
            rtype = fn.return_type
            if isinstance(rtype, ty.VoidType):
                builder.ret()
            elif fn.name == "main" and isinstance(rtype, ty.IntType):
                builder.ret(IntConstant(rtype, 0))
            else:
                builder.ret(UndefConstant(rtype))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _compound(self, stmt: ast.Compound) -> None:
        for item in stmt.items:
            if isinstance(item, ast.Declaration):
                self._local_decl(item)
            else:
                self._stmt(item)

    def _local_decl(self, decl: ast.Declaration) -> None:
        if decl.storage == "typedef":
            return
        builder = self.builder
        for d in decl.declarators:
            sym = getattr(d, "symbol", None)
            if sym is None:
                continue  # extern/static locals resolved at module level
            if sym.kind != "local":
                continue
            slot = builder.alloca(sym.ctype, name=d.name)
            self.addresses[id(sym)] = slot
            if d.init is not None:
                self._lower_local_init(slot, d.init, sym.ctype)

    def _lower_local_init(
        self, slot: Value, init: ast.InitItem, target: ty.Type
    ) -> None:
        builder = self.builder
        if init.expr is not None:
            if isinstance(target, ty.ArrayType):
                if isinstance(init.expr, ast.StringLiteral):
                    src = self._string_literal(init.expr.value)
                    builder.memcpy(
                        slot, src, IntConstant(ty.I64, target.sizeof())
                    )
                    return
                raise LowerError("bad array initialiser", init.line)
            value = self._rvalue(init.expr)
            builder.store(self._coerce(value, target, init.line), slot)
            return
        assert init.items is not None
        if isinstance(target, ty.ArrayType):
            for i, item in enumerate(init.items[: max(target.count, len(init.items))]):
                ptr = builder.gep(
                    slot,
                    [IntConstant(ty.I64, i)],
                    result_type=ty.ptr(target.element),
                    constant_offset=i * target.element.sizeof(),
                )
                self._lower_local_init(ptr, item, target.element)
        elif isinstance(target, ty.StructType):
            for i, item in enumerate(init.items[: len(target.fields)]):
                fname, ftype = target.fields[i]
                ptr = builder.gep(
                    slot,
                    [IntConstant(ty.I64, i)],
                    result_type=ty.ptr(ftype),
                    constant_offset=target.field_offset(i),
                )
                self._lower_local_init(ptr, item, ftype)
        else:
            if len(init.items) != 1:
                raise LowerError("too many initialisers", init.line)
            self._lower_local_init(slot, init.items[0], target)

    def _stmt(self, stmt: ast.Stmt) -> None:
        builder = self.builder
        if builder.is_terminated and not isinstance(
            stmt, (ast.Case, ast.Default, ast.Label)
        ):
            # Unreachable code still needs lowering targets for labels;
            # start a fresh (unreachable) block to hold it.
            dead = builder.new_block("dead")
            builder.position_at_end(dead)
        if isinstance(stmt, ast.Compound):
            self._compound(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._rvalue(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._for(stmt)
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._break_stack:
                raise LowerError("break outside loop/switch", stmt.line)
            builder.br(self._break_stack[-1])
        elif isinstance(stmt, ast.Continue):
            if not self._continue_stack:
                raise LowerError("continue outside loop", stmt.line)
            builder.br(self._continue_stack[-1])
        elif isinstance(stmt, ast.Switch):
            self._switch(stmt)
        elif isinstance(stmt, ast.Case):
            self._case(stmt)
        elif isinstance(stmt, ast.Default):
            self._default(stmt)
        elif isinstance(stmt, ast.Goto):
            if stmt.label not in self._labels:
                self._forward_labels.add(self._label_block(stmt.label))
            builder.br(self._label_block(stmt.label))
        elif isinstance(stmt, ast.Label):
            block = self._label_block(stmt.name)
            if not builder.is_terminated:
                builder.br(block)
            builder.position_at_end(block)
            self._stmt(stmt.body)
        else:  # pragma: no cover
            raise LowerError(f"unhandled statement {type(stmt).__name__}")

    def _storage(self, expr: ast.Identifier, sym: Symbol) -> Value:
        """The address of ``sym``'s storage, used by ``expr``."""
        addr = self.addresses.get(id(sym))
        if addr is None:
            raise LowerError(f"no storage for {expr.name}", expr.line)
        block = self.builder.block
        if (
            block in self._forward_labels
            and isinstance(addr, ins.Alloca)
            and addr.parent is not block
            and self._after(addr.parent, block)
        ):
            # The goto jumped past the declaration, and the block it
            # reaches precedes the alloca in the function's layout: the
            # only way lowering can emit a use before its definition.
            raise LowerError(
                f"use of {expr.name!r} after a jump past its declaration"
                " is not supported",
                expr.line,
            )
        return addr

    def _after(self, block: BasicBlock, other: BasicBlock) -> bool:
        """Whether ``block`` comes after ``other`` in the function."""
        blocks = self.builder.function.blocks
        return blocks.index(block) > blocks.index(other)

    def _label_block(self, name: str) -> BasicBlock:
        block = self._labels.get(name)
        if block is None:
            block = self.builder.new_block(f"label.{name}")
            self._labels[name] = block
        return block

    def _if(self, stmt: ast.If) -> None:
        builder = self.builder
        cond = self._truthy(stmt.cond)
        then_bb = builder.new_block("if.then")
        end_bb = builder.new_block("if.end")
        else_bb = builder.new_block("if.else") if stmt.otherwise else end_bb
        builder.cond_br(cond, then_bb, else_bb)
        builder.position_at_end(then_bb)
        self._stmt(stmt.then)
        if not builder.is_terminated:
            builder.br(end_bb)
        if stmt.otherwise is not None:
            builder.position_at_end(else_bb)
            self._stmt(stmt.otherwise)
            if not builder.is_terminated:
                builder.br(end_bb)
        builder.position_at_end(end_bb)

    def _while(self, stmt: ast.While) -> None:
        builder = self.builder
        cond_bb = builder.new_block("while.cond")
        body_bb = builder.new_block("while.body")
        end_bb = builder.new_block("while.end")
        builder.br(cond_bb)
        builder.position_at_end(cond_bb)
        builder.cond_br(self._truthy(stmt.cond), body_bb, end_bb)
        builder.position_at_end(body_bb)
        self._break_stack.append(end_bb)
        self._continue_stack.append(cond_bb)
        self._stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if not builder.is_terminated:
            builder.br(cond_bb)
        builder.position_at_end(end_bb)

    def _do_while(self, stmt: ast.DoWhile) -> None:
        builder = self.builder
        body_bb = builder.new_block("do.body")
        cond_bb = builder.new_block("do.cond")
        end_bb = builder.new_block("do.end")
        builder.br(body_bb)
        builder.position_at_end(body_bb)
        self._break_stack.append(end_bb)
        self._continue_stack.append(cond_bb)
        self._stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if not builder.is_terminated:
            builder.br(cond_bb)
        builder.position_at_end(cond_bb)
        builder.cond_br(self._truthy(stmt.cond), body_bb, end_bb)
        builder.position_at_end(end_bb)

    def _for(self, stmt: ast.For) -> None:
        builder = self.builder
        if isinstance(stmt.init, ast.Declaration):
            self._local_decl(stmt.init)
        elif stmt.init is not None:
            self._rvalue(stmt.init, want_value=False)
        cond_bb = builder.new_block("for.cond")
        body_bb = builder.new_block("for.body")
        step_bb = builder.new_block("for.step")
        end_bb = builder.new_block("for.end")
        builder.br(cond_bb)
        builder.position_at_end(cond_bb)
        if stmt.cond is not None:
            builder.cond_br(self._truthy(stmt.cond), body_bb, end_bb)
        else:
            builder.br(body_bb)
        builder.position_at_end(body_bb)
        self._break_stack.append(end_bb)
        self._continue_stack.append(step_bb)
        self._stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if not builder.is_terminated:
            builder.br(step_bb)
        builder.position_at_end(step_bb)
        if stmt.step is not None:
            self._rvalue(stmt.step, want_value=False)
        builder.br(cond_bb)
        builder.position_at_end(end_bb)

    def _return(self, stmt: ast.Return) -> None:
        builder = self.builder
        fn = builder.function
        assert fn is not None
        if stmt.value is None:
            if isinstance(fn.return_type, ty.VoidType):
                builder.ret()
            else:
                builder.ret(UndefConstant(fn.return_type))
            return
        value = self._rvalue(stmt.value)
        builder.ret(self._coerce(value, fn.return_type, stmt.line))

    def _switch(self, stmt: ast.Switch) -> None:
        builder = self.builder
        scrutinee = self._rvalue(stmt.cond)
        end_bb = builder.new_block("switch.end")
        body_bb = builder.new_block("switch.body")
        dispatch_from = builder.block
        assert dispatch_from is not None

        outer_cases = self._switch_cases
        self._switch_cases = []
        self._break_stack.append(end_bb)
        builder.position_at_end(body_bb)
        self._stmt(stmt.body)
        if not builder.is_terminated:
            builder.br(end_bb)
        self._break_stack.pop()
        cases, self._switch_cases = self._switch_cases, outer_cases

        # Build the dispatch chain in the original block.
        builder.position_at_end(dispatch_from)
        default_bb = end_bb
        for value, block in cases:
            if value is None:
                default_bb = block
        for value, block in cases:
            if value is None:
                continue
            cmp = builder.cmp(
                "eq", scrutinee, IntConstant(ty.I64, value), name="switch.cmp"
            )
            next_bb = builder.new_block("switch.next")
            builder.cond_br(cmp, block, next_bb)
            builder.position_at_end(next_bb)
        builder.br(default_bb)
        # `body_bb` is only reachable through case blocks; if the body
        # started without a case label it is dead code, which is fine.
        builder.position_at_end(end_bb)

    def _case(self, stmt: ast.Case) -> None:
        builder = self.builder
        if self._switch_cases is None:
            raise LowerError("case outside switch", stmt.line)
        block = builder.new_block("case")
        if not builder.is_terminated:
            builder.br(block)  # fall-through from the previous case
        builder.position_at_end(block)
        assert isinstance(stmt.value, ast.IntLiteral)
        self._switch_cases.append((stmt.value.value, block))
        self._stmt(stmt.body)

    def _default(self, stmt: ast.Default) -> None:
        builder = self.builder
        if self._switch_cases is None:
            raise LowerError("default outside switch", stmt.line)
        block = builder.new_block("default")
        if not builder.is_terminated:
            builder.br(block)
        builder.position_at_end(block)
        self._switch_cases.append((None, block))
        self._stmt(stmt.body)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _truthy(self, expr: ast.Expr) -> Value:
        value = self._rvalue(expr)
        t = value.type
        if isinstance(t, ty.IntType):
            if t == ty.BOOL:
                return value
            return self.builder.cmp("ne", value, IntConstant(t, 0))
        if isinstance(t, ty.FloatType):
            return self.builder.cmp("ne", value, FloatConstant(t, 0.0))
        if isinstance(t, ty.PointerType):
            return self.builder.cmp("ne", value, NullConstant(t))
        raise LowerError(f"value of type {t} is not a condition", expr.line)

    def _coerce(self, value: Value, target: ty.Type, line: int) -> Value:
        """Insert conversion instructions to reach ``target``."""
        src = value.type
        if src == target:
            return value
        builder = self.builder
        if isinstance(src, ty.IntType) and isinstance(target, ty.IntType):
            if src.bits == target.bits:
                return self._retype_int(value, target)
            kind = "trunc" if src.bits > target.bits else (
                "sext" if src.signed else "zext"
            )
            return builder.cast(kind, value, target)
        if isinstance(src, ty.PointerType) and isinstance(target, ty.PointerType):
            return builder.bitcast(value, target)
        if isinstance(src, ty.PointerType) and isinstance(target, ty.IntType):
            out = builder.ptrtoint(value, ty.IntType(64, target.signed))
            return self._coerce(out, target, line)
        if isinstance(src, ty.IntType) and isinstance(target, ty.PointerType):
            if isinstance(value, IntConstant) and value.value == 0:
                return NullConstant(target)
            widened = self._coerce(value, ty.I64, line)
            return builder.inttoptr(widened, target)
        if isinstance(src, ty.FloatType) and isinstance(target, ty.FloatType):
            kind = "fptrunc" if src.bits > target.bits else "fpext"
            return builder.cast(kind, value, target)
        if isinstance(src, ty.IntType) and isinstance(target, ty.FloatType):
            return builder.cast("sitofp" if src.signed else "uitofp", value, target)
        if isinstance(src, ty.FloatType) and isinstance(target, ty.IntType):
            return builder.cast("fptosi" if target.signed else "fptoui", value, target)
        if isinstance(target, ty.VoidType):
            return value
        raise LowerError(f"cannot convert {src} to {target}", line)

    def _retype_int(self, value: Value, target: ty.IntType) -> Value:
        """Same-width signedness change: value-preserving, no IR needed
        for constants; otherwise an explicit no-op pair keeps types tidy."""
        if isinstance(value, IntConstant):
            return IntConstant(target, value.value)
        # zext to a wider type then trunc back gives the right type with
        # explicit instructions (keeps the verifier strict).
        wide = self.builder.cast("zext", value, ty.IntType(value.type.bits * 2, False))
        return self.builder.cast("trunc", wide, target)

    # -- lvalues --------------------------------------------------------

    def _lvalue(self, expr: ast.Expr) -> Value:
        """The address of an lvalue expression."""
        builder = self.builder
        if isinstance(expr, ast.Identifier):
            sym = getattr(expr, "symbol", None)
            if sym is None:
                raise LowerError(f"unresolved identifier {expr.name}", expr.line)
            return self._storage(expr, sym)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self._rvalue(expr.operand)
        if isinstance(expr, ast.Index):
            base = self._rvalue(expr.base)  # decays arrays
            index = self._rvalue(expr.index)
            assert isinstance(base.type, ty.PointerType)
            elem = base.type.pointee
            offset = None
            if isinstance(index, IntConstant):
                try:
                    offset = index.value * elem.sizeof()
                except TypeError:
                    offset = None
            return builder.gep(
                base, [index], result_type=ty.ptr(elem), constant_offset=offset
            )
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base = self._rvalue(expr.base)
            else:
                base = self._lvalue(expr.base)
            assert isinstance(base.type, ty.PointerType)
            stype = base.type.pointee
            if not isinstance(stype, ty.StructType):
                raise LowerError("member access on non-struct", expr.line)
            index = stype.field_index(expr.name)
            ftype = stype.fields[index][1]
            return builder.gep(
                base,
                [IntConstant(ty.I32, index)],
                result_type=ty.ptr(ftype),
                constant_offset=stype.field_offset(index),
            )
        if isinstance(expr, ast.StringLiteral):
            return self._string_literal(expr.value)
        raise LowerError(
            f"expression is not an lvalue: {type(expr).__name__}", expr.line
        )

    # -- rvalues --------------------------------------------------------

    def _rvalue(self, expr: ast.Expr, want_value: bool = True) -> Value:
        builder = self.builder
        t = expr.ctype
        if isinstance(expr, ast.IntLiteral):
            assert isinstance(t, ty.IntType)
            return IntConstant(t, expr.value)
        if isinstance(expr, ast.CharLiteral):
            return IntConstant(ty.I32, expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return FloatConstant(ty.F64, expr.value)
        if isinstance(expr, ast.StringLiteral):
            gv = self._string_literal(expr.value)
            return builder.gep(
                gv,
                [IntConstant(ty.I64, 0)],
                result_type=ty.ptr(ty.I8),
                constant_offset=0,
            )
        if isinstance(expr, ast.Identifier):
            sym = getattr(expr, "symbol", None)
            assert sym is not None
            if isinstance(sym.ctype, ty.FunctionType):
                return self.addresses[id(sym)]  # function designator
            addr = self._storage(expr, sym)
            if isinstance(sym.ctype, ty.ArrayType):
                # Array decay: &arr[0].
                return builder.gep(
                    addr,
                    [IntConstant(ty.I64, 0)],
                    result_type=ty.ptr(sym.ctype.element),
                    constant_offset=0,
                )
            return builder.load(addr, name=expr.name)
        if isinstance(expr, ast.Unary):
            return self._unary_rvalue(expr)
        if isinstance(expr, ast.Binary):
            return self._binary_rvalue(expr)
        if isinstance(expr, ast.Assignment):
            return self._assignment_rvalue(expr)
        if isinstance(expr, ast.Conditional):
            return self._conditional_rvalue(expr)
        if isinstance(expr, ast.Cast):
            inner = self._rvalue(expr.operand)
            target = expr.target_type.ctype
            if isinstance(target, ty.VoidType):
                return inner
            return self._coerce(inner, _decay(target), expr.line)
        if isinstance(expr, (ast.SizeofType, ast.SizeofExpr)):
            if isinstance(expr, ast.SizeofType):
                size = expr.target_type.ctype.sizeof()
            else:
                assert expr.operand.ctype is not None
                size = expr.operand.ctype.sizeof()
            return IntConstant(ty.U64, size)
        if isinstance(expr, ast.CallExpr):
            return self._call_rvalue(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            addr = self._lvalue(expr)
            assert isinstance(addr.type, ty.PointerType)
            if isinstance(addr.type.pointee, ty.ArrayType):
                # Array member/element decays.
                elem = addr.type.pointee.element
                return builder.gep(
                    addr,
                    [IntConstant(ty.I64, 0)],
                    result_type=ty.ptr(elem),
                    constant_offset=0,
                )
            return builder.load(addr)
        if isinstance(expr, ast.Comma):
            self._rvalue(expr.lhs, want_value=False)
            return self._rvalue(expr.rhs, want_value=want_value)
        raise LowerError(f"unhandled expression {type(expr).__name__}", expr.line)

    def _unary_rvalue(self, expr: ast.Unary) -> Value:
        builder = self.builder
        op = expr.op
        if op == "&":
            operand = expr.operand
            if (
                isinstance(operand, ast.Identifier)
                and isinstance(getattr(operand, "symbol").ctype, ty.FunctionType)
            ):
                return self.addresses[id(operand.symbol)]  # type: ignore[attr-defined]
            return self._lvalue(operand)
        if op == "*":
            ptr = self._rvalue(expr.operand)
            assert isinstance(ptr.type, ty.PointerType)
            pointee = ptr.type.pointee
            if isinstance(pointee, ty.FunctionType):
                return ptr  # *fnptr stays a function pointer value
            if isinstance(pointee, ty.ArrayType):
                return builder.gep(
                    ptr,
                    [IntConstant(ty.I64, 0)],
                    result_type=ty.ptr(pointee.element),
                    constant_offset=0,
                )
            return builder.load(ptr)
        if op in ("++", "--", "p++", "p--"):
            return self._incdec(expr)
        value = self._rvalue(expr.operand)
        if op == "+":
            return value
        if op == "-":
            if isinstance(value.type, ty.FloatType):
                return builder.binop("fsub", FloatConstant(value.type, 0.0), value)
            return builder.binop("sub", IntConstant(value.type, 0), value)
        if op == "~":
            return builder.binop("xor", value, IntConstant(value.type, -1))
        if op == "!":
            cond = self._truthy(expr.operand)
            flip = builder.cmp("eq", cond, IntConstant(ty.BOOL, 0))
            return builder.cast("zext", flip, ty.I32)
        raise LowerError(f"unknown unary {op}", expr.line)

    def _incdec(self, expr: ast.Unary) -> Value:
        builder = self.builder
        addr = self._lvalue(expr.operand)
        old = builder.load(addr)
        t = old.type
        delta = 1 if expr.op in ("++", "p++") else -1
        if isinstance(t, ty.PointerType):
            off = delta * t.pointee.sizeof() if _has_size(t.pointee) else None
            new = builder.gep(
                old, [IntConstant(ty.I64, delta)], result_type=t,
                constant_offset=off,
            )
        elif isinstance(t, ty.FloatType):
            new = builder.binop("fadd", old, FloatConstant(t, float(delta)))
        else:
            new = builder.binop("add", old, IntConstant(t, delta))
        builder.store(new, addr)
        return old if expr.op.startswith("p") else new

    def _binary_rvalue(self, expr: ast.Binary) -> Value:
        builder = self.builder
        op = expr.op
        if op in ("&&", "||"):
            return self._short_circuit(expr)
        lhs = self._rvalue(expr.lhs)
        rhs = self._rvalue(expr.rhs)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._comparison(op, lhs, rhs, expr.line)
        # Pointer arithmetic.
        if isinstance(lhs.type, ty.PointerType) and isinstance(
            rhs.type, ty.IntType
        ):
            if op not in ("+", "-"):
                raise LowerError(f"bad pointer operation {op}", expr.line)
            index = self._coerce(rhs, ty.I64, expr.line)
            if op == "-":
                index = builder.binop("sub", IntConstant(ty.I64, 0), index)
            return builder.gep(lhs, [index], result_type=lhs.type)
        if isinstance(rhs.type, ty.PointerType) and isinstance(
            lhs.type, ty.IntType
        ):
            if op != "+":
                raise LowerError(f"bad pointer operation {op}", expr.line)
            index = self._coerce(lhs, ty.I64, expr.line)
            return builder.gep(rhs, [index], result_type=rhs.type)
        if isinstance(lhs.type, ty.PointerType) and isinstance(
            rhs.type, ty.PointerType
        ):
            if op != "-":
                raise LowerError(f"bad pointer operation {op}", expr.line)
            li = builder.ptrtoint(lhs, ty.I64)
            ri = builder.ptrtoint(rhs, ty.I64)
            diff = builder.binop("sub", li, ri)
            size = lhs.type.pointee.sizeof() if _has_size(lhs.type.pointee) else 1
            if size > 1:
                diff = builder.binop("sdiv", diff, IntConstant(ty.I64, size))
            return diff
        # Arithmetic with usual conversions.
        common = expr.ctype
        assert common is not None
        lhs = self._coerce(lhs, common, expr.line)
        rhs = self._coerce(rhs, common, expr.line)
        if isinstance(common, ty.FloatType):
            fop = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}.get(op)
            if fop is None:
                raise LowerError(f"bad float operation {op}", expr.line)
            return builder.binop(fop, lhs, rhs)
        assert isinstance(common, ty.IntType)
        signed = common.signed
        iop = {
            "+": "add", "-": "sub", "*": "mul",
            "/": "sdiv" if signed else "udiv",
            "%": "srem" if signed else "urem",
            "&": "and", "|": "or", "^": "xor",
            "<<": "shl", ">>": "ashr" if signed else "lshr",
        }[op]
        return builder.binop(iop, lhs, rhs)

    def _comparison(self, op: str, lhs: Value, rhs: Value, line: int) -> Value:
        builder = self.builder
        lt, rt = lhs.type, rhs.type
        if isinstance(lt, ty.PointerType) or isinstance(rt, ty.PointerType):
            target = lt if isinstance(lt, ty.PointerType) else rt
            lhs = self._coerce(lhs, target, line)
            rhs = self._coerce(rhs, target, line)
            signed = False
        else:
            common = (
                _usual_float(lt, rt)
                if isinstance(lt, ty.FloatType) or isinstance(rt, ty.FloatType)
                else None
            )
            if common is None:
                assert isinstance(lt, ty.IntType) and isinstance(rt, ty.IntType)
                bits = max(lt.bits, rt.bits, 32)
                signed = lt.signed and rt.signed
                common = ty.IntType(bits, signed)
            else:
                signed = True
            lhs = self._coerce(lhs, common, line)
            rhs = self._coerce(rhs, common, line)
        pred = {
            "==": "eq", "!=": "ne",
            "<": "slt" if signed else "ult",
            ">": "sgt" if signed else "ugt",
            "<=": "sle" if signed else "ule",
            ">=": "sge" if signed else "uge",
        }[op]
        flag = builder.cmp(pred, lhs, rhs)
        return builder.cast("zext", flag, ty.I32)

    def _short_circuit(self, expr: ast.Binary) -> Value:
        builder = self.builder
        is_and = expr.op == "&&"
        rhs_bb = builder.new_block("sc.rhs")
        end_bb = builder.new_block("sc.end")
        lhs_cond = self._truthy(expr.lhs)
        lhs_block = builder.block
        assert lhs_block is not None
        if is_and:
            builder.cond_br(lhs_cond, rhs_bb, end_bb)
        else:
            builder.cond_br(lhs_cond, end_bb, rhs_bb)
        builder.position_at_end(rhs_bb)
        rhs_cond = self._truthy(expr.rhs)
        rhs_block = builder.block
        assert rhs_block is not None
        builder.br(end_bb)
        builder.position_at_end(end_bb)
        phi = builder.phi(ty.BOOL, name="sc")
        phi.add_incoming(IntConstant(ty.BOOL, 0 if is_and else 1), lhs_block)
        phi.add_incoming(rhs_cond, rhs_block)
        return builder.cast("zext", phi, ty.I32)

    def _conditional_rvalue(self, expr: ast.Conditional) -> Value:
        builder = self.builder
        cond = self._truthy(expr.cond)
        then_bb = builder.new_block("cond.then")
        else_bb = builder.new_block("cond.else")
        end_bb = builder.new_block("cond.end")
        builder.cond_br(cond, then_bb, else_bb)
        target = _decay(expr.ctype) if expr.ctype else ty.I32
        builder.position_at_end(then_bb)
        tval = self._coerce(self._rvalue(expr.if_true), target, expr.line)
        tblock = builder.block
        builder.br(end_bb)
        builder.position_at_end(else_bb)
        fval = self._coerce(self._rvalue(expr.if_false), target, expr.line)
        fblock = builder.block
        builder.br(end_bb)
        builder.position_at_end(end_bb)
        if isinstance(target, ty.VoidType):
            return UndefConstant(ty.VOID)
        phi = builder.phi(target, name="cond")
        phi.add_incoming(tval, tblock)
        phi.add_incoming(fval, fblock)
        return phi

    def _assignment_rvalue(self, expr: ast.Assignment) -> Value:
        builder = self.builder
        addr = self._lvalue(expr.target)
        assert isinstance(addr.type, ty.PointerType)
        target_t = addr.type.pointee
        if expr.op == "=":
            value = self._coerce(self._rvalue(expr.value), target_t, expr.line)
            builder.store(value, addr)
            return value
        # Compound assignment: load, apply, store.
        synthetic = ast.Binary(expr.op[:-1], expr.target, expr.value, expr.line)
        synthetic.ctype = (
            _decay(target_t)
            if isinstance(target_t, ty.PointerType)
            else expr.ctype and _arith_result(target_t, expr.value.ctype)
        ) or target_t
        value = self._binary_rvalue(synthetic)
        value = self._coerce(value, target_t, expr.line)
        builder.store(value, addr)
        return value

    def _call_rvalue(self, expr: ast.CallExpr) -> Value:
        builder = self.builder
        callee = self._rvalue(expr.callee)
        ctype = callee.type
        assert isinstance(ctype, ty.PointerType) and isinstance(
            ctype.pointee, ty.FunctionType
        )
        ftype = ctype.pointee
        # Checked here, against the callee's final type: a definition
        # may prototype a function that was unprototyped at the call.
        # Unprototyped ``f()`` declarations are variadic and take any call.
        if not ftype.variadic and len(expr.args) != len(ftype.params):
            raise LowerError(
                f"wrong number of arguments: {len(expr.args)} given,"
                f" {len(ftype.params)} expected",
                expr.line,
            )
        args: List[Value] = []
        for i, arg in enumerate(expr.args):
            value = self._rvalue(arg)
            if i < len(ftype.params):
                value = self._coerce(value, ftype.params[i], expr.line)
            args.append(value)
        return builder.call(callee, args)


def _has_size(t: ty.Type) -> bool:
    try:
        t.sizeof()
        return True
    except TypeError:
        return False


def _usual_float(a: ty.Type, b: ty.Type) -> Optional[ty.FloatType]:
    bits = 0
    if isinstance(a, ty.FloatType):
        bits = max(bits, a.bits)
    if isinstance(b, ty.FloatType):
        bits = max(bits, b.bits)
    return ty.FloatType(max(bits, 32)) if bits else None


def _arith_result(a: ty.Type, b: Optional[ty.Type]) -> Optional[ty.Type]:
    from .sema import _usual_conversions

    if b is None:
        return a
    b = _decay(b)
    if isinstance(a, (ty.IntType, ty.FloatType)) and isinstance(
        b, (ty.IntType, ty.FloatType)
    ):
        return _usual_conversions(a, b)
    return a


def _fold_int(expr: ast.Expr) -> Optional[int]:
    """Best-effort integer constant folding for initialisers."""
    if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
        return expr.value
    if isinstance(expr, ast.SizeofType):
        return expr.target_type.ctype.sizeof()
    if isinstance(expr, ast.Unary):
        v = _fold_int(expr.operand)
        if v is None:
            return None
        return {"-": -v, "+": v, "~": ~v, "!": int(not v)}.get(expr.op)
    if isinstance(expr, ast.Binary):
        a, b = _fold_int(expr.lhs), _fold_int(expr.rhs)
        if a is None or b is None:
            return None
        try:
            return {
                "+": a + b, "-": a - b, "*": a * b,
                "/": a // b if b else 0, "%": a % b if b else 0,
                "<<": a << b, ">>": a >> b,
                "&": a & b, "|": a | b, "^": a ^ b,
            }[expr.op]
        except KeyError:
            return None
    if isinstance(expr, ast.Cast):
        return _fold_int(expr.operand)
    return None


def lower(sema: SemaResult, module_name: str = "module") -> Module:
    """Lower an analysed translation unit to IR."""
    return Lowering(sema, module_name).run()
