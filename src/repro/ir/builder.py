"""Convenience builder for constructing IR imperatively.

The builder tracks an insertion point (a basic block) and assigns unique
register names within the current function.  It is used by the C frontend's
lowering pass, by tests, and by the synthetic corpus generator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import types as ty
from .instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    Cmp,
    Gep,
    Instruction,
    Load,
    Memcpy,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from .module import BasicBlock, Function, Module
from .values import (
    Constant,
    IntConstant,
    NullConstant,
    UndefConstant,
    Value,
)


class IRBuilder:
    def __init__(self, module: Module):
        self.module = module
        self.function: Optional[Function] = None
        self.block: Optional[BasicBlock] = None
        self._name_counter = 0
        self._used_names: set = set()

    # ----- positioning ------------------------------------------------

    def set_function(self, function: Function) -> Function:
        self.function = function
        self._name_counter = 0
        self._used_names = {a.name for a in function.args if a.name}
        return function

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block
        if block.parent is not None:
            self.function = block.parent

    def new_block(self, name: str = "bb") -> BasicBlock:
        assert self.function is not None, "no current function"
        return self.function.add_block(name)

    def _fresh(self, hint: str) -> str:
        self._name_counter += 1
        return f"{hint}{self._name_counter}"

    def _unique_name(self, name: str) -> str:
        """Register names must be unique per function so each printed
        name denotes one value; suffix colliding names."""
        used = self._used_names
        if name not in used:
            used.add(name)
            return name
        i = 1
        while f"{name}.{i}" in used:
            i += 1
        unique = f"{name}.{i}"
        used.add(unique)
        return unique

    def _insert(self, inst: Instruction, hint: str = "t") -> Instruction:
        assert self.block is not None, "no insertion point"
        if inst.has_result:
            inst.name = self._unique_name(inst.name or self._fresh(hint))
        self.block.append(inst)
        return inst

    @property
    def is_terminated(self) -> bool:
        return self.block is not None and self.block.is_terminated()

    # ----- constants ----------------------------------------------------

    def const_int(self, value: int, type_: ty.IntType = ty.I32) -> IntConstant:
        return IntConstant(type_, value)

    def null(self, type_: ty.PointerType) -> NullConstant:
        return NullConstant(type_)

    def undef(self, type_: ty.Type) -> UndefConstant:
        return UndefConstant(type_)

    # ----- memory -------------------------------------------------------

    def alloca(self, allocated: ty.Type, name: str = "") -> Alloca:
        return self._insert(Alloca(allocated, name), hint="a")  # type: ignore[return-value]

    def load(self, pointer: Value, name: str = "") -> Load:
        if not isinstance(pointer.type, ty.PointerType):
            raise TypeError(f"load from non-pointer {pointer.type}")
        return self._insert(Load(pointer.type.pointee, pointer, name), hint="l")  # type: ignore[return-value]

    def store(self, value: Value, pointer: Value) -> Store:
        if not isinstance(pointer.type, ty.PointerType):
            raise TypeError(f"store to non-pointer {pointer.type}")
        return self._insert(Store(value, pointer))  # type: ignore[return-value]

    def gep(
        self,
        base: Value,
        indices: Sequence[Value],
        result_type: Optional[ty.PointerType] = None,
        constant_offset: Optional[int] = None,
        name: str = "",
    ) -> Gep:
        if result_type is None:
            if not isinstance(base.type, ty.PointerType):
                raise TypeError("gep base must be a pointer")
            result_type = base.type
        return self._insert(  # type: ignore[return-value]
            Gep(result_type, base, indices, name, constant_offset), hint="g"
        )

    def memcpy(self, dst: Value, src: Value, length: Value) -> Memcpy:
        return self._insert(Memcpy(dst, src, length))  # type: ignore[return-value]

    # ----- arithmetic / casts --------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self._insert(BinOp(op, lhs, rhs, name), hint="b")  # type: ignore[return-value]

    def cmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> Cmp:
        return self._insert(Cmp(predicate, lhs, rhs, name), hint="c")  # type: ignore[return-value]

    def cast(self, kind: str, value: Value, to_type: ty.Type, name: str = "") -> Cast:
        return self._insert(Cast(kind, value, to_type, name), hint="x")  # type: ignore[return-value]

    def bitcast(self, value: Value, to_type: ty.Type, name: str = "") -> Cast:
        return self.cast("bitcast", value, to_type, name)

    def ptrtoint(self, value: Value, to_type: ty.IntType = ty.I64, name: str = "") -> Cast:
        return self.cast("ptrtoint", value, to_type, name)

    def inttoptr(self, value: Value, to_type: ty.PointerType, name: str = "") -> Cast:
        return self.cast("inttoptr", value, to_type, name)

    def select(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> Select:
        return self._insert(Select(cond, if_true, if_false, name), hint="s")  # type: ignore[return-value]

    def phi(self, type_: ty.Type, name: str = "") -> Phi:
        return self._insert(Phi(type_, name), hint="p")  # type: ignore[return-value]

    # ----- calls / control flow -------------------------------------------

    def call(self, callee: Value, args: Sequence[Value], name: str = "") -> Call:
        callee_ty = callee.type
        if isinstance(callee_ty, ty.PointerType) and isinstance(
            callee_ty.pointee, ty.FunctionType
        ):
            result = callee_ty.pointee.return_type
        else:
            raise TypeError(f"call target is not a function pointer: {callee_ty}")
        return self._insert(Call(result, callee, args, name), hint="r")  # type: ignore[return-value]

    def br(self, target: BasicBlock) -> Br:
        return self._insert(Br(target))  # type: ignore[return-value]

    def cond_br(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Br:
        return self._insert(Br(if_true, cond, if_false))  # type: ignore[return-value]

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self._insert(Ret(value))  # type: ignore[return-value]

    def unreachable(self) -> Unreachable:
        return self._insert(Unreachable())  # type: ignore[return-value]
