"""Structural verifier for the repro IR.

Checks the invariants the analysis and printer rely on.  Raises
:class:`VerificationError` listing every violation found.
"""

from __future__ import annotations

from typing import List, Set

from . import types as ty
from .instructions import (
    Alloca,
    Br,
    Call,
    Cast,
    Gep,
    Instruction,
    Load,
    Memcpy,
    Phi,
    Ret,
    Store,
)
from .module import Function, Module
from .values import Argument, Constant, GlobalValue, Value


class VerificationError(Exception):
    def __init__(self, errors: List[str]):
        self.errors = errors
        super().__init__("\n".join(errors))


def verify_module(module: Module) -> None:
    errors: List[str] = []
    for fn in module.functions.values():
        errors.extend(_verify_function(fn, module))
    if errors:
        raise VerificationError(errors)


def _verify_function(fn: Function, module: Module) -> List[str]:
    errors: List[str] = []
    if fn.is_declaration:
        return errors

    where = f"function @{fn.name}"
    defined: Set[int] = {id(a) for a in fn.args}
    blocks = set(fn.blocks)

    for block in fn.blocks:
        if not block.is_terminated():
            errors.append(f"{where}: block %{block.name} lacks a terminator")
        for i, inst in enumerate(block.instructions):
            if inst.is_terminator() and inst is not block.instructions[-1]:
                errors.append(
                    f"{where}: terminator mid-block in %{block.name} at index {i}"
                )
            errors.extend(_verify_instruction(inst, fn, module, defined, where))
            if inst.has_result:
                defined.add(id(inst))

    # Phi incoming blocks must exist in the function.
    for inst in fn.instructions():
        if isinstance(inst, Phi):
            for _, pred in inst.incoming:
                if pred not in blocks:
                    errors.append(
                        f"{where}: phi {inst.ref()} references foreign block"
                        f" %{pred.name}"
                    )
        if isinstance(inst, Br):
            for target in inst.targets:
                if target not in blocks:
                    errors.append(
                        f"{where}: branch to foreign block %{target.name}"
                    )

    # Return types must match.
    for inst in fn.instructions():
        if isinstance(inst, Ret):
            if isinstance(fn.return_type, ty.VoidType):
                if inst.value is not None:
                    errors.append(f"{where}: ret with value in void function")
            elif inst.value is None:
                errors.append(f"{where}: bare ret in non-void function")
    return errors


def _operand_visible(op: Value, defined: Set[int]) -> bool:
    if isinstance(op, (Constant, GlobalValue, Argument)):
        return True
    # Instruction results: require a prior definition in this function.
    # (We accept any already-seen def; strict dominance is not enforced.)
    return id(op) in defined


def _verify_instruction(
    inst: Instruction,
    fn: Function,
    module: Module,
    defined: Set[int],
    where: str,
) -> List[str]:
    errors: List[str] = []
    for op in inst.operands:
        if not isinstance(inst, Phi) and not _operand_visible(op, defined):
            errors.append(
                f"{where}: {inst.opcode} {inst.ref()} uses undefined operand"
                f" {op.ref()}"
            )
    if isinstance(inst, Load):
        if not isinstance(inst.pointer.type, ty.PointerType):
            errors.append(f"{where}: load from non-pointer {inst.pointer.type}")
        elif inst.pointer.type.pointee != inst.type:
            errors.append(
                f"{where}: load type {inst.type} != pointee"
                f" {inst.pointer.type.pointee}"
            )
    if isinstance(inst, Store):
        if not isinstance(inst.pointer.type, ty.PointerType):
            errors.append(f"{where}: store to non-pointer {inst.pointer.type}")
        elif inst.pointer.type.pointee != inst.value.type:
            errors.append(
                f"{where}: store value {inst.value.type} != pointee"
                f" {inst.pointer.type.pointee}"
            )
    if isinstance(inst, Gep) and not isinstance(inst.base.type, ty.PointerType):
        errors.append(f"{where}: gep base is not a pointer")
    if isinstance(inst, Cast):
        errors.extend(_verify_cast(inst, where))
    if isinstance(inst, Call):
        callee_ty = inst.callee.type
        if not (
            isinstance(callee_ty, ty.PointerType)
            and isinstance(callee_ty.pointee, ty.FunctionType)
        ):
            errors.append(f"{where}: call target is not a function pointer")
        else:
            fty = callee_ty.pointee
            if not fty.variadic and len(inst.args) != len(fty.params):
                errors.append(
                    f"{where}: call to {inst.callee.ref()} with"
                    f" {len(inst.args)} args, expected {len(fty.params)}"
                )
    if isinstance(inst, Memcpy):
        for p in (inst.dst, inst.src):
            if not isinstance(p.type, ty.PointerType):
                errors.append(f"{where}: memcpy operand is not a pointer")
    return errors


def _verify_cast(inst: Cast, where: str) -> List[str]:
    errors: List[str] = []
    src, dst = inst.value.type, inst.type
    kind = inst.kind
    if kind == "ptrtoint":
        if not isinstance(src, ty.PointerType) or not isinstance(dst, ty.IntType):
            errors.append(f"{where}: bad ptrtoint {src} -> {dst}")
    elif kind == "inttoptr":
        if not isinstance(src, ty.IntType) or not isinstance(dst, ty.PointerType):
            errors.append(f"{where}: bad inttoptr {src} -> {dst}")
    elif kind in ("trunc", "zext", "sext"):
        if not isinstance(src, ty.IntType) or not isinstance(dst, ty.IntType):
            errors.append(f"{where}: bad {kind} {src} -> {dst}")
    elif kind in ("fptrunc", "fpext"):
        if not isinstance(src, ty.FloatType) or not isinstance(dst, ty.FloatType):
            errors.append(f"{where}: bad {kind} {src} -> {dst}")
    elif kind in ("fptosi", "fptoui"):
        if not isinstance(src, ty.FloatType) or not isinstance(dst, ty.IntType):
            errors.append(f"{where}: bad {kind} {src} -> {dst}")
    elif kind in ("sitofp", "uitofp"):
        if not isinstance(src, ty.IntType) or not isinstance(dst, ty.FloatType):
            errors.append(f"{where}: bad {kind} {src} -> {dst}")
    return errors


def compute_address_taken(module: Module) -> None:
    """Mark every :class:`Alloca` whose address escapes direct load/store.

    BasicAA uses this to prove that never-address-taken locals do not alias
    anything else (paper §VI-A).
    """
    for fn in module.defined_functions():
        allocas = [i for i in fn.instructions() if isinstance(i, Alloca)]
        for a in allocas:
            a.address_taken = False
        for inst in fn.instructions():
            for i, op in enumerate(inst.operands):
                if not isinstance(op, Alloca):
                    continue
                if isinstance(inst, Load) and i == 0:
                    continue  # load *from* it: not address-taken
                if isinstance(inst, Store) and i == 1:
                    continue  # store *to* it: not address-taken
                op.address_taken = True
