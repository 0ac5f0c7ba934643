"""The repro IR: an LLVM-flavoured SSA intermediate representation.

This is the substrate the points-to analysis consumes.  The C frontend
(:mod:`repro.frontend`) lowers C source into this IR; the synthetic corpus
generator (:mod:`repro.bench.corpus`) emits it via the same frontend.

Public surface::

    from repro.ir import Module, Function, IRBuilder, types
    from repro.ir import print_module, verify_module
"""

from . import types
from .builder import IRBuilder
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
from .printer import (
    collect_struct_types,
    print_function,
    print_instruction,
    print_module,
)
from .values import (
    AggregateConstant,
    Argument,
    Constant,
    FloatConstant,
    GlobalValue,
    GlobalVariable,
    IntConstant,
    NullConstant,
    UndefConstant,
    Value,
)
from .verifier import VerificationError, compute_address_taken, verify_module

__all__ = [
    "types",
    "IRBuilder",
    "Module",
    "Function",
    "BasicBlock",
    "Instruction",
    "Alloca",
    "Load",
    "Store",
    "Gep",
    "BinOp",
    "Cmp",
    "Cast",
    "Select",
    "Phi",
    "Call",
    "Memcpy",
    "Br",
    "Ret",
    "Unreachable",
    "Value",
    "Constant",
    "IntConstant",
    "FloatConstant",
    "NullConstant",
    "UndefConstant",
    "AggregateConstant",
    "Argument",
    "GlobalValue",
    "GlobalVariable",
    "print_module",
    "print_function",
    "print_instruction",
    "collect_struct_types",
    "verify_module",
    "VerificationError",
    "compute_address_taken",
]
