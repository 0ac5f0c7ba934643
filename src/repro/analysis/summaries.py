"""Declarative summary functions for external library calls.

Paper §III-B: "If the imported function is a common library function, it
is also possible to use a handwritten summary function instead of the
overly conservative constraint ⑤."  This module provides a small
combinator language for writing such summaries without touching the
constraint builder, plus a pack of summaries for common libc functions.

A summary is declared from effects::

    summary(returns_alloc())                        # malloc
    summary(copies(src=0, dst="ret"))               # strcpy-like: returns dst
    summary(deep_copies(src=1, dst=0))              # memcpy pointees
    summary(nothing())                              # free, strlen, ...
    summary(escapes(0), returns_unknown())          # fopen-ish

Effects compose left to right.  Argument positions are 0-based; the
special position ``"ret"`` denotes the call's result.

Use::

    from repro.analysis import analyze_module
    from repro.analysis.summaries import LIBC_SUMMARIES

    analyze_module(module, summaries=LIBC_SUMMARIES)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from ..ir import instructions as ins
from .frontend import ConstraintBuilder, SummaryFn

Position = Union[int, str]  # 0-based argument index, or "ret"


class _SummaryContext:
    """Resolves positions to constraint variables for one call site."""

    def __init__(self, builder: ConstraintBuilder, call: ins.Call):
        self.builder = builder
        self.call = call

    def var(self, position: Position) -> Optional[int]:
        if position == "ret":
            return self.builder.built.var_of_value.get(self.call)
        assert isinstance(position, int)
        if position >= len(self.call.args):
            return None
        return self.builder.operand_var(self.call.args[position])

    def value(self, position: Position):
        if position == "ret":
            return self.call
        assert isinstance(position, int)
        if position >= len(self.call.args):
            return None
        return self.call.args[position]


Effect = Callable[[_SummaryContext], None]


def nothing() -> Effect:
    """The function neither retains, exposes nor produces pointers
    (``free``, ``strlen``, ``memcmp``, pure math...)."""

    def apply(ctx: _SummaryContext) -> None:
        pass

    return apply


def returns_alloc() -> Effect:
    """The function returns fresh memory named by the call site."""

    def apply(ctx: _SummaryContext) -> None:
        ctx.builder.model_heap_allocation(ctx.call)

    return apply


def returns_arg(position: int) -> Effect:
    """The result aliases the given argument (``strcpy`` returns dst)."""

    def apply(ctx: _SummaryContext) -> None:
        ret = ctx.var("ret")
        src = ctx.var(position)
        if ret is not None and src is not None:
            ctx.builder.program.add_simple(ret, src)

    return apply


def returns_pointee_of(position: int) -> Effect:
    """The result is loaded from the argument (``*arg`` flows out)."""

    def apply(ctx: _SummaryContext) -> None:
        ret = ctx.var("ret")
        src = ctx.var(position)
        if ret is not None and src is not None:
            ctx.builder.program.add_load(ret, src)

    return apply


def deep_copies(src: Position, dst: Position) -> Effect:
    """``*dst ⊇ *src`` (``memcpy``/``memmove``/``strcpy`` contents).

    ``dst`` may be ``"ret"`` for functions that copy into memory they
    return (``strdup``)."""

    def apply(ctx: _SummaryContext) -> None:
        dst_value = ctx.value(dst)
        src_value = ctx.value(src)
        if dst_value is not None and src_value is not None:
            ctx.builder.model_memcpy(dst_value, src_value)

    return apply


def stores_arg(value: int, into: int) -> Effect:
    """``*into ⊇ value`` (posix_memalign-style out-parameters)."""

    def apply(ctx: _SummaryContext) -> None:
        v = ctx.var(value)
        p = ctx.var(into)
        if v is not None and p is not None:
            ctx.builder.program.add_store(p, v)

    return apply


def escapes(position: Position) -> Effect:
    """The argument's pointees become externally accessible (the
    function retains the pointer: ``atexit``, ``setenv``...)."""

    def apply(ctx: _SummaryContext) -> None:
        v = ctx.var(position)
        if v is not None:
            ctx.builder.program.mark_pointees_escape(v)

    return apply


def returns_unknown() -> Effect:
    """The result has unknown origin (``getenv``, ``dlsym``...)."""

    def apply(ctx: _SummaryContext) -> None:
        ret = ctx.var("ret")
        if ret is not None:
            ctx.builder.program.mark_points_to_external(ret)

    return apply


def summary(*effects: Effect) -> SummaryFn:
    """Compose effects into a summary usable by the constraint builder."""

    def apply(builder: ConstraintBuilder, call: ins.Call) -> None:
        ctx = _SummaryContext(builder, call)
        for effect in effects:
            effect(ctx)

    return apply


# ----------------------------------------------------------------------
# A summary pack for common libc functions.
# ----------------------------------------------------------------------

LIBC_SUMMARIES: Dict[str, SummaryFn] = {
    # allocation
    "malloc": summary(returns_alloc()),
    "calloc": summary(returns_alloc()),
    "aligned_alloc": summary(returns_alloc()),
    "strdup": summary(returns_alloc(), deep_copies(src=0, dst="ret")),
    "realloc": summary(returns_alloc(), returns_arg(0)),
    "free": summary(nothing()),
    # memory/strings
    "memcpy": summary(deep_copies(src=1, dst=0), returns_arg(0)),
    "memmove": summary(deep_copies(src=1, dst=0), returns_arg(0)),
    "strcpy": summary(deep_copies(src=1, dst=0), returns_arg(0)),
    "strncpy": summary(deep_copies(src=1, dst=0), returns_arg(0)),
    "strcat": summary(deep_copies(src=1, dst=0), returns_arg(0)),
    "memset": summary(returns_arg(0)),
    "strchr": summary(returns_arg(0)),
    "strrchr": summary(returns_arg(0)),
    "strstr": summary(returns_arg(0)),
    # pure readers
    "strlen": summary(nothing()),
    "strcmp": summary(nothing()),
    "strncmp": summary(nothing()),
    "memcmp": summary(nothing()),
    "atoi": summary(nothing()),
    "atol": summary(nothing()),
    "abs": summary(nothing()),
    # environment / registration: pointers escape or appear
    "getenv": summary(returns_unknown()),
    "setenv": summary(escapes(1)),
    "atexit": summary(escapes(0)),
    "qsort": summary(escapes(0), escapes(3)),
    "bsearch": summary(escapes(0), escapes(1), escapes(4), returns_arg(1)),
    # thread spawning: the start routine and its argument escape into
    # the spawning runtime (the audit race client additionally reads
    # these call sites as thread-entry roots)
    "pthread_create": summary(escapes(2), escapes(3)),
    "thrd_create": summary(escapes(1), escapes(2)),
}
