"""Mod/ref summaries from the points-to solution.

For every defined function, compute the sets of abstract memory
locations it may **mod**ify and may **ref**erence — directly, through
pointers, and transitively through callees.  Calls that may reach
external code conservatively mod/ref every externally accessible
location (represented by the :data:`repro.analysis.omega.OMEGA` token).

These summaries answer the queries optimising compilers need for
loop-invariant code motion and call-crossing load/store elimination:
"can this call write the memory this load reads?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from ..analysis.api import PointsToResult
from ..analysis.omega import OMEGA
from ..ir import Call, Load, Memcpy, Store
from ..ir.module import Function
from .callgraph import EXTERNAL, CallGraph, build_call_graph


@dataclass
class ModRef:
    """May-modify / may-reference sets of one function.

    Members are pointee tokens as used by
    :meth:`repro.analysis.solution.Solution.points_to`: original memory
    variable indexes, plus OMEGA when external memory may be touched.
    When OMEGA is present, every externally accessible location is
    implicitly included.
    """

    mod: FrozenSet
    ref: FrozenSet


def _local_effects(
    fn: Function, result: PointsToResult
) -> "tuple[Set, Set]":
    mod: Set = set()
    ref: Set = set()
    for inst in fn.instructions():
        if isinstance(inst, Load):
            ref |= result.points_to(inst.pointer)
        elif isinstance(inst, Store):
            mod |= result.points_to(inst.pointer)
        elif isinstance(inst, Memcpy):
            mod |= result.points_to(inst.dst)
            ref |= result.points_to(inst.src)
    return mod, ref


def compute_mod_ref(
    result: PointsToResult, call_graph: Optional[CallGraph] = None
) -> Dict[Function, ModRef]:
    """Fixpoint mod/ref over the (possibly cyclic) call graph."""
    module = result.built.module
    graph = call_graph or build_call_graph(result)
    solution = result.solution
    external_footprint: Set = set(solution.external) | {OMEGA}

    mods: Dict[Function, Set] = {}
    refs: Dict[Function, Set] = {}
    for fn in module.defined_functions():
        mod, ref = _local_effects(fn, result)
        mods[fn], refs[fn] = mod, ref

    changed = True
    while changed:
        changed = False
        for fn in module.defined_functions():
            for callee in graph.callees_of(fn):
                if callee == EXTERNAL:
                    extra_mod = external_footprint - mods[fn]
                    extra_ref = external_footprint - refs[fn]
                elif isinstance(callee, Function) and callee in mods:
                    extra_mod = mods[callee] - mods[fn]
                    extra_ref = refs[callee] - refs[fn]
                else:
                    continue
                if extra_mod:
                    mods[fn] |= extra_mod
                    changed = True
                if extra_ref:
                    refs[fn] |= extra_ref
                    changed = True

    return {
        fn: ModRef(frozenset(mods[fn]), frozenset(refs[fn]))
        for fn in module.defined_functions()
    }


def call_may_clobber(
    summaries: Dict[Function, ModRef],
    result: PointsToResult,
    call: Call,
    pointer,
) -> bool:
    """May executing ``call`` write the memory ``pointer`` points to?

    The query a redundant-load-elimination pass asks before keeping a
    loaded value live across a call.
    """
    pointees = result.points_to(pointer)
    if not pointees:
        return False
    if call.is_direct():
        callee = call.callee
        if isinstance(callee, Function) and callee in summaries:
            summary = summaries[callee]
        else:
            # External call: clobbers anything externally accessible.
            external = set(result.solution.external) | {OMEGA}
            return bool(external & pointees)
        return _clobbers(summary, pointees, result)
    # Indirect: union over possible callees, external included.
    external = set(result.solution.external) | {OMEGA}
    targets = result.points_to(call.callee)
    if OMEGA in targets and external & pointees:
        return True
    by_loc = {
        loc: value for value, loc in result.built.memloc_of.items()
    }
    for x in targets:
        if x == OMEGA:
            continue
        fn = by_loc.get(x)
        if isinstance(fn, Function):
            if fn in summaries:
                if _clobbers(summaries[fn], pointees, result):
                    return True
            elif external & pointees:
                return True  # imported function
    return False


def _clobbers(summary: ModRef, pointees: FrozenSet, result: PointsToResult) -> bool:
    if summary.mod & pointees:
        return True
    # OMEGA in the mod set expands to all externally accessible memory.
    if OMEGA in summary.mod and (
        OMEGA in pointees or set(result.solution.external) & set(pointees)
    ):
        return True
    if OMEGA in pointees and set(result.solution.external) & set(summary.mod):
        return True
    return False
