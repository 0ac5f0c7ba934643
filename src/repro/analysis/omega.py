"""Materialising the Ω node: the explicit-pointee (EP) representation.

:func:`lower_to_explicit` turns a constraint program that uses the
extended flag language (Table II) into an equivalent program in which Ω
is a real constraint variable carrying the constraints of paper §III-B:

①  Ω ⊇ {Ω}      pointers in external memory may target external memory
②  Ω ⊇ *Ω       external modules load through any pointer they hold
③  *Ω ⊇ Ω       external modules store unknown pointers everywhere
④  Call_e(Ω)    external modules call every escaped function
⑤  Func_e(Ω)    calling an unknown pointer reaches external functions

Constraints ④ and ⑤ have generic arity, so they are kept as the
``extcall`` / ``extfunc`` flags, which every EP solver interprets
directly (the paper's "minor modifications" to existing solvers).
Imported functions keep ⑤ via ``extfunc`` as well.

Table II mapping applied to each flagged variable:

=================  ==========================
Ω ⊒ {x} (``ea``)   base       Ω ⊇ {x}
p ⊒ Ω  (``pte``)   simple     p ⊇ Ω
Ω ⊒ p  (``pe``)    simple     Ω ⊇ p
*p ⊒ Ω             store      *p ⊇ Ω
Ω ⊒ *p             load       Ω ⊇ *p
ImpFunc(f)         ``extfunc`` flag on f
=================  ==========================
"""

from __future__ import annotations

import copy

from .constraints import (
    EMPTY_SET_ROW,
    ConstraintProgram,
    writable_list,
    writable_set,
)

#: token used in canonical solutions to denote "external memory" (the Ω
#: abstract location and everything defined outside the module)
OMEGA = "Ω"


def concretize(pointees: frozenset, external: frozenset) -> frozenset:
    """Expand Ω over the escaped memory locations (paper §III-A).

    The concretization of a pointee set containing Ω is the set itself
    plus every externally accessible location: Ω stands for "any external
    memory", so a sound reading must include all of E.  A
    :class:`repro.analysis.solution.Solution` stores a set holding Ω
    with E left implicit, and :meth:`~repro.analysis.solution.Solution.points_to`
    expands it through this function — the one expansion there is.  The
    function is idempotent, so it also accepts an already expanded set.
    """
    s = frozenset(pointees)
    if OMEGA in s:
        s = s | frozenset(external)
    return s


def lower_to_explicit(program: ConstraintProgram) -> ConstraintProgram:
    """Return a deep-copied program with Ω materialised.

    The input program is left untouched; the result has ``omega`` set and
    all Table II flags cleared (replaced by ordinary constraints).
    """
    if program.omega is not None:
        raise ValueError("program already has an explicit Ω node")
    # Empty rows stay the one shared value (``()`` copies to itself).
    ep = copy.deepcopy(program, {id(EMPTY_SET_ROW): EMPTY_SET_ROW})
    ep.name = f"{program.name}+explicitΩ"

    omega = ep.add_var(OMEGA, pointer_compatible=True, is_memory=True)
    ep.omega = omega
    omega_base = writable_set(ep.base, omega)
    omega_base.add(omega)  # ①
    writable_list(ep.load_from, omega).append(omega)  # ②
    writable_list(ep.store_into, omega).append(omega)  # ③
    ep.flag_extcall[omega] = True  # ④
    ep.flag_extfunc[omega] = True  # ⑤

    for v in range(program.num_vars):
        if ep.flag_ea[v]:
            omega_base.add(v)
            ep.flag_ea[v] = False
        if ep.flag_pte[v]:
            writable_set(ep.simple_out, omega).add(v)
            ep.flag_pte[v] = False
        if ep.flag_pe[v]:
            writable_set(ep.simple_out, v).add(omega)
            ep.flag_pe[v] = False
        if ep.flag_sscalar[v]:
            writable_list(ep.store_into, v).append(omega)
            ep.flag_sscalar[v] = False
        if ep.flag_lscalar[v]:
            writable_list(ep.load_from, v).append(omega)
            ep.flag_lscalar[v] = False
        if ep.flag_impfunc[v]:
            ep.flag_extfunc[v] = True
            ep.flag_impfunc[v] = False
    return ep
