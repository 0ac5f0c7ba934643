"""Shared mutable solver state and solution extraction.

Every solver works on a :class:`SolverState`: a copy of the constraint
program's mutable parts (Sol_e sets, simple-edge adjacency, complex
constraints, flags) plus a union-find for cycle unification.

Conventions used by all solvers in this package:

- **Sol_e members are original variable indexes** (the identity of a
  memory *location* never changes when its node is unified into a cycle;
  only pointer behaviour is shared).
- **Adjacency, complex constraints, calls and pointer flags live on
  union-find representatives** and are merged when nodes are unified.
- The ``ea`` flag (Ω ⊒ {x}) and the pointee-keyed facts (Func
  constraints, ImpFunc/ExtFunc) are keyed by original index.

Pointee sets (Sol_e / ΔSol) are represented by a pluggable backend from
:mod:`repro.analysis.pts`; :class:`SolverState` also precomputes the
backend-level *masks* (pointer-compatible, §V-B incompatible-location,
holds-a-Func, ImpFunc/ExtFunc) that let solvers filter a pointee set
with one native intersection instead of per-element Python tests.

Every empty Sol_e / ΔSol row holds the backend's one immutable empty
value (:attr:`~repro.analysis.pts.base.PTSBackend.shared_empty`) until
a member arrives, and :meth:`SolverState.grow` is the only writer that
may find it there: it swaps a fresh value of the row's own in.  A row
whose set is emptied again gets the shared value back (a union's
merged-away node, DP's processed delta, PIP addition 2).  So set-up,
extraction and the fixpoint pass skip empty rows by identity, in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import and_, is_, is_not, ne, not_
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from ..constraints import (
    EMPTY_LIST_ROW,
    EMPTY_SET_ROW,
    ConstraintProgram,
    writable_list,
    writable_set,
)
from ..omega import OMEGA
from ..pts import InternTable, OpMemo, PTSBackend, get_backend
from ..solution import Solution, SolverStats, attach_aliases
from ..unionfind import UnionFind


@dataclass(frozen=True)
class Fixpoint:
    """What a finished IP worklist solve knows beyond its Solution.

    Plain lists of original variable indexes, with no reference to the
    solver, so keeping one keeps no solver alive.  With the Solution's
    stored sets and E it is the whole fixpoint a later solve can start
    from (:class:`WarmStart`, internals §3).
    """

    #: variables whose representative carries Ω ⊒ p
    pe: List[int]
    #: (representative, its successor representatives) per simple-edge row
    edges: List[Tuple[int, Tuple[int, ...]]]
    #: (variable, its representative) for every unified variable
    unions: List[Tuple[int, int]]
    #: the offline (OVS) groups the solve was handed
    groups: List[List[int]]


@dataclass(frozen=True)
class WarmStart:
    """A previous generation's fixpoint, carried onto a program that
    contains its program (see :func:`repro.link.contain`)."""

    solution: Solution
    fixpoint: Fixpoint
    #: previous variable → variable of the program being solved
    var_map: List[int]
    #: variables of the program being solved that must be visited
    queue: List[int]

    def covers(self, groups: List[List[int]]) -> bool:
        """True when every previous offline group, mapped, lies inside
        one of ``groups``: the previous unions still join variables the
        new program makes pointer-equivalent."""
        group_of: Dict[int, int] = {}
        for i, group in enumerate(groups):
            for v in group:
                group_of[v] = i
        var_map = self.var_map
        for group in self.fixpoint.groups:
            first = group_of.get(var_map[group[0]])
            if first is None or any(
                group_of.get(var_map[v]) != first for v in group
            ):
                return False
        return True


@dataclass
class FixpointCarry:
    """A caller's request to carry a worklist fixpoint across solves.

    The served :class:`~repro.serve.project.Project` passes one to each
    solve of a generation; no other caller keeps fixpoints.  ``start``
    (set by the caller) is the warm start to seed from, or None for a
    cold solve; the solve sets ``fixpoint`` to its own fixpoint and
    ``warm`` to whether it started from ``start``.
    """

    start: Optional[WarmStart] = None
    fixpoint: Optional[Fixpoint] = None
    warm: bool = False


def _set_rows(rows: List) -> List[Set[int]]:
    """A set of the state's own per non-empty program row; the shared
    empty row elsewhere."""
    out: List[Set[int]] = [EMPTY_SET_ROW] * len(rows)
    for v in compress(range(len(rows)), rows):
        out[v] = set(rows[v])
    return out


class ProgramMasks:
    """Backend-level membership masks derived from a constraint program.

    ``incompat`` implements the dynamic §V-B rule: members that are
    abstract memory locations but not pointer compatible behave as Ω
    when a complex rule dereferences onto them (in EP mode the Ω node
    itself is excluded — it is handled by its own constraints).
    """

    __slots__ = ("p", "incompat", "func", "impfunc", "extfunc")

    def __init__(self, program: ConstraintProgram, backend: PTSBackend):
        n = program.num_vars
        in_p, in_m, omega = program.in_p, program.in_m, program.omega
        mask = backend.mask
        rng = range(n)
        self.p = mask(compress(rng, in_p))
        self.incompat = mask(
            x for x in compress(rng, in_m) if not in_p[x] and x != omega
        )
        self.func = mask(program.funcs_of.keys())
        self.impfunc = mask(compress(rng, program.flag_impfunc))
        self.extfunc = mask(compress(rng, program.flag_extfunc))


class SolverState:
    """Mutable solving state over a constraint program.

    The rows ``succ``, ``loads``, ``stores`` and ``call_idx`` follow the
    program's row representation (:mod:`repro.analysis.constraints`):
    an empty row is the shared :data:`EMPTY_SET_ROW` (``call_idx``:
    :data:`EMPTY_LIST_ROW`), a non-empty one a container of the state's
    own, written through :func:`writable_set` and :func:`writable_list`.
    A writer that empties a row hands it back to the shared value: a
    union for the merged-away node's rows, :meth:`canonical_succ`,
    :meth:`seed`, and the worklist solver's PIP addition 4.
    """

    def __init__(
        self,
        program: ConstraintProgram,
        dp: bool = False,
        pts: Union[str, PTSBackend] = "set",
    ):
        self.program = program
        backend = get_backend(pts) if isinstance(pts, str) else pts
        self.pts = backend
        n = program.num_vars
        self.uf = UnionFind(n)
        self.dp = dp
        #: the backend's shared empty value, held by every empty row of
        #: :attr:`sol` and :attr:`dsol`
        self.empty = backend.shared_empty
        #: explicit pointees (original M indexes); in DP mode this is the
        #: *processed* part and :attr:`dsol` holds the unprocessed delta
        self.sol = backend.copy_rows(program.base)
        if dp:
            # Everything starts unprocessed.
            self.dsol, self.sol = self.sol, [self.empty] * n
        else:
            self.dsol = []
        self.masks = ProgramMasks(program, backend)
        self.succ: List[Set[int]] = _set_rows(program.simple_out)
        self.loads: List[Set[int]] = _set_rows(program.load_from)
        self.stores: List[Set[int]] = _set_rows(program.store_into)
        # calls_on is sparse: prefill and overwrite instead of n dict gets
        call_idx: List[List[int]] = [EMPTY_LIST_ROW] * n
        for v, idxs in program.calls_on.items():
            call_idx[v] = list(idxs)
        self.call_idx = call_idx
        # Pointer-behaviour flags (merged on union).
        self.pte: List[bool] = list(program.flag_pte)  # p ⊒ Ω
        self.pe: List[bool] = list(program.flag_pe)  # Ω ⊒ p
        self.sscalar: List[bool] = list(program.flag_sscalar)
        self.lscalar: List[bool] = list(program.flag_lscalar)
        self.extcall: List[bool] = list(program.flag_extcall)
        # Location-identity flags (keyed by original index, never merged).
        self.ea: List[bool] = list(program.flag_ea)
        #: backend twin of :attr:`ea`, so the ToΩ sweep can subtract all
        #: already-marked locations in one native difference
        self.ea_mask = backend.from_iter(compress(range(n), program.flag_ea))
        self.stats = SolverStats()
        #: operation-level memo over Sol_e values (MDE-style dedup); a
        #: no-op pass-through for backends without a cheap value key
        self.memo = OpMemo(backend)
        #: hook set by cycle detectors; called as on_union(survivor, dead)
        self.on_union = None
        #: set by :func:`repro.analysis.config.solve_prepared` when the
        #: program is an offline-compacted rewrite: a (target program,
        #: new2old, alias_of) triple making extraction emit the solution
        #: directly in the original variable universe — one pass instead
        #: of extract-then-expand
        self.remap = None
        #: False until the first union: lets the hot paths skip
        #: canonicalisation entirely for the (common) cycle-free case
        self.any_unions = False
        #: union counter + per-row clean marks for canonical_succ: a
        #: succ row can only go stale when a union happens
        self._union_epoch = 1
        self._succ_epoch = [0] * n

    # ------------------------------------------------------------------

    def find(self, v: int) -> int:
        if not self.any_unions:
            return v
        return self.uf.find(v)

    def full_sol(self, r: int):
        """Sol_e of representative ``r`` (processed ∪ delta in DP mode)."""
        if self.dp and self.dsol[r]:
            return self.sol[r] | self.dsol[r]
        return self.sol[r]

    def set_ea(self, x: int) -> bool:
        """Record Ω ⊒ {x}; True if newly marked (keeps ea_mask in sync)."""
        if self.ea[x]:
            return False
        self.ea[x] = True
        self.ea_mask.add(x)
        return True

    def grow(self, rows: List, v: int, items, processed=None) -> int:
        """Add ``items`` to the Sol_e or ΔSol row ``rows[v]``; returns
        how many members were new.

        With ``processed`` (the row is ΔSol, ``processed`` the node's
        Sol_e) only members outside both are added, the DP step of
        :meth:`~repro.analysis.pts.base.PTSBackend.delta_update`;
        otherwise it is ``union_grow``.  This is the one copy-on-write
        step of the shared empty value: a row holding it takes a fresh
        value of its own when a member arrives, and keeps the shared one
        when none does.  Without ``processed`` every member is new, and
        the fresh value is the backend's copy of ``items``, the value
        ``union_grow`` would build from an empty one.
        """
        target = rows[v]
        pts = self.pts
        if target is self.empty:
            if not items:
                return 0
            if processed is None:
                rows[v] = pts.copy(items)
                return len(items)
            target = pts.empty()
            added = pts.delta_update(target, items, processed)
            if added:
                rows[v] = target
            return added
        if processed is None:
            return pts.union_grow(target, items)
        return pts.delta_update(target, items, processed)

    def union(self, a: int, b: int) -> int:
        """Unify two nodes; returns the surviving representative."""
        ra, rb = self.uf.find(a), self.uf.find(b)
        if ra == rb:
            return ra
        self.any_unions = True
        self._union_epoch += 1
        r = self.uf.union(ra, rb)
        dead = rb if r == ra else ra
        self.stats.unifications += 1
        empty = self.empty
        for rows in (self.sol, self.dsol) if self.dp else (self.sol,):
            if rows[dead] is not empty:
                self.grow(rows, r, rows[dead])
                rows[dead] = empty
        for rows in (self.succ, self.loads, self.stores):
            if rows[dead]:
                writable_set(rows, r).update(rows[dead])
            rows[dead] = EMPTY_SET_ROW
        call_idx = self.call_idx
        if call_idx[dead]:
            writable_list(call_idx, r).extend(call_idx[dead])
        call_idx[dead] = EMPTY_LIST_ROW
        for flags in (self.pte, self.pe, self.sscalar, self.lscalar, self.extcall):
            if flags[dead]:
                flags[r] = True
        if self.on_union is not None:
            self.on_union(r, dead)
        return r

    def canonical_succ(self, n: int) -> Set[int]:
        """Successor reps of n, with stale/self edges cleaned in place.

        A row can only go stale through a union (nothing else changes
        ``find``), so a row verified clean at the current union epoch is
        returned without the staleness scan — unions happen in early
        bursts, visits don't stop, and the scan would otherwise pay
        O(out-degree) on every visit forever after the first union.
        """
        raw = self.succ[n]
        if not self.any_unions:
            return raw
        epoch = self._union_epoch
        if self._succ_epoch[n] == epoch:
            return raw
        find = self.uf.find
        if any(find(d) != d for d in raw) or n in raw:
            raw = {find(d) for d in raw}
            raw.discard(n)
            self.succ[n] = raw = raw or EMPTY_SET_ROW
        self._succ_epoch[n] = epoch
        return raw

    def canonical_targets(self, targets: Set[int]) -> Set[int]:
        """Map a set of variable ids to their current representatives."""
        if not self.any_unions:
            return targets
        find = self.uf.find
        return {find(t) for t in targets}

    def add_edge(self, src: int, dst: int) -> bool:
        """Insert a simple edge between representatives; True if new."""
        if src == dst or dst in self.canonical_succ(src):
            return False
        writable_set(self.succ, src).add(dst)
        self.stats.edges_added += 1
        return True

    # ------------------------------------------------------------------
    # Warm starts (internals §3)
    # ------------------------------------------------------------------

    def fixpoint(self, groups: List[List[int]]) -> Fixpoint:
        """This state's fixpoint beyond the Solution, as plain lists.

        Only the non-empty succ rows and the unified variables take a
        Python step; the rest is selected in C.
        """
        succ = self.succ
        rng = range(self.program.num_vars)
        if not self.any_unions:
            # Every variable is its own representative.
            return Fixpoint(
                pe=list(compress(rng, self.pe)),
                edges=[(r, tuple(succ[r])) for r in compress(rng, succ)],
                unions=[],
                groups=groups,
            )
        reps = self.uf.representatives()
        # A union hands the merged-away node's row back to the shared
        # empty row, so every non-empty row is a representative's.
        return Fixpoint(
            pe=list(compress(rng, map(self.pe.__getitem__, reps))),
            edges=[
                (r, tuple(row))
                for r in compress(rng, succ)
                if reps[r] == r
                for row in (self.canonical_succ(r),)
                if row
            ],
            unions=[(v, reps[v]) for v in compress(rng, map(ne, reps, rng))],
            groups=groups,
        )

    def _seed_targets(self, var_map: List[int]) -> List[int]:
        """The representative of each previous variable's image."""
        if not self.any_unions:
            return var_map
        find = self.uf.find
        return [find(v) for v in var_map]

    def seed(self, start: WarmStart) -> None:
        """Lay ``start``'s fixpoint onto this fresh state.

        Everything lands on union-find representatives: the previous
        unions are replayed first, then each stored set minus Ω joins
        its image's representative's Sol_e, Ω becomes ``pte``, the
        previous ``pe`` flags are set, E becomes ``ea`` (without the
        side effects of marking it, which the previous solve applied),
        and every previous simple edge joins the two representatives.
        Union survivors are announced through :attr:`on_union` as in
        any solve.
        """
        fixpoint = start.fixpoint
        var_map = start.var_map
        for v, r in fixpoint.unions:
            self.union(var_map[v], var_map[r])
        target = self._seed_targets(var_map)
        image = var_map.__getitem__
        from_iter = self.pts.from_iter
        sol, pte = self.sol, self.pte
        mapped: Dict[int, object] = {}  # id(stored set) → its image
        omega_only = frozenset((OMEGA,))
        empty = self.empty
        for p, stored in start.solution.stored_sets().items():
            if not stored:
                continue
            key = id(stored)
            value = mapped.get(key)
            if value is None:
                value = mapped[key] = from_iter(
                    map(image, stored - omega_only)
                )
            r = target[p]
            if OMEGA in stored:
                pte[r] = True
            if value:
                row = sol[r]
                if row is empty:
                    self.grow(sol, r, value)
                else:
                    row |= value
        pe = self.pe
        for v in fixpoint.pe:
            pe[target[v]] = True
        ea = self.ea
        for x in start.solution.external:
            ea[var_map[x]] = True
        self.ea_mask = self.pts.from_iter(compress(range(len(ea)), ea))
        succ = self.succ
        for r, row in fixpoint.edges:
            a = target[r]
            out = writable_set(succ, a)
            out.update(target[d] for d in row)
            out.discard(a)
            if not out:
                succ[a] = EMPTY_SET_ROW

    # ------------------------------------------------------------------

    def live_reps(self) -> Iterable[int]:
        return self.uf.roots()

    def count_explicit_pointees(self) -> int:
        """Table VI metric: each shared Sol_e set counted once.  A row
        holding the shared empty value is skipped in C."""
        sol, dsol = self.sol, self.dsol
        reps = list(self.live_reps()) if self.any_unions else range(len(sol))
        held = partial(is_not, self.empty)
        total = sum(map(len, filter(held, map(sol.__getitem__, reps))))
        if self.dp:
            for r in compress(reps, map(held, map(dsol.__getitem__, reps))):
                total += len(dsol[r] - sol[r])
        return total

    # ------------------------------------------------------------------

    def extract_solution(self) -> Solution:
        """Canonical solution (paper's Sol = Sol_e ∪ Sol_i).

        Canonical Sol sets are computed once per union-find
        representative and interned (:class:`InternTable`), so every
        pointer sharing a solver-level set also shares one frozenset in
        the Solution — and coincidentally-equal sets collapse too.

        With :attr:`remap` set (offline-compacted programs), every
        index is translated back to the original variable universe as
        it is emitted, and merged-away pointers receive their
        representative's shared frozenset — the single extraction pass
        produces the final original-universe solution.

        Sets holding Ω are emitted in the stored form of
        :mod:`repro.analysis.solution`: ``(Sol(p) \\ E) ∪ {Ω}``.  The
        members of E are dropped from the backend value before it is
        decoded, so a bitset subtracts them on the packed int.

        IP and EP share the loop; EP differs only in its lift, its Ω
        skip and its E, all chosen before the loop.  (EP programs carry
        no Table II flags and EP visits never mark ``pte``, so the loop's
        Ω widening never fires for them.)

        A pointer whose representative is unwidened and holds the shared
        empty value gets the one interned ∅ without a Python step: the
        blank representatives and the pointers they stand for are
        selected in C, and the loop walks the other pointers only.
        """
        program = self.program
        self.stats.explicit_pointees = self.count_explicit_pointees()
        self.stats.memo_hits = self.memo.hits
        self.stats.memo_misses = self.memo.misses
        out_program, new2old, alias_of = self.remap or (program, None, None)
        find = self.uf.find
        if new2old is None:
            remapped = frozenset
        else:
            item = new2old.__getitem__

            def remapped(full):
                return frozenset(map(item, full))

        n = program.num_vars
        rng = range(n)
        omega = program.omega
        in_p = program.in_p
        omega_only = frozenset((OMEGA,))
        if omega is None:
            # IP: E is the locations marked externally accessible.
            located = list(compress(rng, map(and_, program.in_m, self.ea)))
            lift = remapped
        else:
            # EP: E is Sol(Ω) without Ω itself; Ω is not a pointer of
            # the answer, and inside a set it becomes the OMEGA token,
            # which leaves E implicit.
            located = [x for x in self.full_sol(find(omega)) if x != omega]
            in_p = list(in_p)
            in_p[omega] = False
            # new2old is injective: only the compact Ω maps to the
            # original Ω index, so dropping it after the bulk remap is
            # exact.
            omega_set = remapped((omega,))

            def lift(full):
                # One membership probe + C-level set ops beat a
                # per-member conditional: Ω is in at most one slot.
                if omega in full:
                    rest = full - located_mask
                    # Dropping E is lossless only if the set holds all
                    # of it (internals §6); a broken solve must not hide.
                    if len(full) - len(rest) != len(located):
                        raise AssertionError(
                            "EP set holding Ω lacks part of E (internals §6)"
                        )
                    return remapped(rest) - omega_set | omega_only
                return remapped(full)

        external = remapped(located)
        located_mask = self.pts.mask(located)
        intern = InternTable()
        key_of = self.pts.cache_key
        sol, dsol, pte, empty = self.sol, self.dsol, self.pte, self.empty
        dp = self.dp
        # Without unions every pointer is its own representative, so the
        # per-rep memo would be all misses — skip its dict traffic.
        unions = self.any_unions
        pointers = list(compress(rng, in_p))
        # blank[r]: r holds the shared empty value (and, under DP, an
        # empty delta too) and is not widened.
        held = map(is_, sol, repeat(empty))
        if dp:
            held = map(and_, held, map(is_, dsol, repeat(empty)))
        blank = list(map(and_, held, map(not_, pte)))
        if unions:
            reps = self.uf.representatives()
            blank = list(map(blank.__getitem__, reps))
        rest = list(compress(pointers, map(not_, map(blank.__getitem__, pointers))))
        # Every empty, unwidened pointer shares one interned ∅, interned
        # only if some pointer has it.
        empty_sol = None
        if len(rest) < len(pointers):
            empty_sol = intern.intern(frozenset())
        sets: List[Optional[FrozenSet]] = [empty_sol] * n
        by_rep: Dict[int, FrozenSet] = {}
        by_key: Dict[object, FrozenSet] = {}
        for p in rest:
            r = reps[p] if unions else p
            s = by_rep.get(r) if unions else None
            if s is None:
                full = sol[r]
                if dp and dsol[r] is not empty:
                    full = full | dsol[r]
                widened = pte[r]
                # Freeze each distinct underlying set once: backends
                # with a cheap value key (bitset: the packed int) dedup
                # before paying the per-member decode.  pte is part of
                # the key — it widens the canonical set.
                k = key_of(full)
                if k is not None:
                    k = (k, widened)
                    s = by_key.get(k)
                if s is None:
                    if widened:
                        s = lift(full - located_mask) | omega_only
                    else:
                        s = lift(full)
                    s = intern.intern(s)
                    if k is not None:
                        by_key[k] = s
                if unions:
                    by_rep[r] = s
            sets[p] = s
        keys = pointers if new2old is None else map(new2old.__getitem__, pointers)
        points_to = dict(zip(keys, map(sets.__getitem__, pointers)))
        if alias_of is not None:
            attach_aliases(points_to, out_program, alias_of)
        self.stats.shared_sets = len(intern)
        return Solution(out_program, points_to, external, self.stats)
