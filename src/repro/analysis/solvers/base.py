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
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Union

from ..constraints import ConstraintProgram
from ..omega import OMEGA
from ..pts import InternTable, OpMemo, PTSBackend, get_backend
from ..solution import Solution, SolverStats, attach_aliases
from ..unionfind import UnionFind


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
    """Mutable solving state over a constraint program."""

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
        #: explicit pointees (original M indexes); in DP mode this is the
        #: *processed* part and :attr:`dsol` holds the unprocessed delta
        self.sol = backend.copy_rows(program.base)
        if dp:
            # Everything starts unprocessed.
            empty = backend.empty
            self.dsol, self.sol = self.sol, [empty() for _ in range(n)]
        else:
            self.dsol = []
        self.masks = ProgramMasks(program, backend)
        self.succ: List[Set[int]] = list(map(set, program.simple_out))
        self.loads: List[Set[int]] = list(map(set, program.load_from))
        self.stores: List[Set[int]] = list(map(set, program.store_into))
        # calls_on is sparse: prefill and overwrite instead of n dict gets
        call_idx: List[List[int]] = [[] for _ in range(n)]
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
        empty = self.pts.empty
        self.sol[r] |= self.sol[dead]
        self.sol[dead] = empty()
        if self.dp:
            self.dsol[r] |= self.dsol[dead]
            self.dsol[dead] = empty()
        self.succ[r] |= self.succ[dead]
        self.succ[dead] = set()
        self.loads[r] |= self.loads[dead]
        self.loads[dead] = set()
        self.stores[r] |= self.stores[dead]
        self.stores[dead] = set()
        self.call_idx[r].extend(self.call_idx[dead])
        self.call_idx[dead] = []
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
            self.succ[n] = raw
        self._succ_epoch[n] = epoch
        return raw

    def canonical_targets(self, targets: Set[int]) -> Set[int]:
        """Map a set of variable ids to their current representatives."""
        if not self.any_unions:
            return targets
        find = self.uf.find
        return {find(t) for t in targets}

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self.canonical_succ(src)

    def add_edge(self, src: int, dst: int) -> bool:
        """Insert a simple edge between representatives; True if new."""
        if src == dst or dst in self.canonical_succ(src):
            return False
        self.succ[src].add(dst)
        self.stats.edges_added += 1
        return True

    # ------------------------------------------------------------------

    def live_reps(self) -> Iterable[int]:
        return self.uf.roots()

    def count_explicit_pointees(self) -> int:
        """Table VI metric: each shared Sol_e set counted once."""
        total = 0
        for r in self.live_reps():
            total += len(self.sol[r])
            if self.dp:
                total += len(self.dsol[r] - self.sol[r])
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

        IP and EP share the loop; EP differs only in its lift, its Ω
        skip and its E, all chosen before the loop.  (EP programs carry
        no Table II flags and EP visits never mark ``pte``, so the loop's
        Ω widening never fires for them.)
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

        omega = program.omega
        in_p = program.in_p
        if omega is None:
            # IP: E is the locations marked externally accessible.
            located = (
                x
                for x in compress(range(program.num_vars), program.in_m)
                if self.ea[x]
            )
            lift = remapped
        else:
            # EP: E is Sol(Ω) without Ω itself; Ω is not a pointer of
            # the answer, and inside a set it becomes the OMEGA token.
            located = (x for x in self.full_sol(find(omega)) if x != omega)
            in_p = list(in_p)
            in_p[omega] = False
            # new2old is injective: only the compact Ω maps to the
            # original Ω index, so dropping it after the bulk remap is
            # exact.
            omega_set = remapped((omega,))
            wire = frozenset((OMEGA,))

            def lift(full):
                # One membership probe + C-level set ops beat a
                # per-member conditional: Ω is in at most one slot.
                if omega in full:
                    return remapped(full) - omega_set | wire
                return remapped(full)

        external = remapped(located)
        ext_plus = external | {OMEGA}
        intern = InternTable()
        key_of = self.pts.cache_key
        empty_sol = None
        # Without unions every pointer is its own representative, so the
        # per-rep memo would be all misses — skip its dict traffic.
        unions = self.any_unions
        by_rep: Dict[int, FrozenSet] = {}
        by_key: Dict[object, FrozenSet] = {}
        points_to: Dict[int, FrozenSet] = {}
        for p in compress(range(program.num_vars), in_p):
            r = find(p) if unions else p
            s = by_rep.get(r) if unions else None
            if s is None:
                full = self.full_sol(r)
                if not full and not self.pte[r]:
                    # Empty and unwidened: one shared ∅, skipping the
                    # freeze/key machinery — the common case after the
                    # offline reduction hollows nodes.
                    if empty_sol is None:
                        empty_sol = intern.intern(frozenset())
                    s = empty_sol
                else:
                    # Freeze each distinct underlying set once: backends
                    # with a cheap value key (bitset: the packed int)
                    # dedup before paying the per-member decode.  pte is
                    # part of the key — it widens the canonical set.
                    k = key_of(full)
                    if k is not None:
                        k = (k, self.pte[r])
                        s = by_key.get(k)
                    if s is None:
                        s = lift(full)
                        if self.pte[r]:
                            s = s | ext_plus
                        s = intern.intern(s)
                        if k is not None:
                            by_key[k] = s
                by_rep[r] = s
            points_to[p if new2old is None else new2old[p]] = s
        if alias_of is not None:
            attach_aliases(points_to, out_program, alias_of)
        self.stats.shared_sets = len(intern)
        return Solution(out_program, points_to, external, self.stats)
