"""Worklist constraint solver (paper Algorithm 1).

One solver class covers both pointer representations:

- **IP mode** (``program.omega is None``): the Ω node is implicit; the six
  Table II constraints are 1-bit flags and the solver applies the extra
  inference rules of Fig. 7 (TRANSΩ, ToΩ, InΩ, STOREToΩ, LOADFROMΩ, CALLΩ).
- **EP mode** (``program.omega`` set by
  :func:`repro.analysis.omega.lower_to_explicit`): Ω is an ordinary node;
  the only extensions are the generic-arity ``extfunc``/``extcall`` flags.

Optional online techniques:

- **PIP** (Prefer Implicit Pointees, paper §IV; IP mode only): additions
  1–4 of Algorithm 1 — backpropagate Ω ⊒ n, clear Sol_e of nodes marked
  both n ⊒ Ω and Ω ⊒ n, and skip/remove simple edges that can only
  produce doubled-up pointees.
- **DP** (difference propagation, Pearce): complex rules and edge
  propagation operate on the delta of each Sol_e set.
- **Cycle detection** via pluggable detectors (see
  :mod:`repro.analysis.solvers.cycles`).

Unifications requested by detectors are deferred to safe points of the
visit loop, so the visit body never observes a node dying under it.

Pointee sets go through the pluggable :mod:`repro.analysis.pts` backend
(``pts=`` argument).  Two structural consequences for the visit body:

- propagation runs through the backend's fused ``union_grow`` /
  ``delta_update`` helpers, which also define the propagation-
  accounting unit shared by the DP and non-DP paths;
- the complex rules filter the visited pointee set once per visit with
  the precomputed program masks (pointer members, §V-B incompatible
  locations, Func holders, ImpFunc/ExtFunc) instead of re-testing every
  member per store/load/call target, and hoist the union-find lookups
  out of the per-target loops;
- those mask filters run through the state's operation memo
  (:class:`repro.analysis.pts.OpMemo`): a node revisited with an
  unchanged Sol_e value answers its member decodes and intersection
  tests from cache (value-keyed, so only backends with a cheap value
  key participate — the bitset backend's packed integer).
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..constraints import (
    EMPTY_SET_ROW,
    CallConstraint,
    ConstraintProgram,
    FuncConstraint,
)
from ..pts import PTSBackend
from ..solution import Solution
from .base import Fixpoint, SolverState, WarmStart
from .orders import TopoWorklist, Worklist, WORKLIST_ORDERS

# Operation-memo tags: one per (operation, mask) role, shared between
# the IP and EP visit bodies so equal filters dedup across rules.
_MEMO_PTR = 1  # work & masks.p → members
_MEMO_INCOMPAT = 2  # work & masks.incompat → non-empty?
_MEMO_EA_DIFF = 3  # work - ea_mask → members
_MEMO_FUNC = 4  # work & masks.func → members
_MEMO_IMPFUNC = 5  # work & masks.impfunc → non-empty?
_MEMO_EXTFUNC = 6  # work & masks.extfunc → non-empty?


class WorklistSolver:
    """Configurable worklist solver for Andersen constraints.

    Single-use, as every caller treats it: construct, call
    :meth:`solve` once, then read the solution (and, for inspection,
    :attr:`state`).

    ``warm`` (IP only) starts the solve from a previous generation's
    fixpoint instead of from the base constraints: the state is seeded
    through its union-find and only ``warm.queue`` starts on the
    worklist (internals §3).  A warm start whose offline groups the
    new program's no longer cover is dropped, and the solve runs cold;
    :attr:`warm_started` says which happened.  With ``keep`` the solve
    leaves its own fixpoint in :attr:`fixpoint` for the next one.
    """

    def __init__(
        self,
        program: ConstraintProgram,
        order: str = "FIFO",
        pip: bool = False,
        dp: bool = False,
        cycle_detector=None,
        presolve_unions: Optional[Iterable[Sequence[int]]] = None,
        pip_additions: Optional[Iterable[int]] = None,
        pts: Union[str, PTSBackend] = "set",
        warm: Optional[WarmStart] = None,
        keep: bool = False,
    ):
        self.program = program
        self.ep_mode = program.omega is not None
        if pip and self.ep_mode:
            raise ValueError("PIP requires the implicit pointee representation")
        if warm is not None and self.ep_mode:
            raise ValueError(
                "a warm start requires the implicit pointee representation"
            )
        self.pip = pip
        #: which of Algorithm 1's PIP additions 1–4 are active (for the
        #: ablation study; all four in normal operation)
        additions = frozenset(pip_additions) if pip_additions is not None else frozenset({1, 2, 3, 4})
        if not additions <= {1, 2, 3, 4}:
            raise ValueError(f"unknown PIP additions {additions}")
        self.pip1 = pip and 1 in additions
        self.pip2 = pip and 2 in additions
        self.pip3 = pip and 3 in additions
        self.pip4 = pip and 4 in additions
        self.dp = dp
        self.state = SolverState(program, dp=dp, pts=pts)
        self.state.on_union = self._after_union
        # Hot-path bindings (one attribute lookup per propagation saved).
        self._union_grow = self.state.pts.union_grow
        self._delta_update = self.state.pts.delta_update
        self._empty = self.state.empty
        wl_cls = WORKLIST_ORDERS[order]
        # The worklist canonicalises through the solver's union-find so
        # cycle collapses retire queued aliases instead of re-firing the
        # representative once per absorbed node.
        self.worklist: Worklist = wl_cls(
            program.num_vars, canon=self.state.find
        )
        if isinstance(self.worklist, TopoWorklist):
            self.worklist.successors = self.state.canonical_succ
        self.detector = cycle_detector
        self._pending_unions: List[Tuple[int, int]] = []
        groups = [list(group) for group in presolve_unions or ()]
        if warm is not None and not warm.covers(groups):
            warm = None
        #: True when the solve starts from a previous fixpoint
        self.warm_started = warm is not None
        #: with ``keep``, set by :meth:`solve`: the fixpoint it reached
        self.fixpoint: Optional[Fixpoint] = None
        self._keep_groups = groups if keep else None
        #: under DP, nodes whose flags or constraints changed since their
        #: last full scan (forces full—not delta—processing); a warm
        #: start marks only its queue.  Nothing else reads it, so
        #: without DP it stays empty.
        self._dirty: Set[int] = (
            set(range(program.num_vars)) if dp and warm is None else set()
        )
        for group in groups:
            for other in group[1:]:
                self.state.union(group[0], other)
        self._queue: Sequence[int] = range(program.num_vars)
        if warm is not None:
            self.state.seed(warm)
            self._queue = warm.queue
        if self.detector is not None:
            self.detector.attach(self)

    # ------------------------------------------------------------------
    # Flag marking helpers (IP mode)
    # ------------------------------------------------------------------

    def mark_pte(self, r: int) -> None:
        """Mark r ⊒ Ω on a representative."""
        st = self.state
        if not st.pte[r]:
            st.pte[r] = True
            if self.dp:
                self._dirty.add(r)
            self.worklist.push(r)

    def mark_pe(self, r: int) -> None:
        """Mark Ω ⊒ r on a representative."""
        st = self.state
        if not st.pe[r]:
            st.pe[r] = True
            if self.dp:
                self._dirty.add(r)
            self.worklist.push(r)

    def mark_external(self, x: int) -> None:
        """MARKEXTERNALLYACCESSIBLE(x) of Algorithm 1 (x is original)."""
        st = self.state
        if not st.set_ea(x):
            return
        if self.program.in_p[x]:
            r = st.find(x)
            self.mark_pte(r)
            self.mark_pe(r)
        for fi in self.program.funcs_of.get(x, ()):
            fc = self.program.funcs[fi]
            if fc.ret is not None:
                self.mark_pe(st.find(fc.ret))
            for a in fc.args:
                if a is not None:
                    self.mark_pte(st.find(a))

    def call_to_imported(self, call: CallConstraint) -> None:
        """CALLTOIMPORTED of Algorithm 1 (also the h ⊒ Ω call rule)."""
        st = self.state
        if call.ret is not None:
            self.mark_pte(st.find(call.ret))
        for a in call.args:
            if a is not None:
                self.mark_pe(st.find(a))

    # ------------------------------------------------------------------
    # EP-mode equivalents: marks become edges to/from the Ω node
    # ------------------------------------------------------------------

    def _ep_mark_pte(self, r: int, new_edges: Set[Tuple[int, int]]) -> None:
        omega = self.state.find(self.program.omega)  # type: ignore[arg-type]
        if r != omega:
            new_edges.add((omega, r))

    def _ep_mark_pe(self, r: int, new_edges: Set[Tuple[int, int]]) -> None:
        omega = self.state.find(self.program.omega)  # type: ignore[arg-type]
        if r != omega:
            new_edges.add((r, omega))

    # ------------------------------------------------------------------
    # Call resolution shared by both modes
    # ------------------------------------------------------------------

    def _resolve_call(
        self,
        call: CallConstraint,
        func: FuncConstraint,
        new_edges: Set[Tuple[int, int]],
        marks_pte: Set[int],
        marks_pe: Set[int],
    ) -> None:
        """Apply the CALL inference rule for one (Call, Func) pair.

        Mismatched positions model pointer/integer conversions and
        variadic argument passing conservatively (see DESIGN.md).
        """
        find = self.state.find
        # Return value: Func r• flows to Call r.
        if call.ret is not None and func.ret is not None:
            new_edges.add((find(func.ret), find(call.ret)))
        elif call.ret is not None:
            marks_pte.add(find(call.ret))
        elif func.ret is not None:
            marks_pe.add(find(func.ret))
        # Arguments: Call a_i flows to Func a_i•.
        n_formals = len(func.args)
        for i, actual in enumerate(call.args):
            if i < n_formals:
                formal = func.args[i]
                if actual is not None and formal is not None:
                    new_edges.add((find(actual), find(formal)))
                elif actual is not None:
                    marks_pe.add(find(actual))
                elif formal is not None:
                    marks_pte.add(find(formal))
            elif actual is not None and func.variadic:
                # Variadic extras may be retrieved via va_arg: escape.
                marks_pe.add(find(actual))
        # Non-variadic arity mismatches are undefined behaviour in C and
        # add no constraints (matching standard Andersen practice).

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(self, src: int, dst: int, items) -> None:
        """PROPAGATEPOINTEES(src → dst) restricted to ``items``."""
        st = self.state
        # A row holding the shared empty value is written through the
        # state's copy-on-write step, any other row directly; the shared
        # value itself carries nothing.
        empty = self._empty
        if items is empty:
            arrived = 0
        elif self.dp:
            delta = st.dsol[dst]
            if delta is empty:
                arrived = st.grow(st.dsol, dst, items, st.sol[dst])
            else:
                arrived = self._delta_update(delta, items, st.sol[dst])
        else:
            target = st.sol[dst]
            if target is empty:
                arrived = st.grow(st.sol, dst, items)
            else:
                arrived = self._union_grow(target, items)
        changed = arrived > 0
        if arrived:
            st.stats.propagations += arrived
        if not self.ep_mode and st.pte[src] and not st.pte[dst]:
            self.mark_pte(dst)  # TRANSΩ
            changed = True
        if changed:
            self.worklist.push(dst)
        elif (
            self.detector is not None
            and self.detector.wants_equal_sets
            and st.sol[src]
        ):
            self.detector.on_equal_propagation(src, dst)

    # ------------------------------------------------------------------
    # Unification plumbing
    # ------------------------------------------------------------------

    def _after_union(self, survivor: int, dead: int) -> None:
        if self.dp:
            self._dirty.add(survivor)
        self.worklist.push(survivor)
        if self.detector is not None:
            self.detector.on_union(survivor, dead)

    def request_union(self, a: int, b: int) -> None:
        """Detectors call this; the union happens at the next safe point."""
        self._pending_unions.append((a, b))

    def _apply_pending_unions(self) -> None:
        st = self.state
        while self._pending_unions:
            a, b = self._pending_unions.pop()
            st.union(st.find(a), st.find(b))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self) -> Solution:
        """Run to the fixed point and extract the solution.

        Whether it returns or raises, the solve ends by unhooking the
        state's union callback and the detector, the two links back to
        the solver, so reference counting frees the solver with its
        state, worklist and detectors once the caller drops it
        (internals §9, "The cyclic collector").
        """
        st = self.state
        program = self.program
        try:
            if not self.ep_mode:
                # InΩ seeding: handle the program's externally
                # accessible nodes (a warm start's E is already marked,
                # so re-marking those queues nothing).
                seeds = list(
                    compress(range(program.num_vars), program.flag_ea)
                )
                for x in seeds:
                    st.ea[x] = False
                for x in seeds:
                    self.mark_external(x)
            if self.detector is not None:
                self.detector.before_solve()
            self._apply_pending_unions()
            if self.warm_started and self.dp:
                self._dirty.update(st.find(v) for v in self._queue)
            for v in self._queue:
                self.worklist.push(st.find(v))
            visit = self._visit_ep if self.ep_mode else self._visit_ip
            while True:
                n = self.worklist.pop()
                if n is None:
                    break
                n = st.find(n)
                visit(n)
                self._apply_pending_unions()
            solution = st.extract_solution()
            if self._keep_groups is not None:
                self.fixpoint = st.fixpoint(self._keep_groups)
            return solution
        finally:
            st.on_union = None
            self.detector = None

    # ------------------------------------------------------------------

    def _take_work(self, n: int):
        """The pointee set a visit must process (delta under DP); under
        DP the visit scans ``n`` in full, so ``n`` is clean after it."""
        st = self.state
        if not self.dp:
            return st.sol[n]
        delta = st.dsol[n]
        if n in self._dirty:
            self._dirty.discard(n)
            work = st.sol[n] | delta
        else:
            work = delta
        if delta is not self._empty:
            st.grow(st.sol, n, delta)
            st.dsol[n] = self._empty
        return work

    def _visit_ip(self, n: int) -> None:
        st = self.state
        st.stats.visits += 1
        if self.detector is not None:
            self.detector.on_visit(n)
            if st.find(n) != n:  # visit already-merged node later
                self.worklist.push(st.find(n))
                return
        program = self.program

        # PIP addition 1: backpropagate Ω ⊒ n from any successor.
        if self.pip1 and not st.pe[n]:
            for q in st.canonical_succ(n):
                if st.pe[q]:
                    self.mark_pe(n)
                    break

        work = self._take_work(n)

        # ToΩ: pointees of an Ω ⊒ n node are externally accessible.
        # (mark_external only ever adds the location being processed to
        # ea_mask, so the pending difference is safe to snapshot once.)
        if st.pe[n] and work:
            pending = st.memo.difference(work, st.ea_mask, _MEMO_EA_DIFF)
            if pending:
                for x in pending:
                    self.mark_external(x)

        # PIP addition 2: n ⊒ Ω and Ω ⊒ n ⇒ Sol_e(n) is all doubled-up.
        if self.pip2 and st.pe[n] and st.pte[n]:
            if st.sol[n]:
                st.stats.pip_sets_cleared += 1
                st.sol[n] = self._empty
            work = self._empty

        new_edges: Set[Tuple[int, int]] = set()
        marks_pte: Set[int] = set()
        marks_pe: Set[int] = set()

        # Simple edges (TRANS / TRANSΩ, PIP addition 4).
        for p in list(st.canonical_succ(n)):
            if self.pip4 and st.pte[p] and st.pe[n]:
                row = st.succ[n]
                row.discard(p)
                if not row:
                    st.succ[n] = EMPTY_SET_ROW
                st.stats.pip_edges_elided += 1
                continue
            self._propagate(n, p, work)

        masks = st.masks

        # Split the visited pointees once: representative of every
        # pointer-compatible member, and whether any §V-B pointer-
        # incompatible location is present (it behaves as Ω).
        if work and (st.stores[n] or st.loads[n] or st.sscalar[n] or st.lscalar[n]):
            wp = st.memo.members(work, masks.p, _MEMO_PTR)
            if st.any_unions:
                find = st.find
                wptr_reps = {find(x) for x in wp}
            else:
                wptr_reps = set(wp)
            w_incompat = st.memo.intersects(work, masks.incompat, _MEMO_INCOMPAT)
        else:
            wptr_reps = ()
            w_incompat = False

        succ = st.succ
        # Pairs whose edge already exists would be rejected by add_edge,
        # so they can be pre-filtered at native speed — except under PIP
        # addition 3, whose backpropagation must see every proposal.
        prefilter = not self.pip3

        # Store edges *n ⊇ q.
        if st.stores[n]:
            store_pe = w_incompat or st.pte[n]  # §V-B / STOREΩ escape
            for q in st.canonical_targets(st.stores[n]):
                if wptr_reps:
                    cand = wptr_reps - succ[q] if prefilter else wptr_reps
                    st.stats.pair_evals += len(cand)
                    for xr in cand:
                        new_edges.add((q, xr))
                if store_pe:
                    marks_pe.add(q)
        # STOREToΩ: storing a scalar through n.
        if st.sscalar[n]:
            marks_pte.update(wptr_reps)

        # Load edges p ⊇ *n (same dedup, per source this time).
        if st.loads[n]:
            load_pte = w_incompat or st.pte[n]  # §V-B / LOADFROMΩ
            for p in st.canonical_targets(st.loads[n]):
                st.stats.pair_evals += len(wptr_reps)
                for xr in wptr_reps:
                    if prefilter and p in succ[xr]:
                        continue
                    new_edges.add((xr, p))
                if load_pte:
                    marks_pte.add(p)
        # Loading a scalar through n exposes pointees of its targets.
        if st.lscalar[n]:
            marks_pe.update(wptr_reps)

        # Calls through n.
        if st.call_idx[n]:
            if work:
                w_funcs = st.memo.members(work, masks.func, _MEMO_FUNC)
                w_imported = st.memo.intersects(work, masks.impfunc, _MEMO_IMPFUNC)
            else:
                w_funcs = ()
                w_imported = False
            for ci in st.call_idx[n]:
                call = program.calls[ci]
                for x in w_funcs:
                    for fi in program.funcs_of[x]:
                        self._resolve_call(
                            call, program.funcs[fi], new_edges, marks_pte, marks_pe
                        )
                if w_imported or st.pte[n]:
                    self.call_to_imported(call)

        for r in marks_pte:
            self.mark_pte(st.find(r))
        for r in marks_pe:
            self.mark_pe(st.find(r))

        # Add new simple edges (PIP addition 3).
        for src, dst in new_edges:
            src, dst = st.find(src), st.find(dst)
            if src == dst:
                continue
            if self.pip3:
                if st.pe[dst] and not st.pe[src]:
                    self.mark_pe(src)
                if st.pe[src] and st.pte[dst]:
                    st.stats.pip_edges_elided += 1
                    continue
            if st.add_edge(src, dst):
                self._propagate(src, dst, st.full_sol(src))
                if self.detector is not None:
                    self.detector.on_new_edge(src, dst)

    # ------------------------------------------------------------------

    def _visit_ep(self, n: int) -> None:
        st = self.state
        st.stats.visits += 1
        if self.detector is not None:
            self.detector.on_visit(n)
            if st.find(n) != n:
                self.worklist.push(st.find(n))
                return
        program = self.program
        omega = program.omega
        assert omega is not None

        work = self._take_work(n)

        new_edges: Set[Tuple[int, int]] = set()
        marks_pte: Set[int] = set()
        marks_pe: Set[int] = set()

        # Simple edges.
        for p in st.canonical_succ(n):
            self._propagate(n, p, work)

        masks = st.masks
        if work and (st.stores[n] or st.loads[n]):
            wp = st.memo.members(work, masks.p, _MEMO_PTR)
            if st.any_unions:
                find = st.find
                wptr_reps = {find(x) for x in wp}
            else:
                wptr_reps = set(wp)
            # §V-B: pointer-incompatible locations (other than Ω itself)
            # behave as Ω when dereferenced onto.
            w_incompat = st.memo.intersects(work, masks.incompat, _MEMO_INCOMPAT)
        else:
            wptr_reps = ()
            w_incompat = False

        succ = st.succ

        # Store edges *n ⊇ q: dereference targets.  Pairs whose edge
        # already exists would be rejected by add_edge, so the C-level
        # difference keeps them out of the Python pair loop.
        if st.stores[n]:
            for q in st.canonical_targets(st.stores[n]):
                if wptr_reps:
                    cand = wptr_reps - succ[q]
                    st.stats.pair_evals += len(cand)
                    for xr in cand:
                        new_edges.add((q, xr))
                if w_incompat:
                    marks_pe.add(q)

        # Load edges p ⊇ *n (same dedup, per source this time).
        if st.loads[n]:
            for p in st.canonical_targets(st.loads[n]):
                st.stats.pair_evals += len(wptr_reps)
                for xr in wptr_reps:
                    if p in succ[xr]:
                        continue
                    new_edges.add((xr, p))
                if w_incompat:
                    marks_pte.add(p)

        # Calls through n.
        if st.call_idx[n]:
            if work:
                w_funcs = st.memo.members(work, masks.func, _MEMO_FUNC)
                # Func(x, Ω, …, Ω) for some pointee: unknown external
                # function — the induced edges are target-independent.
                w_extfunc = st.memo.intersects(work, masks.extfunc, _MEMO_EXTFUNC)
            else:
                w_funcs = ()
                w_extfunc = False
            for ci in st.call_idx[n]:
                call = program.calls[ci]
                for x in w_funcs:
                    for fi in program.funcs_of[x]:
                        self._resolve_call(
                            call, program.funcs[fi], new_edges, marks_pte, marks_pe
                        )
                if w_extfunc:
                    if call.ret is not None:
                        self._ep_mark_pte(st.find(call.ret), new_edges)
                    for a in call.args:
                        if a is not None:
                            self._ep_mark_pe(st.find(a), new_edges)

        # Call_e: external modules call everything n points to (④).
        if st.extcall[n] and work:
            for x in st.memo.members(work, masks.func, _MEMO_FUNC):
                for fi in program.funcs_of[x]:
                    fc = program.funcs[fi]
                    if fc.ret is not None:
                        self._ep_mark_pe(st.find(fc.ret), new_edges)
                    for a in fc.args:
                        if a is not None:
                            self._ep_mark_pte(st.find(a), new_edges)

        for r in marks_pte:
            self._ep_mark_pte(st.find(r), new_edges)
        for r in marks_pe:
            self._ep_mark_pe(st.find(r), new_edges)

        for src, dst in new_edges:
            src, dst = st.find(src), st.find(dst)
            if src == dst:
                continue
            if st.add_edge(src, dst):
                self._propagate(src, dst, st.full_sol(src))
                if self.detector is not None:
                    self.detector.on_new_edge(src, dst)
