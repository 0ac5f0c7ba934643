"""Cycle detection techniques for the worklist solver (paper Table IV).

Cycles of simple edges make every member's Sol set converge to the same
value, so members can be unified to share one Sol_e set (paper §II-D).
Three online/hybrid techniques are implemented as pluggable detectors:

- :class:`OnlineCycleDetection` (OCD, Pearce et al.): every time a simple
  edge is inserted, search for a cycle through it and collapse it
  immediately.  Detects all cycles as soon as they appear, which is why
  the paper deems combining it with the opportunistic techniques
  pointless.  It keeps a Pearce–Kelly dynamic topological order, so an
  insertion only searches and reorders the nodes it affects.
- :class:`LazyCycleDetection` (LCD, Hardekopf & Lin): when a propagation
  along an edge makes both endpoint Sol sets equal, suspect a cycle and
  run a (rare) detection sweep; never check the same edge twice.
- :class:`HybridCycleDetection` (HCD, Hardekopf & Lin): an offline pass
  over the constraint graph with dereference (ref) nodes finds cycles
  that *will* appear once pointees arrive; at solve time, pointees of the
  recorded variables are unified with the cycle representative without
  any graph search.

Detectors communicate unifications through
:meth:`WorklistSolver.request_union`, which defers them to safe points.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress, count
from typing import Callable, DefaultDict, Dict, Iterable, List, Optional, Set, Tuple

from ..constraints import ConstraintProgram


def strongly_connected_components(
    roots: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> List[List[int]]:
    """Iterative Tarjan SCC over the subgraph reachable from ``roots``.

    Returns SCCs in reverse topological order (standard Tarjan output),
    roots taken in their iteration order and successors in theirs.
    This is the one SCC kernel of the analysis: OVS labelling, Reduce's
    base subsumption, OCD's initial pass, HCD's offline pass, LCD's
    sweeps and the TOPO worklist all call it.

    ``successors(v)`` is called once per reached node and must not
    change while the search runs; a falsy result means no successors.
    Most nodes of an offline constraint graph have none, and such a
    node is its own SCC: it is emitted where Tarjan would emit it,
    without a DFS frame.  (Its index exceeds its parent's, so popping
    its frame could never lower the parent's low-link.)  A cheap
    ``successors`` — a list's or dict's bound ``__getitem__`` — keeps
    the per-node cost in C.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[List[int]] = []
    for root in roots:
        if root in index:
            continue
        out = successors(root)
        index[root] = len(index)
        if not out:
            sccs.append([root])
            continue
        low[root] = index[root]
        stack.append(root)
        on_stack.add(root)
        work: List = [(root, iter(out))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    out = successors(w)
                    index[w] = len(index)
                    if not out:
                        sccs.append([w])
                        continue
                    low[w] = index[w]
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(out)))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if work:
                    pv = work[-1][0]
                    if lv < low[pv]:
                        low[pv] = lv
                if lv == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.remove(w)
                        scc.append(w)
                        if w == v:
                            break
                    sccs.append(scc)
    return sccs


class CycleDetector:
    """Base class: all hooks are no-ops."""

    name = "<none>"
    #: True if the detector wants on_equal_propagation callbacks
    wants_equal_sets = False

    def attach(self, solver) -> None:
        self.solver = solver
        self.state = solver.state

    def before_solve(self) -> None:
        pass

    def on_visit(self, n: int) -> None:
        pass

    def on_new_edge(self, src: int, dst: int) -> None:
        pass

    def on_equal_propagation(self, src: int, dst: int) -> None:
        pass

    def on_union(self, survivor: int, dead: int) -> None:
        pass


class OnlineCycleDetection(CycleDetector):
    """OCD: detect every cycle the moment its closing edge is inserted.

    The dynamic topological order of Pearce & Kelly: every live
    representative holds an integer position, and every simple edge
    runs from a lower to a higher one.  Inserting an edge src → dst
    with pos[src] < pos[dst] provably closes no cycle and costs O(1).
    An order-violating insertion searches two affected sets: δ⁺, the
    nodes reachable from dst at positions ≤ pos[src], and δ⁻, the nodes
    that reach src at positions ≥ pos[dst].  Only those nodes move:
    they take their own positions, sorted, δ⁻ first and δ⁺ second.

    If src is in δ⁺ the edge closes a cycle, and δ⁺ ∩ δ⁻ is its SCC.
    The SCC is spliced between δ⁻ and δ⁺ before its unions are
    requested, so whichever member survives already holds a valid
    position and the order needs no rebuild.  Unions land at the end of
    the visit; an edge inserted while a collapse is pending is queued
    and replayed at the next visit, never searched against the
    half-collapsed order.

    The backward search needs predecessors, which the solver does not
    keep, so the detector records them.  An entry may name a node that
    has since been unified away (it is mapped to its representative) or
    an edge PIP addition 4 elided (it is skipped).

    The initial constraint graph counts as a sequence of insertions, so
    cycles already present before solving are collapsed up front —
    "OCD detects all cycles as soon as they appear" (paper §V-A).  The
    Tarjan pass that finds them also yields the initial order.
    """

    name = "OCD"

    def __init__(self) -> None:
        #: live representative → its position in the topological order
        self._pos: Dict[int, int] = {}
        #: node → the nodes with a simple edge into it (may be stale)
        self._preds: DefaultDict[int, Set[int]] = defaultdict(set)
        #: edges inserted since this visit requested a collapse; None
        #: when no collapse is pending
        self._deferred: Optional[List[Tuple[int, int]]] = None

    def before_solve(self) -> None:
        st = self.state
        # Every variable's representative, inserted in variable order: a
        # set's iteration order depends on its insertions, and the
        # search's root order fixes the initial positions.
        roots = set(st.uf.representatives())
        # Clean the rows a union left stale, so the search reads every
        # row straight from the list (a union hands a merged-away row
        # back to the shared empty row, so every non-empty row is a
        # representative's).
        succ = st.succ
        if st.any_unions:
            for r in compress(range(len(succ)), succ):
                st.canonical_succ(r)
        sccs = strongly_connected_components(roots, succ.__getitem__)
        for scc in sccs:
            if len(scc) > 1:
                first = scc[0]
                for other in scc[1:]:
                    st.union(first, other)
        # Tarjan emits SCCs in reverse topological order; a singleton
        # is its own representative still.
        find = st.find
        order = [
            scc[0] if len(scc) == 1 else find(scc[0]) for scc in reversed(sccs)
        ]
        pos = self._pos
        pos.update(zip(order, count(len(pos))))
        preds = self._preds
        for v in filter(succ.__getitem__, pos):
            for w in st.canonical_succ(v):
                preds[w].add(v)

    def on_union(self, survivor: int, dead: int) -> None:
        # The survivor's position already lies inside the spliced SCC.
        self._pos.pop(dead, None)
        dead_preds = self._preds.pop(dead, None)
        if dead_preds:
            self._preds[survivor] |= dead_preds

    def on_new_edge(self, src: int, dst: int) -> None:
        self._preds[dst].add(src)
        if self._deferred is not None:
            self._deferred.append((src, dst))
        else:
            self._insert(src, dst)

    def on_visit(self, n: int) -> None:
        queued = self._deferred
        if queued is None:
            return
        # The unions of the pending collapse have been applied.
        self._deferred = None
        st = self.state
        for a, b in queued:
            src, dst = st.find(a), st.find(b)
            if src == dst or dst not in st.canonical_succ(src):
                continue  # collapsed away, or elided by PIP addition 4
            if self._deferred is not None:  # a replay closed a cycle
                self._deferred.append((src, dst))
            else:
                self._insert(src, dst)

    def _insert(self, src: int, dst: int) -> None:
        """Restore the order after the edge src → dst (Pearce–Kelly).

        Both searches follow only edges that respect the current order.
        Normally that is every edge but src → dst; during a replay the
        queued edges not yet placed are skipped too, which is exactly
        the graph the order is valid for.
        """
        pos = self._pos
        lb, ub = pos[dst], pos[src]
        if ub < lb:
            return  # order-respecting edge: provably acyclic, O(1)
        st = self.state
        succ = st.canonical_succ
        fwd = {dst}
        stack = [dst]
        while stack:
            v = stack.pop()
            pv = pos[v]
            for w in succ(v):
                if pv < pos[w] <= ub and w not in fwd:
                    fwd.add(w)
                    stack.append(w)
        find = st.find
        preds = self._preds
        bwd = {src}
        stack = [src]
        while stack:
            v = stack.pop()
            pv = pos[v]
            for u in preds.get(v, ()):
                x = find(u)
                if lb <= pos[x] < pv and x not in bwd and v in succ(x):
                    bwd.add(x)
                    stack.append(x)
        # Empty unless src is in δ⁺, i.e. the edge closes a cycle.
        scc = fwd & bwd
        key = pos.__getitem__
        moved = sorted(bwd - scc, key=key) + sorted(scc, key=key)
        moved += sorted(fwd - scc, key=key)
        for v, p in zip(moved, sorted(map(key, moved))):
            pos[v] = p
        if scc:
            for other in scc:
                if other != src:
                    self.solver.request_union(src, other)
            self._deferred = []


class LazyCycleDetection(CycleDetector):
    """LCD: suspect a cycle when an edge's endpoints have equal Sol sets."""

    name = "LCD"
    wants_equal_sets = True

    def __init__(self) -> None:
        self._checked: Set[Tuple[int, int]] = set()
        #: (edges_added, unifications) at the time of the sweeps in
        #: :attr:`_swept` — a sweep is a pure function of (graph, root),
        #: so repeating one while the graph is unchanged is a no-op
        self._sweep_state: Tuple[int, int] = (-1, -1)
        self._swept: Set[int] = set()

    def on_equal_propagation(self, src: int, dst: int) -> None:
        key = (src, dst)
        if key in self._checked:
            return
        st = self.state
        # The trigger is a heuristic, so comparing the processed parts
        # only is fine (backend equal() is one native comparison).
        if not st.pts.equal(st.sol[src], st.sol[dst]):
            return
        self._checked.add(key)
        state = (st.stats.edges_added, st.stats.unifications)
        if state != self._sweep_state:
            self._sweep_state = state
            self._swept.clear()
        elif dst in self._swept:
            return
        self._swept.add(dst)
        # Sweep: collapse every (genuine) cycle reachable from dst.
        for scc in strongly_connected_components([dst], st.canonical_succ):
            if len(scc) >= 2:
                first = scc[0]
                for other in scc[1:]:
                    self.solver.request_union(first, other)


class HybridCycleDetection(CycleDetector):
    """HCD: offline analysis predicts cycles through dereference nodes."""

    name = "HCD"

    def __init__(self, program: ConstraintProgram):
        self.program = program
        #: original var v → the real members of the offline SCC that
        #: contains ref(v); every pointee of v joins a cycle with them
        self.hcd_map: Dict[int, Tuple[int, ...]] = {}
        #: ref-free offline cycles of real variables (unified up front;
        #: these consist purely of simple edges, so collapsing them never
        #: changes the solution)
        self.static_groups: List[List[int]] = []
        self._analyse()
        #: representative → list of (real-member tuple) triggers
        self._by_rep: Dict[int, List[Tuple[int, ...]]] = {}

    def _analyse(self) -> None:
        """Offline pass: SCCs of the constraint graph with ref nodes.

        Node encoding: variable v is node v; ref(v) (the dereference *v)
        is node ``num_vars + v``.  Edges: simple q → p; load p ⊇ *q gives
        ref(q) → p; store *p ⊇ q gives q → ref(p).
        """
        program = self.program
        n = program.num_vars
        simple_out = program.simple_out
        load_from = program.load_from
        store_into = program.store_into
        # Adjacency rows of the 2n nodes (an empty row is the shared
        # empty tuple), and the nodes in the order of their first
        # out-edge.  Only variables with a non-empty row are walked, in
        # ascending order, so every row lists its edges in the order a
        # walk over all variables would.
        adj: List = [()] * (2 * n)
        roots: List[int] = []

        def edges(a: int, targets) -> None:
            row = adj[a]
            if not row:
                row = adj[a] = []
                roots.append(a)
            row.extend(targets)

        rng = range(n)
        walked = set(compress(rng, simple_out)).union(
            compress(rng, load_from), compress(rng, store_into)
        )
        for src in sorted(walked):
            if simple_out[src]:
                edges(src, simple_out[src])
            if load_from[src]:
                edges(n + src, load_from[src])
            for q in store_into[src]:
                edges(q, (n + src,))
        for scc in strongly_connected_components(roots, adj.__getitem__):
            if len(scc) < 2:
                continue
            reals = [v for v in scc if v < n]
            refs = [v - n for v in scc if v >= n]
            if not refs:
                # Pure simple-edge cycle: always safe to collapse.
                if len(reals) >= 2:
                    self.static_groups.append(reals)
            elif len(refs) == 1 and reals:
                # Exactly one dereference node: once Sol(v) gains a
                # member x, the edge through ref(v) materialises via x
                # and the whole SCC becomes a genuine cycle.  Collapsing
                # it any earlier (or with more than one ref node, whose
                # other segments may never materialise) could change the
                # solution, which the identical-solutions validation
                # forbids.
                self.hcd_map[refs[0]] = tuple(reals)
            # Multi-ref SCCs are skipped: fewer unifications, identical
            # solution.

    def attach(self, solver) -> None:
        super().attach(solver)
        st = self.state
        for group in self.static_groups:
            first = group[0]
            for other in group[1:]:
                st.union(first, other)
        self._by_rep = {}
        for v, reals in self.hcd_map.items():
            self._by_rep.setdefault(st.find(v), []).append(reals)

    def on_union(self, survivor: int, dead: int) -> None:
        if dead in self._by_rep:
            self._by_rep.setdefault(survivor, []).extend(self._by_rep.pop(dead))

    def on_visit(self, n: int) -> None:
        triggers = self._by_rep.get(n)
        if not triggers:
            return
        st = self.state
        for reals in triggers:
            pointees = list(st.full_sol(n) & st.masks.p)
            if not pointees:
                continue  # nothing materialises the cycle yet
            anchor = st.find(pointees[0])
            for member in reals:
                if st.find(member) != anchor:
                    self.solver.request_union(anchor, member)
            for x in pointees[1:]:
                if st.find(x) != anchor:
                    self.solver.request_union(anchor, x)


class CombinedDetector(CycleDetector):
    """Runs several detectors (e.g. HCD offline + LCD online)."""

    def __init__(self, detectors: List[CycleDetector]):
        self.detectors = detectors
        self.name = "+".join(d.name for d in detectors)
        self.wants_equal_sets = any(d.wants_equal_sets for d in detectors)

    def attach(self, solver) -> None:
        super().attach(solver)
        for d in self.detectors:
            d.attach(solver)

    def before_solve(self) -> None:
        for d in self.detectors:
            d.before_solve()

    def on_visit(self, n: int) -> None:
        for d in self.detectors:
            d.on_visit(n)

    def on_new_edge(self, src: int, dst: int) -> None:
        for d in self.detectors:
            d.on_new_edge(src, dst)

    def on_equal_propagation(self, src: int, dst: int) -> None:
        for d in self.detectors:
            if d.wants_equal_sets:
                d.on_equal_propagation(src, dst)

    def on_union(self, survivor: int, dead: int) -> None:
        for d in self.detectors:
            d.on_union(survivor, dead)
