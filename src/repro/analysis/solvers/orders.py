"""Worklist iteration orders (paper Table IV).

The order in which worklist nodes are processed has a drastic effect on
solving performance (paper §II-C).  Five orders are implemented:

- **FIFO** — queue (Pearce et al.).
- **LIFO** — stack.
- **LRF** — Least Recently Fired: pop the node whose last visit is the
  oldest (Pearce et al.).
- **2LRF** — two-phase LRF (Hardekopf & Lin): pops are LRF-ordered
  within the current phase; nodes pushed during the phase wait for the
  next one.
- **TOPO** — topological: each round visits pending nodes in the
  topological order of the current simple-edge constraint graph (SCCs
  condensed, Pearce et al.).

All orders share the same contract: ``push`` enqueues a node (idempotent
while it is still pending), ``pop`` returns a node or None when empty.

Nodes may be *unified* while queued (cycle collapses in the solver).
Every order therefore takes an optional ``canon`` callable — the
solver's union-find ``find`` — and pops skip-and-discard through it:
pushes canonicalise, and a popped id whose representative is no longer
itself is a *stale alias*, removed from the pending set and dropped
without firing.  Dropping is sound because a unifying solver pushes the
survivor at union time (see ``WorklistSolver._after_union``), so the
alias entry never carries the only record of work.  Without this, dead
ids linger in ``_pending`` after a unification — ``__bool__`` keeps
reporting work, the representative re-fires once per absorbed alias,
and LRF priorities get charged to ids that no longer exist.  ``canon``
defaults to the identity so the orders remain usable standalone.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set

from .cycles import strongly_connected_components


def _identity(v: int) -> int:
    return v


class Worklist:
    """Abstract worklist interface."""

    name = "<abstract>"

    def __init__(
        self, num_vars: int, canon: Optional[Callable[[int], int]] = None
    ):
        self._pending: Set[int] = set()
        self._canon: Callable[[int], int] = canon or _identity

    def push(self, v: int) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[int]:
        raise NotImplementedError

    def _resolve(self, v: int) -> Optional[int]:
        """Skip-and-discard one popped id.

        Removes ``v`` from pending and returns it as the node to visit,
        or None when the entry is stale: ``v`` was already drained, or
        it was unified away (its union pushed the surviving
        representative, so firing the alias would only re-visit a node
        that is — or already was — queued in its own right).
        """
        if v not in self._pending:
            return None
        self._pending.remove(v)
        if self._canon(v) != v:
            return None
        return v

    def __bool__(self) -> bool:
        return bool(self._pending)


class FIFOWorklist(Worklist):
    name = "FIFO"

    def __init__(
        self, num_vars: int, canon: Optional[Callable[[int], int]] = None
    ):
        super().__init__(num_vars, canon)
        self._queue: deque = deque()

    def push(self, v: int) -> None:
        v = self._canon(v)
        if v not in self._pending:
            self._pending.add(v)
            self._queue.append(v)

    def pop(self) -> Optional[int]:
        while self._queue:
            c = self._resolve(self._queue.popleft())
            if c is not None:
                return c
        return None


class LIFOWorklist(Worklist):
    name = "LIFO"

    def __init__(
        self, num_vars: int, canon: Optional[Callable[[int], int]] = None
    ):
        super().__init__(num_vars, canon)
        self._stack: List[int] = []

    def push(self, v: int) -> None:
        v = self._canon(v)
        if v not in self._pending:
            self._pending.add(v)
            self._stack.append(v)

    def pop(self) -> Optional[int]:
        while self._stack:
            c = self._resolve(self._stack.pop())
            if c is not None:
                return c
        return None


class LRFWorklist(Worklist):
    """Least Recently Fired priority order."""

    name = "LRF"

    def __init__(
        self, num_vars: int, canon: Optional[Callable[[int], int]] = None
    ):
        super().__init__(num_vars, canon)
        self._heap: List = []
        self._last_fired: Dict[int, int] = {}
        self._clock = 0
        self._seq = 0

    def push(self, v: int) -> None:
        v = self._canon(v)
        if v in self._pending:
            return
        self._pending.add(v)
        self._seq += 1
        heapq.heappush(self._heap, (self._last_fired.get(v, 0), self._seq, v))

    def pop(self) -> Optional[int]:
        while self._heap:
            _, _, v = heapq.heappop(self._heap)
            c = self._resolve(v)
            if c is not None:
                # Fire times are charged to the *canonical* id — the one
                # future pushes will look up — never to absorbed aliases.
                self._clock += 1
                self._last_fired[c] = self._clock
                return c
        return None


class TwoPhaseLRFWorklist(Worklist):
    """2LRF: LRF within the current phase, new work deferred a phase."""

    name = "2LRF"

    def __init__(
        self, num_vars: int, canon: Optional[Callable[[int], int]] = None
    ):
        super().__init__(num_vars, canon)
        self._current: List = []
        self._next: Set[int] = set()
        self._last_fired: Dict[int, int] = {}
        self._clock = 0
        self._seq = 0

    def push(self, v: int) -> None:
        v = self._canon(v)
        if v in self._pending:
            return
        self._pending.add(v)
        self._next.add(v)

    def _start_phase(self) -> None:
        self._current = []
        for v in self._next:
            self._seq += 1
            heapq.heappush(
                self._current, (self._last_fired.get(v, 0), self._seq, v)
            )
        self._next = set()

    def pop(self) -> Optional[int]:
        while True:
            while self._current:
                _, _, v = heapq.heappop(self._current)
                if v in self._next:  # re-pushed: wait for the next phase
                    continue
                c = self._resolve(v)
                if c is not None:
                    self._clock += 1
                    self._last_fired[c] = self._clock
                    return c
            if not self._next:
                return None
            self._start_phase()


class TopoWorklist(Worklist):
    """Round-based topological order over the current simple-edge graph.

    ``successors`` is injected by the solver so each round reflects edges
    added so far; cycles are condensed by Tarjan's algorithm and visited
    as a unit (in discovery order inside the SCC).
    """

    name = "TOPO"

    def __init__(
        self,
        num_vars: int,
        successors: Optional[Callable[[int], Iterable[int]]] = None,
        canon: Optional[Callable[[int], int]] = None,
    ):
        super().__init__(num_vars, canon)
        self._round: List[int] = []
        self.successors: Callable[[int], Iterable[int]] = successors or (
            lambda v: ()
        )

    def push(self, v: int) -> None:
        self._pending.add(self._canon(v))

    def _order_round(self) -> None:
        pending = self._pending
        order = _topological(pending, self.successors)
        self._round = [v for v in order if v in pending]
        self._round.reverse()  # pop() from the end => topological order

    def pop(self) -> Optional[int]:
        while True:
            while self._round:
                c = self._resolve(self._round.pop())
                if c is not None:
                    return c
            if not self._pending:
                return None
            self._order_round()


def _topological(
    roots: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> List[int]:
    """Topological order of the graph reachable from ``roots``.

    Tarjan emits SCCs in reverse-topological order, so the flattened
    reversed result is a valid topological order with cycle members
    adjacent.
    """
    out: List[int] = []
    for scc in reversed(strongly_connected_components(roots, successors)):
        out.extend(reversed(scc))
    return out


WORKLIST_ORDERS: Dict[str, type] = {
    "FIFO": FIFOWorklist,
    "LIFO": LIFOWorklist,
    "LRF": LRFWorklist,
    "2LRF": TwoPhaseLRFWorklist,
    "TOPO": TopoWorklist,
}
