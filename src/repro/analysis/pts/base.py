"""The backend contract of the ``pts`` layer.

A backend is a stateless factory for *pointee-set values*.  Values are
set-like: solvers manipulate them only through the operations below, so
any representation that honours the contract plugs in without solver
changes.

Value contract (``S`` denotes a value of the backend's type, holding
small non-negative ints — constraint-variable indexes):

======================  ================================================
expression              meaning
======================  ================================================
``S |= T`` / ``S | T``  union (in place / new value)
``S -= T`` / ``S - T``  difference
``S &= T`` / ``S & T``  intersection (``T`` may be a *mask*, see below)
``x in S``              membership
``len(S)``              cardinality
``bool(S)``             non-emptiness
``iter(S)``             members, in unspecified order
``S.add(x)``            insert one member
======================  ================================================

Masks are immutable values produced by :meth:`PTSBackend.mask`; they are
only ever used on the right-hand side of ``&``/``-`` to filter a value
by a fixed predicate (pointer-compatible, holds-a-Func, …) at native
speed instead of per-element Python tests.

The two fused helpers :meth:`union_grow` and :meth:`delta_update` carry
the solver hot paths *and* define the propagation-accounting unit: both
return the number of pointees that newly arrived at the destination, so
the DP and non-DP paths of every solver count the same unit of work by
construction (see :class:`~repro.analysis.solution.SolverStats`).

Each backend also has one immutable empty value,
:attr:`PTSBackend.shared_empty`.  A solver state holds it in every empty
Sol_e / ΔSol row (:meth:`PTSBackend.copy_rows`), so an empty row costs
no container and "is this row empty" is an identity test.  It reads as
an empty value of the backend's type; any in-place write to it raises
instead of rebinding or mutating it, so a writer must first swap a
fresh value into the row (``SolverState.grow``).
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterable


def refuse_write(self, *args):
    """The in-place operators of a backend's shared empty value."""
    raise TypeError(
        "the shared empty pointee set is immutable: write to a Sol row"
        " through SolverState.grow"
    )


class FrozenEmpty(frozenset):
    """An empty frozenset whose in-place operators raise.

    A plain frozenset would answer ``s |= t`` by rebinding ``s`` to a
    new frozenset, silently; this one raises, like its (absent)
    ``add`` and ``discard`` do.  Its binary operators return plain
    frozensets, which only ever reach read-only positions.
    """

    __slots__ = ()

    __ior__ = __isub__ = __iand__ = __ixor__ = refuse_write


class PTSBackend:
    """Abstract factory for one points-to-set representation."""

    #: registry / CLI name of the backend
    name: str = "<abstract>"
    #: the one immutable empty value of every empty Sol_e / ΔSol row
    shared_empty: Any = None

    # -- construction --------------------------------------------------

    def empty(self) -> Any:
        """A new empty, mutable pointee set."""
        raise NotImplementedError

    def from_iter(self, items: Iterable[int]) -> Any:
        """A new mutable pointee set holding ``items``."""
        raise NotImplementedError

    def copy(self, s: Any) -> Any:
        """An independent mutable copy of ``s``."""
        raise NotImplementedError

    def copy_rows(self, rows: list) -> list:
        """One value per row — the SolverState bulk initialiser: a
        mutable value of its own for a non-empty row, the shared empty
        value for an empty one (most rows), which takes no Python
        step."""
        out = [self.shared_empty] * len(rows)
        for v in compress(range(len(rows)), rows):
            out[v] = self.from_iter(rows[v])
        return out

    def mask(self, items: Iterable[int]) -> Any:
        """An immutable filter value for use as ``S & mask`` / ``S - mask``."""
        raise NotImplementedError

    # -- comparison / conversion ---------------------------------------

    def equal(self, a: Any, b: Any) -> bool:
        """True iff ``a`` and ``b`` hold the same members."""
        raise NotImplementedError

    def freeze(self, s: Any) -> frozenset:
        """Canonical ``frozenset`` of the members (for Solution building)."""
        raise NotImplementedError

    def cache_key(self, s: Any):
        """A cheap hashable proxy for the *value* of ``s``, or ``None``.

        ``None`` holds per value: a backend may key some values and not
        others (the bitset backend keys only packed ones).  Equal keys
        imply equal members, but not the reverse: two values with the
        same members may have different keys, or one may have none.
        Solution extraction and :class:`~repro.analysis.pts.memo.OpMemo`
        use the key to work once per distinct keyed value; a value whose
        cheapest key would be its frozen members returns ``None``.
        """
        return None

    # -- fused hot-path operations -------------------------------------

    def union_grow(self, target: Any, items: Any) -> int:
        """``target |= items``; return how many members were new."""
        raise NotImplementedError

    def delta_update(self, delta: Any, items: Any, processed: Any) -> int:
        """Difference-propagation step: add ``items - processed - delta``
        into ``delta``; return how many members were added."""
        raise NotImplementedError
