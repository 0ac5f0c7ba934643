"""Points-to solutions: Sol, Sol_e, Sol_i, and cross-configuration equality.

All solver configurations must produce the *identical* solution (paper
§V-A validates this); :class:`Solution` is the canonical form used for
that comparison and by analysis clients.

Pointees are original variable indexes of abstract memory locations, plus
the token :data:`repro.analysis.omega.OMEGA` denoting "external memory
not represented by any other abstract location".  A pointer whose
solution contains OMEGA may target any externally accessible memory
location; its full Sol set therefore also contains every member of
:attr:`Solution.external`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from .constraints import ConstraintProgram
from .omega import OMEGA

Pointee = Union[int, str]  # an M-var index, or the OMEGA token

#: wire encoding of the OMEGA token in canonical dictionaries (no
#: constraint variable has a negative index, so -1 is unambiguous and
#: keeps pointee lists homogeneous integers — sortable and JSON-compact)
OMEGA_WIRE = -1

_OMEGA_ONLY = frozenset((OMEGA,))
_OMEGA_WIRE_ONLY = frozenset((OMEGA_WIRE,))

#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, without
#: building an encoder per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def attach_aliases(
    points_to: Dict[int, FrozenSet],
    program: ConstraintProgram,
    alias_of: Dict[int, int],
) -> None:
    """Give each merged-away pointer its representative's Sol set.

    The offline reduction (:mod:`repro.analysis.reduce`) rewrites all
    constraints of an equivalence class onto one representative instead
    of unifying the class in the solver, so extraction leaves the
    class's Sol on the representative only.  Every other member ``q``
    (``alias_of[q]`` is its representative) that extraction would
    materialise — ``in_p``, not Ω — gets the representative's shared
    frozenset: the reduction proves the class pointer-equivalent (or,
    for a collapsed chain, Sol-over-approximated by its target,
    observable only outside the named canonical form).  A class whose
    representative has no Sol contributes nothing.  A member that keeps
    its own index because it is a location (in M, ea-flagged) is unified
    with its representative inside the solver, so it already holds that
    very set.
    """
    in_p, omega = program.in_p, program.omega
    for q, rep in alias_of.items():
        if in_p[q] and q != omega:
            s = points_to.get(rep)
            if s is not None:
                points_to[q] = s


def _wire_pointees(pointees: FrozenSet) -> List[int]:
    """One Sol set's sorted wire list.  OMEGA becomes
    :data:`OMEGA_WIRE`, which sorts before every (non-negative) index."""
    if OMEGA in pointees:
        wire = sorted(pointees - _OMEGA_ONLY)
        wire.insert(0, OMEGA_WIRE)
        return wire
    return sorted(pointees)


def _check_indexes(indexes: FrozenSet, n: int, what: str) -> None:
    """Raise ValueError unless every member is an int in ``range(n)``."""
    if indexes and (
        set(map(type, indexes)) != {int}
        or min(indexes) < 0
        or max(indexes) >= n
    ):
        raise ValueError(f"{what} index outside the program's {n} variables")


def _decode_pointees(wire: FrozenSet, n: int) -> FrozenSet:
    """Inverse of :func:`_wire_pointees`, checking every index."""
    omega = OMEGA_WIRE in wire
    if omega:
        wire = wire - _OMEGA_WIRE_ONLY
    _check_indexes(wire, n, "pointee")
    return wire | _OMEGA_ONLY if omega else wire


@dataclass
class SolverStats:
    """Instrumentation counters reported by every solver."""

    #: total explicit pointees in the final state, counting each shared
    #: (unified) Sol_e set exactly once — the Table VI metric
    explicit_pointees: int = 0
    #: worklist node visits (0 for the naive solver's statement passes)
    visits: int = 0
    #: full passes over the constraint set (naive solver only)
    passes: int = 0
    #: pointees that newly arrived at a destination set via propagation.
    #: The unit is one count per (destination, pointee) arrival — an
    #: element already present (processed *or*, under DP, still pending
    #: in ΔSol) counts zero, so the DP path (arrivals into ΔSol) and the
    #: non-DP path (arrivals into Sol_e) measure identical work; both go
    #: through the backend ``union_grow``/``delta_update`` helpers, which
    #: define the unit.  Merges performed by cycle unification are not
    #: arrivals and are never counted.
    propagations: int = 0
    #: distinct canonical Sol sets in the extracted solution after
    #: interning (MDE-style sharing; see ``repro.analysis.pts.intern``)
    shared_sets: int = 0
    #: store/load (pointee, target) pair evaluations: for every visited
    #: store ``*n ⊇ q`` / load ``p ⊇ *n``, the number of pointer-
    #: compatible pointees the rule pairs with the target that round
    #: (after any native pre-filtering) — the §VI "complex rule work"
    #: axis the coarse visit count cannot see
    pair_evals: int = 0
    #: simple edges added during solving
    edges_added: int = 0
    #: cycle unifications performed
    unifications: int = 0
    #: simple edges skipped or removed by PIP
    pip_edges_elided: int = 0
    #: explicit Sol_e sets cleared by PIP
    pip_sets_cleared: int = 0
    #: variables folded away by the offline reduction pass (|V| delta;
    #: 0 when the configuration's ``reduce`` axis is off)
    reduce_vars_merged: int = 0
    #: never-read copy-chain registers folded into their target
    reduce_chains_collapsed: int = 0
    #: constraints removed offline (duplicates, self-edges, merged
    #: flags, subsumed base members)
    reduce_constraints_removed: int = 0
    #: operation-memo lookups answered from cache / computed fresh
    #: (:class:`repro.analysis.pts.OpMemo`; 0 for backends without a
    #: cheap value key and for solvers that bypass the memo)
    memo_hits: int = 0
    memo_misses: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON cache entries and task results."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "SolverStats":
        """Inverse of :meth:`to_dict`; unknown keys are rejected so a
        stale cache entry written by a different stats schema fails
        loudly (and is then discarded by the cache layer)."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown SolverStats fields: {sorted(unknown)}")
        return cls(**data)


class Solution:
    """Canonical, configuration-independent points-to solution."""

    def __init__(
        self,
        program: ConstraintProgram,
        points_to: Dict[int, FrozenSet],
        external: FrozenSet,
        stats: Optional[SolverStats] = None,
    ):
        self.program = program
        self._points_to = points_to
        #: E — externally accessible memory locations (original indexes)
        self.external = external
        self.stats = stats or SolverStats()
        self._by_name = {program.var_names[v]: v for v in points_to}

    # ------------------------------------------------------------------

    def points_to(self, p: int) -> FrozenSet:
        """Sol(p): pointee indexes plus possibly the OMEGA token.

        When OMEGA ∈ Sol(p), the set already includes all members of
        :attr:`external`.
        """
        return self._points_to[p]

    def points_to_name(self, name: str) -> FrozenSet:
        """Sol of the variable called ``name`` (convenience for tests)."""
        return self._points_to[self._by_name[name]]

    def names(self, pointees: Iterable[Pointee]) -> FrozenSet:
        """Map pointee indexes to variable names (OMEGA passes through)."""
        nm = self.program.var_names
        return frozenset(x if x == OMEGA else nm[x] for x in pointees)

    def may_point_to_external(self, p: int) -> bool:
        """True iff p ⊒ Ω was inferred (p has unknown-origin values)."""
        return OMEGA in self._points_to[p]

    def pointers(self) -> Iterable[int]:
        # Sorted, not insertion order: extraction paths (fused remap,
        # cache decode) build the dict in different orders, and display
        # must not reveal which one produced the solution.
        return sorted(self._points_to)

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return (
            self._points_to == other._points_to
            and self.external == other.external
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as key
        return hash(frozenset(self._points_to.items()))

    def diff(self, other: "Solution") -> str:
        """Human-readable difference report (for validation failures)."""
        lines = []
        nm = self.program.var_names
        if self.external != other.external:
            only_a = self.names(self.external - other.external)
            only_b = self.names(other.external - self.external)
            lines.append(f"external: only-left={sorted(only_a)} only-right={sorted(only_b)}")
        keys = set(self._points_to) | set(other._points_to)
        for p in sorted(keys):
            a = self._points_to.get(p, frozenset())
            b = other._points_to.get(p, frozenset())
            if a != b:
                lines.append(
                    f"Sol({nm[p]}): only-left={sorted(map(str, self.names(a - b)))}"
                    f" only-right={sorted(map(str, self.names(b - a)))}"
                )
        return "\n".join(lines) if lines else "<identical>"

    def total_pointees(self) -> int:
        """Σ|Sol(p)| over all pointers (full, implicit-expanded solution)."""
        return sum(len(s) for s in self._points_to.values())

    def rebase(self, program: ConstraintProgram) -> "Solution":
        """The same answer against ``program``.

        Indexes are positional, so ``program`` must share this
        solution's variable numbering: an equal rebuild, or the IP
        original of the Ω-lowered copy an EP configuration solved (the
        copy only appends the Ω node, which no EP solution holds).
        """
        return Solution(program, self._points_to, self.external, self.stats)

    # ------------------------------------------------------------------
    # Canonical wire form (parallel driver / on-disk cache)
    #
    # Extraction interns Sol sets, so few distinct frozensets back many
    # pointers.  Every encoder below sorts and encodes each distinct set
    # once per call (a ``functools.cache`` keyed on the set; a frozenset
    # stores its hash, so a repeat lookup costs no rehash) and hands the
    # same encoded object to every pointer holding an equal set.
    # Callers must treat the returned lists as read-only.
    # ------------------------------------------------------------------

    def to_canonical_dict(self) -> Dict:
        """JSON-serialisable canonical form of this solution.

        The encoding is fully deterministic (sorted pointer order, sorted
        pointee lists, OMEGA as :data:`OMEGA_WIRE`) and independent of
        the points-to-set backend and interning that produced the
        solution, so two equal solutions always encode byte-identically.
        The constraint program itself is *not* serialised — decoding
        re-attaches a program rebuilt in the receiving process.
        """
        wire = functools.cache(_wire_pointees)
        points_to = self._points_to
        return {
            "points_to": [[p, wire(points_to[p])] for p in sorted(points_to)],
            "external": sorted(self.external),
            "stats": self.stats.to_dict(),
        }

    def _named_sets(self) -> "Iterator[Tuple[str, FrozenSet]]":
        """``(name, Sol set)`` of every pointer in M, by pointer name."""
        names = self.program.var_names
        in_m = self.program.in_m
        points_to = self._points_to
        for name, p in sorted((names[p], p) for p in points_to if in_m[p]):
            yield name, points_to[p]

    def _pointee_names(self, pointees: FrozenSet) -> List[str]:
        """Sorted names of one Sol set (OMEGA passes through)."""
        get = self.program.var_names.__getitem__
        if OMEGA in pointees:
            named = list(map(get, pointees - _OMEGA_ONLY))
            named.append(OMEGA)
            named.sort()
            return named
        return sorted(map(get, pointees))

    def iter_named_canonical(self) -> "Iterator[Tuple[str, List[str]]]":
        """Stream the named canonical entries in sorted-name order.

        Yields ``(name, sorted_pointee_names)`` for every pointer in M,
        ordered by pointer name — exactly the iteration order of
        :meth:`to_named_canonical`'s ``points_to`` dict under
        ``sort_keys=True``.
        """
        named = functools.cache(self._pointee_names)
        for name, pointees in self._named_sets():
            yield name, named(pointees)

    def named_external(self) -> List[str]:
        """Sorted names of E — the named-canonical ``external`` list."""
        names = self.program.var_names
        return sorted(names[x] for x in self.external)

    def to_named_canonical(self) -> Dict:
        """Name-keyed canonical form, restricted to memory locations.

        Variable *indexes* differ between a cross-TU linked program and
        the equivalent single-file build (registers are numbered in
        construction order), but abstract memory locations — globals,
        functions, allocas, heap sites — carry build-independent names.
        This form keys pointers by name and keeps only pointers in M, so
        two equivalent builds encode byte-identically under
        ``json.dumps(..., sort_keys=True)``.  It is only meaningful for
        programs whose memory-location names are unique (the corpus
        generator guarantees this; C symbol rules guarantee it for
        globals/functions, and alloca/heap names are function-qualified).
        """
        return {
            "points_to": dict(self.iter_named_canonical()),
            "external": self.named_external(),
        }

    def named_canonical_digest(self) -> str:
        """sha256 of the canonical JSON encoding of the named form.

        Computed incrementally over the entries of
        :meth:`iter_named_canonical`, never holding the full JSON text,
        yet byte-equal to::

            hashlib.sha256(json.dumps(self.to_named_canonical(),
                sort_keys=True, separators=(",", ":")).encode()).hexdigest()

        which is the cross-build identity oracle (one flat link against
        a staged re-link or an export∘import round trip).
        Each distinct Sol set's JSON bytes are encoded once and hashed
        wherever the set recurs.
        """
        encoded = functools.cache(
            lambda pointees: _dumps(self._pointee_names(pointees)).encode()
        )
        h = hashlib.sha256()
        h.update(b'{"external":')
        h.update(_dumps(self.named_external()).encode())
        h.update(b',"points_to":{')
        first = True
        for name, pointees in self._named_sets():
            if not first:
                h.update(b",")
            first = False
            h.update(_dumps(name).encode())
            h.update(b":")
            h.update(encoded(pointees))
        h.update(b"}}")
        return h.hexdigest()

    @classmethod
    def from_canonical_dict(
        cls, data: Dict, program: ConstraintProgram
    ) -> "Solution":
        """Rebuild a :class:`Solution` from :meth:`to_canonical_dict`.

        ``program`` must be (an equal rebuild of) the constraint program
        the solution was extracted from — variable indexes are positional.
        Every pointer, pointee and E index is checked against
        ``program``; one that does not fit raises :class:`ValueError`
        (the cache layer then discards the entry).  Equal pointee sets
        decode to one shared frozenset, so the decoded solution keeps
        the MDE-style sharing of a freshly extracted one.
        """
        n = program.num_vars
        decoded: Dict[FrozenSet, FrozenSet] = {}
        points_to: Dict[int, FrozenSet] = {}
        for p, wire in data["points_to"]:
            wire = frozenset(wire)
            pointees = decoded.get(wire)
            if pointees is None:
                pointees = decoded[wire] = _decode_pointees(wire, n)
            points_to[p] = pointees
        _check_indexes(frozenset(points_to), n, "pointer")
        external = frozenset(data["external"])
        _check_indexes(external, n, "external location")
        return cls(
            program,
            points_to,
            external,
            SolverStats.from_dict(data["stats"]),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Solution of {self.program.name}: {len(self._points_to)}"
            f" pointers, |E|={len(self.external)}>"
        )


def validate_identical(solutions: Iterable[Solution]) -> None:
    """Raise AssertionError if any two solutions differ (paper §V-A)."""
    first: Optional[Solution] = None
    for sol in solutions:
        if first is None:
            first = sol
            continue
        if sol != first:
            raise AssertionError(
                "solver configurations disagree:\n" + first.diff(sol)
            )
