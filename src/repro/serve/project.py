"""In-memory projects with stage-granular incremental rebuilds.

A :class:`Project` owns a set of named C sources plus one
:class:`~repro.analysis.config.Configuration` and link policy, and keeps
them built through the staged pipeline (parse → lower → constraints →
link → solve) into an immutable :class:`Snapshot`: the linked
:class:`~repro.link.LinkedProgram` and its canonical
:class:`~repro.analysis.solution.Solution`, stamped with a monotone
generation counter.

Incrementality is *stage-granular* and content-addressed, not
diff-based: :meth:`Project.update` replaces whole members, and the
pipeline's (name, content-digest) member memo guarantees that
re-parsing/lowering/constraint-building happens for exactly the edited
members — the others replay their existing
:class:`~repro.pipeline.ConstraintsArtifact` (or their ``stages/``
disk-cache entry in a fresh process).  Linking re-runs on
the joint program.  Solving is cached by content too, and otherwise
starts from the previous generation's fixpoint whenever the new joint
program contains the previous one (:func:`repro.link.contain`): an edit
that only adds constraints costs what it adds.  Every other solve is
cold, and :meth:`Project.solve_counts` says which path each took.  Each
commit prunes the member memo to the committed members, so it holds one
entry per member however many edits a session serves.

Rebuilds are transactional: a frontend or link error during
``open``/``update`` leaves the project serving its previous generation
unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.config import Configuration, supports_warm_start
from ..analysis.solution import Solution
from ..analysis.solvers.base import Fixpoint, FixpointCarry, WarmStart
from ..analysis.api import DEFAULT_CONFIGURATION, PointsToResult
from ..driver.cache import ResultCache
from ..link import LinkedProgram, LinkOptions, contain
from ..obs import NULL_REGISTRY, Registry
from ..pipeline import ConstraintsArtifact, Pipeline, SourceArtifact

__all__ = ["Project", "Snapshot"]


@dataclass
class Snapshot:
    """One generation's immutable analysis state.

    Queries answered against a snapshot are stable: a concurrent
    ``update`` produces a *new* snapshot and never mutates this one.
    Member bindings (and the name→variable index) are derived lazily and
    memoised on the snapshot; a binding reads the IR maps its member's
    artifact keeps (:meth:`~repro.pipeline.Pipeline.bind`).
    """

    generation: int
    config: Configuration
    options: LinkOptions
    sources: Tuple[SourceArtifact, ...]
    members: Tuple[ConstraintsArtifact, ...]
    linked: LinkedProgram
    solution: Solution
    _pipeline: Pipeline
    #: the solve's fixpoint beyond the solution, for the next update's
    #: warm start; never cached or persisted
    _fixpoint: Optional[Fixpoint] = None
    _bindings: Dict[str, PointsToResult] = field(default_factory=dict)
    #: the first and the last joint variable of each name
    _vars_by_name: Optional[Tuple[Dict[str, int], Dict[str, int]]] = None
    #: guards the lazy binding/name-index memos — concurrent read-only
    #: query workers share one snapshot and may race to derive them
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # ------------------------------------------------------------------

    def member_names(self) -> List[str]:
        return [src.name for src in self.sources]

    def member(self, name: str) -> ConstraintsArtifact:
        for member in self.members:
            if member.name == name:
                return member
        raise KeyError(name)

    def binding(self, name: str) -> PointsToResult:
        """The (lazily built) value-level view of one member: its
        :class:`~repro.analysis.frontend.ModuleConstraints` bound to the
        joint solution through the linker's member→joint map."""
        with self._lock:
            binding = self._bindings.get(name)
            if binding is None:
                binding = self._bindings[name] = self._pipeline.bind(
                    self.member(name),  # KeyError on unknown members
                    self.solution,
                    self.linked.var_maps[name],
                )
            return binding

    def vars_named(self, name: str) -> List[int]:
        """Joint variable indexes carrying ``name`` (usually 0 or 1).

        The index is two dicts built at C level, the first and the last
        variable of each name; only a name whose two differ scans the
        variables between them.
        """
        names = self.linked.program.var_names
        with self._lock:
            index = self._vars_by_name
            if index is None:
                order = list(range(len(names)))
                # A repeated key keeps its last value: zipping backward
                # finds each name's first variable, forward its last.
                index = self._vars_by_name = (
                    dict(zip(reversed(names), reversed(order))),
                    dict(zip(names, order)),
                )
        first = index[0].get(name)
        if first is None:
            return []
        last = index[1][name]
        if first == last:
            return [first]
        return [v for v in range(first, last + 1) if names[v] == name]

    # ------------------------------------------------------------------

    def named_solution(self) -> Dict:
        """The canonical name-keyed solution (byte-comparable form)."""
        return self.solution.to_named_canonical()

    def omega_pointers(self) -> List[str]:
        """Names of memory-location pointers with Ω in their Sol set."""
        program = self.linked.program
        solution = self.solution
        return sorted(
            program.var_names[p]
            for p in solution.pointers()
            if program.in_m[p] and solution.may_point_to_external(p)
        )

    def imp_funcs(self) -> List[str]:
        """Names of functions still classified ImpFunc after linking."""
        program = self.linked.program
        return sorted(
            program.var_names[v]
            for v in range(program.num_vars)
            if program.flag_impfunc[v]
        )

    def summary(self) -> Dict:
        """Status block: generation, membership and joint sizes."""
        return {
            "generation": self.generation,
            "config": self.config.name,
            "options": self.options.to_dict(),
            "members": self.member_names(),
            "digests": {src.name: src.digest for src in self.sources},
            "link": self.linked.summary(),
        }


class Project:
    """Sources + configuration kept built through the staged pipeline.

    ``cache`` (optional) backs the persistent pipeline stages, so a
    server restarted over known sources rebuilds from disk without
    parsing or solving; ``registry`` receives the pipeline's
    ``pipeline.<stage>.*`` counters — the observable proof that an
    update re-ran exactly the edited members.
    """

    def __init__(
        self,
        config: Optional[Configuration] = None,
        options: Optional[LinkOptions] = None,
        cache: Optional[ResultCache] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.config = config if config is not None else DEFAULT_CONFIGURATION
        self.options = options if options is not None else LinkOptions()
        self.registry = registry if registry is not None else NULL_REGISTRY
        # Served queries bind members across generations: keep their IR.
        self.pipeline = Pipeline(
            cache=cache, registry=self.registry, keep_ir=True
        )
        self.generation = 0
        self._sources: Dict[str, SourceArtifact] = {}
        self._snapshot: Optional[Snapshot] = None
        #: serializes rebuilds: one writer builds generation G+1 while
        #: readers keep answering against the immutable snapshot G (the
        #: commit is a single attribute assignment, atomic under the GIL)
        self._write_lock = threading.RLock()
        #: solves per path, and why the last cold one was cold; its own
        #: lock, so ``status`` never waits for a rebuild
        self._solves: Dict = {"warm": 0, "cold": 0, "last_cold_reason": None}
        self._solves_lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self._snapshot is not None

    @property
    def snapshot(self) -> Snapshot:
        if self._snapshot is None:
            raise RuntimeError("no project open (call open() first)")
        return self._snapshot

    # ------------------------------------------------------------------

    def open(self, files: Mapping[str, str]) -> Snapshot:
        """(Re)build the project from scratch over ``files``.

        ``files`` maps member names to source text; iteration order is
        link order.  Raises frontend/link errors without changing the
        previously served state.
        """
        if not files:
            raise ValueError("cannot open a project with no sources")
        with self._write_lock:
            sources = {
                name: SourceArtifact.of(name, text)
                for name, text in files.items()
            }
            snapshot = self._rebuild(sources, opening=True)
            self._sources = sources
            self._retain_committed()
            return snapshot

    def update(
        self,
        changed: Optional[Mapping[str, str]] = None,
        removed: Sequence[str] = (),
    ) -> Snapshot:
        """Apply an edit set and rebuild incrementally.

        ``changed`` maps member names to their new text (new names are
        appended to the link order); ``removed`` names leave the
        project.  An update that changes nothing still advances the
        generation (the rebuild replays entirely from memos).
        """
        with self._write_lock:
            if self._snapshot is None:
                raise RuntimeError("no project open (call open() first)")
            sources = dict(self._sources)
            for name in removed:
                if name not in sources:
                    raise KeyError(f"cannot remove unknown member {name!r}")
                del sources[name]
            for name, text in (changed or {}).items():
                sources[name] = SourceArtifact.of(name, text)
            if not sources:
                raise ValueError("update would leave the project empty")
            snapshot = self._rebuild(sources, opening=False)
            self._sources = sources
            self._retain_committed()
            return snapshot

    def restore(
        self,
        sources: Sequence[SourceArtifact],
        members: Sequence[ConstraintsArtifact],
        linked: LinkedProgram,
        solution: Solution,
        generation: int,
    ) -> Snapshot:
        """Adopt a previously persisted generation without rebuilding.

        The snapshot-persistence layer (:mod:`repro.serve.state`) calls
        this with fully validated artifacts: the project starts serving
        ``generation`` immediately, and the pipeline memoises the
        members so the first ``update`` is as incremental as it would
        have been in the original process.
        """
        with self._write_lock:
            self.generation = generation
            self._sources = {src.name: src for src in sources}
            self.pipeline.adopt(members)
            self._snapshot = Snapshot(
                generation=generation,
                config=self.config,
                options=self.options,
                sources=tuple(sources),
                members=tuple(members),
                linked=linked,
                solution=solution,
                _pipeline=self.pipeline,
            )
            self._retain_committed()
            return self._snapshot

    # ------------------------------------------------------------------

    def _retain_committed(self) -> None:
        """Prune the pipeline's member memo to the committed snapshot's
        members, so served edits do not pile up old modules and
        constraint programs.  A reader still holding an older snapshot
        holds its members' artifacts, maps included."""
        self.pipeline.retain(
            {(src.name, src.digest) for src in self._snapshot.sources}
        )

    def _carry(
        self,
        opening: bool,
        members: List[ConstraintsArtifact],
        linked: LinkedProgram,
    ) -> Tuple[Optional[FixpointCarry], str]:
        """The fixpoint hand-over for this generation's solve, and the
        reason the solve is cold if it does not start warm."""
        if not supports_warm_start(self.config):
            return None, "configuration"
        carry = FixpointCarry()
        previous = self._snapshot
        if opening or previous is None:
            return carry, "open"
        if previous._fixpoint is None:
            return carry, "no previous fixpoint"
        contained = contain(
            previous.linked,
            {m.name: m.program for m in previous.members},
            linked,
            {m.name: m.program for m in members},
        )
        if contained.var_map is None:
            return carry, contained.miss
        carry.start = WarmStart(
            previous.solution,
            previous._fixpoint,
            contained.var_map,
            contained.queue,
        )
        # Only if the solver finds the previous offline groups split.
        return carry, "not contained"

    def _count_solve(
        self, carry: Optional[FixpointCarry], reason: str
    ) -> None:
        path = "warm" if carry is not None and carry.warm else "cold"
        with self._solves_lock:
            self._solves[path] += 1
            if path == "cold":
                self._solves["last_cold_reason"] = reason
        self.registry.add(f"serve.solve.{path}")

    def solve_counts(self) -> Dict:
        """``{"warm": w, "cold": c, "last_cold_reason": r}``: how many
        solves started from the previous fixpoint, how many did not, and
        why the last cold one was cold (``open``, ``no previous
        fixpoint``, ``configuration``, ``member removed``, ``variable
        map`` or ``not contained``).  A stage-cache hit is no solve."""
        with self._solves_lock:
            return dict(self._solves)

    def _rebuild(
        self, sources: Mapping[str, SourceArtifact], opening: bool
    ) -> Snapshot:
        members = [self.pipeline.constraints(src) for src in sources.values()]
        link_art = self.pipeline.link(members, self.options)
        linked = link_art.linked
        carry, reason = self._carry(opening, members, linked)
        solved = self.pipeline.solve(linked.program, self.config, carry=carry)
        if not solved.from_cache:
            self._count_solve(carry, reason)
        solution = solved.solution
        self.generation += 1
        self.registry.add("serve.generations")
        self._snapshot = Snapshot(
            generation=self.generation,
            config=self.config,
            options=self.options,
            sources=tuple(sources.values()),
            members=tuple(members),
            linked=linked,
            solution=solution,
            _pipeline=self.pipeline,
            _fixpoint=carry.fixpoint if carry is not None else None,
        )
        return self._snapshot

    # ------------------------------------------------------------------

    def stage_report(self, timings: bool = True) -> Dict[str, Dict]:
        """Cumulative pipeline stage counters (see Pipeline)."""
        return self.pipeline.stage_report(timings=timings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            f"generation {self.generation}, {len(self._sources)} members"
            if self._snapshot is not None
            else "closed"
        )
        return f"<Project {state}>"
