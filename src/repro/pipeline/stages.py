"""Typed stage artifacts and the :class:`Pipeline` orchestrator.

The monolithic ``compile_c`` → ``build_constraints`` → solve path is
split into explicit stages, each producing a content-addressed artifact:

========  ===========================  ==============================
stage     artifact                     cache key hashes
========  ===========================  ==============================
source    :class:`SourceArtifact`      the source text itself
parse     AST translation unit         (not kept: each lower parses afresh)
lower     :class:`repro.ir.Module`     (not kept: held by its member
                                       when the pipeline keeps IR)
constr    :class:`ConstraintsArtifact` source digest (:func:`constraints_key`)
link      :class:`LinkArtifact`        member program digests + options
solve     :class:`SolveArtifact`       program digest + configuration
========  ===========================  ==============================

The ``constraints``, ``link`` and ``solve`` stages persist to the
driver's :class:`~repro.driver.cache.ResultCache` (when one is given)
under the ``stages/`` namespace; ``parse`` and ``lower`` produce live
object graphs (AST/IR) that are cheap relative to their serialised
size, so they are never stored — a disk hit on the *constraints* stage
means they never run at all, which is exactly how a configuration-only
change skips parsing.  In-process, the pipeline keeps one memo: each
member's :class:`ConstraintsArtifact`, and, in a pipeline made with
``keep_ir``, the IR maps its build made (:meth:`Pipeline.bind` reads
them).

Every stage key embeds a per-stage version string, bumped whenever the
artifact encoding or the producing algorithm changes meaning.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterator, Optional, Sequence, Tuple

from ..analysis.api import PointsToResult
from ..analysis.config import Configuration, prepare_program, solve_prepared
from ..analysis.constraints import ConstraintProgram
from ..analysis.frontend import ModuleConstraints, build_constraints
from ..analysis.solution import Solution
from ..analysis.solvers.base import FixpointCarry
from ..driver.cache import ResultCache
from ..frontend import FRONTEND_ERRORS, analyse, lower, parse, preprocess
from ..gcpause import paused
from ..ir.module import Module
from ..ir.verifier import compute_address_taken, verify_module
from ..link import LinkedProgram, LinkOptions, link_programs
from ..obs import (
    NULL_REGISTRY,
    Registry,
    record_peak_rss,
    record_solver_stats,
)

#: per-stage artifact-encoding versions; bumping one invalidates exactly
#: that stage's cache entries (and, through key chaining, downstream ones)
STAGE_VERSIONS = {
    # 2: ConstraintProgram.to_dict became construction-order canonical
    # (load_from/store_into/funcs/calls emitted sorted) — old payloads
    # decode fine but would hash to different program digests
    "constraints": "2",
    # constraint-text sources (repro.interchange) → constraint program
    "import": "1",
    # 2: joint symbol table keeps the most specific type_key for
    # unresolved symbols (staged-merge diagnostics)
    "link": "2",
    # 2: solution stats gained pair_evals
    # 3: reduce configuration axis; stats gained reduce_*/memo_* fields
    "solve": "3",
    # audit-client reports over a solved program, keyed on (solution
    # digest, client, canonical params)
    "audit": "1",
}


def _key(stage: str, *parts: str) -> str:
    raw = "|".join((stage, STAGE_VERSIONS[stage]) + parts)
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def constraints_key(source_digest: str) -> str:
    """The ``constraints`` stage key of a C source.

    ``"default"`` named the summary registry when the stage could take
    another; it stays in the key so every existing entry keeps it.
    """
    return _key("constraints", source_digest, "default")


@contextmanager
def _attributed(src: "SourceArtifact") -> Iterator[None]:
    """Name ``src`` on a frontend error, for ``file:line`` diagnostics
    (the parser and sema know only line numbers)."""
    try:
        yield
    except FRONTEND_ERRORS as exc:
        if getattr(exc, "source_name", None) is None:
            exc.source_name = src.name
        raise


def _decode_program(payload: Dict) -> Tuple[ConstraintProgram, str]:
    """A ``constraints``/``import`` stage payload → (program, digest)."""
    digest = payload["digest"]
    if not isinstance(digest, str):
        raise ValueError("program digest is not a string")
    return ConstraintProgram.from_dict(payload["program"]), digest


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SourceArtifact:
    """One translation unit's text, content-addressed."""

    name: str
    text: str
    digest: str

    @classmethod
    def of(cls, name: str, text: str) -> "SourceArtifact":
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return cls(name, text, digest)


class ConstraintsArtifact:
    """Phase-1 output of one TU: its constraint program.

    :attr:`program_digest` is the content hash of the *program* (not
    the source): downstream stage keys chain on it, so two sources
    lowering to the same constraints share link/solve entries.  Only
    cache keys, the rebuilt-binding check and ``--state-dir`` read it,
    so it is computed on first read (or taken from a cache entry) and
    then kept.

    :attr:`built` is the :class:`~repro.analysis.frontend.
    ModuleConstraints` the program was built from, with its IR ↔
    variable maps, when the pipeline keeps IR (``keep_ir``).  It is
    None otherwise, and for a disk-cache hit, a ``.lir`` import and a
    restored member; :meth:`Pipeline.bind` rebuilds it for a C member.
    """

    __slots__ = (
        "source", "key", "program", "_program_digest", "from_cache", "built"
    )

    def __init__(
        self,
        source: SourceArtifact,
        key: str,
        program: ConstraintProgram,
        program_digest: Optional[str] = None,
        from_cache: bool = False,
        built: Optional[ModuleConstraints] = None,
    ) -> None:
        self.source = source
        self.key = key
        self.program = program
        self._program_digest = program_digest
        self.from_cache = from_cache
        self.built = built

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def program_digest(self) -> str:
        digest = self._program_digest
        if digest is None:
            # Two readers racing here compute the same value.
            digest = self._program_digest = self.program.digest()
        return digest


@dataclass
class LinkArtifact:
    """The joint constraint program of a member set."""

    #: the stage cache key; None when no cache is attached
    key: Optional[str]
    linked: LinkedProgram
    from_cache: bool = False


@dataclass
class AuditArtifact:
    """One audit client's canonical report over a solved program."""

    key: str
    client: str
    report: Dict  # Report.to_canonical_dict() form
    from_cache: bool = False


@dataclass
class SolveArtifact:
    """The solution of one (program, configuration) pair."""

    config_name: str
    #: the live solution, answering against the solved program
    solution: Solution
    from_cache: bool = False


# ----------------------------------------------------------------------
# Stage accounting
# ----------------------------------------------------------------------


@dataclass
class StageStats:
    """One stage's execution/caching accounting for a pipeline run."""

    runs: int = 0  # times the stage actually did its work
    hits: int = 0  # disk-cache hits (persistent stages only)
    misses: int = 0
    memo_hits: int = 0  # in-process member memo hits (constraints, import)
    seconds: float = 0.0

    def to_dict(self, timings: bool = True) -> Dict:
        out: Dict = {
            "runs": self.runs,
            "hits": self.hits,
            "misses": self.misses,
            "memo_hits": self.memo_hits,
        }
        if timings:
            out["seconds"] = round(self.seconds, 6)
        return out


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


class Pipeline:
    """Orchestrates the staged source→solution path for one process.

    ``cache`` enables the persistent stages.  ``keep_ir`` keeps each C
    member's IR and IR ↔ variable maps on its artifact (``built``) for
    :meth:`bind`.  Only a caller that binds members needs it, and only
    the caller knows whether it will: the served project and an IR-tier
    audit set it.  Without it (a batch link, a constraint-tier audit, an
    export) each member's IR dies inside its build.
    """

    STAGES = (
        "parse", "lower", "constraints", "import", "link", "solve", "audit"
    )

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        registry: Optional[Registry] = None,
        keep_ir: bool = False,
    ) -> None:
        self.cache = cache
        self.keep_ir = keep_ir
        #: obs registry mirrored by every stage counter/timer under
        #: ``pipeline.<stage>.*`` (the disabled NULL_REGISTRY by default,
        #: so unprofiled pipelines never touch dict machinery)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.stats: Dict[str, StageStats] = {
            stage: StageStats() for stage in self.STAGES
        }
        # The member memo: (name, digest) → ConstraintsArtifact.  Keys
        # include the TU *name*: two identical sources under different
        # names are still distinct modules (and must carry their own
        # names into linker diagnostics).
        self._members: Dict[Tuple[str, str], ConstraintsArtifact] = {}
        # Guards the memo and stage stats: the serve fleet binds members
        # on reader threads while the writer rebuilds the next
        # generation through the same pipeline.  Stage *work* runs
        # outside the lock — two threads racing to the same memo entry
        # compute a deterministic value, never corrupt state.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def _bump(self, stage: str, counter: str, n: int = 1) -> None:
        """Increment one StageStats field and its registry mirror."""
        with self._lock:
            stats = self.stats[stage]
            setattr(stats, counter, getattr(stats, counter) + n)
        self.registry.add(f"pipeline.{stage}.{counter}", n)
        # Every stage boundary samples the process high-water mark; the
        # gauge's max-merge makes the sample count irrelevant.
        record_peak_rss(self.registry)

    @contextmanager
    def _timed(self, stage: str) -> Iterator[None]:
        """Run one stage's work under the collector pause
        (:mod:`repro.gcpause`; inside a member build's window it nests),
        adding its wall time to the stage's stats and, when profiling,
        to the registry timer ``pipeline.<stage>``.  The stats lock
        guards the accumulation: the serve fleet runs one pipeline from
        several threads."""
        t0 = time.perf_counter()
        try:
            with paused():
                yield
        finally:
            elapsed = time.perf_counter() - t0
            with self._lock:
                self.stats[stage].seconds += elapsed
            self.registry.add_time(f"pipeline.{stage}", elapsed)

    # ------------------------------------------------------------------

    def source(self, name: str, text: str) -> SourceArtifact:
        return SourceArtifact.of(name, text)

    def parse(self, src: SourceArtifact):
        """Source → AST translation unit.

        Not memoised: semantic analysis annotates the AST in place, so
        every :meth:`lower` gets a fresh one, and two threads lowering
        one unit never share it.
        """
        with self._timed("parse"):
            text = preprocess(src.text, filename=src.name)
            unit = parse(text, src.name)
        self._bump("parse", "runs")
        return unit

    def lower(self, src: SourceArtifact) -> Module:
        """AST translation unit → verified ir.Module."""
        unit = self.parse(src)
        with self._timed("lower"):
            module = lower(analyse(unit), src.name)
            verify_module(module)
            compute_address_taken(module)
        self._bump("lower", "runs")
        return module

    def _recall(
        self, stage: str, src: SourceArtifact
    ) -> Optional[ConstraintsArtifact]:
        """``src``'s memoised artifact, counted as a ``stage`` memo hit."""
        with self._lock:
            artifact = self._members.get((src.name, src.digest))
        if artifact is not None:
            self._bump(stage, "memo_hits")
        return artifact

    def _remember(self, artifact: ConstraintsArtifact) -> ConstraintsArtifact:
        with self._lock:
            self._members[(artifact.name, artifact.source.digest)] = artifact
        return artifact

    def adopt(self, members: Sequence[ConstraintsArtifact]) -> None:
        """Memoise artifacts built elsewhere (a restored generation's
        members), so a later :meth:`constraints` of their sources hits."""
        for member in members:
            self._remember(member)

    def retain(self, keys: AbstractSet[Tuple[str, str]]) -> None:
        """Drop every member memo entry whose (name, digest) key is not
        in ``keys``; a later :meth:`constraints` of a dropped member
        builds it again (or loads it from the disk cache)."""
        with self._lock:
            for key in [key for key in self._members if key not in keys]:
                del self._members[key]

    def _build(
        self, src: SourceArtifact, keep_ir: bool
    ) -> Tuple[ConstraintProgram, Optional[ModuleConstraints]]:
        """Lower ``src`` and build its constraints: the program, and with
        ``keep_ir`` the :class:`ModuleConstraints` holding its IR maps.

        Parse, lower and constraints run in one collector window, with
        no stage-exit collection between them.  Without ``keep_ir`` the
        IR is unreachable before the window closes, so the young pass
        that follows it frees the cyclic IR while it is still young
        (internals §9, "The cyclic collector").
        """
        with paused():
            with _attributed(src):
                module = self.lower(src)
            with self._timed("constraints"):
                built = build_constraints(module)
            del module
            program = built.program
            if not keep_ir:
                built = None
        self._bump("constraints", "runs")
        return program, built

    def constraints(self, src: SourceArtifact) -> ConstraintsArtifact:
        """ir.Module → constraint program (memoised, persistent stage).

        A disk hit rebuilds the program from its canonical dict without
        ever parsing the source — the stage that makes configuration
        changes and N−1 unchanged files cheap.
        """
        artifact = self._recall("constraints", src)
        if artifact is not None:
            return artifact
        key = constraints_key(src.digest)
        if self.cache is not None:
            hit = self.cache.load_stage("constraints", key, _decode_program)
            if hit is not None:
                self._bump("constraints", "hits")
                program, digest = hit
                if program.name != src.name:
                    # Entry written for an identical source under a
                    # different name: re-label (the program name feeds
                    # linker diagnostics); its digest is recomputed
                    # when read.
                    program.name = src.name
                    digest = None
                return self._remember(
                    ConstraintsArtifact(
                        src, key, program, digest, from_cache=True
                    )
                )
            self._bump("constraints", "misses")
        program, built = self._build(src, self.keep_ir)
        artifact = ConstraintsArtifact(src, key, program, built=built)
        if self.cache is not None:
            self.cache.store_stage(
                "constraints",
                key,
                {
                    "program": program.to_dict(),
                    "digest": artifact.program_digest,
                },
            )
        return self._remember(artifact)

    def constraints_from_text(
        self, src: SourceArtifact
    ) -> ConstraintsArtifact:
        """Constraint-text source → constraint program (memoised,
        persistent stage).

        The interchange front door: ``src.text`` is LIR constraint text
        (:mod:`repro.interchange`), content-addressed and cached exactly
        like a C translation unit's constraints — the resulting artifact
        feeds :meth:`link` and :meth:`solve` unchanged.
        """
        artifact = self._recall("import", src)
        if artifact is not None:
            return artifact
        key = _key("import", src.digest)
        if self.cache is not None:
            hit = self.cache.load_stage("import", key, _decode_program)
            if hit is not None:
                self._bump("import", "hits")
                program, digest = hit
                return self._remember(
                    ConstraintsArtifact(
                        src, key, program, digest, from_cache=True
                    )
                )
            self._bump("import", "misses")
        from ..interchange import parse_constraint_text

        with _attributed(src), self._timed("import"):
            program = parse_constraint_text(src.text, src.name)
        self._bump("import", "runs")
        artifact = ConstraintsArtifact(src, key, program)
        if self.cache is not None:
            self.cache.store_stage(
                "import",
                key,
                {
                    "program": program.to_dict(),
                    "digest": artifact.program_digest,
                },
            )
        return self._remember(artifact)

    def bind(
        self,
        member: ConstraintsArtifact,
        solution: Solution,
        mapping: Sequence[int],
    ) -> PointsToResult:
        """One C member's IR-level view of ``solution``, through the
        linker's member→joint ``mapping``.

        Reads the IR maps kept on ``member``.  A member without them (a
        disk-cache hit, a restored member, or any member of a pipeline
        that does not keep IR) is lowered and built once more, and the
        rebuilt program must be the one that was linked; the maps then
        stay on the artifact for every later binding.
        """
        built = member.built
        if built is None:
            program, built = self._build(member.source, keep_ir=True)
            if program.digest() != member.program_digest:
                raise RuntimeError(
                    "non-deterministic constraint build for member"
                    f" {member.name!r}"
                )
            # Two readers racing here build and store equal values.
            member.built = built
        return PointsToResult(built, solution, mapping)

    def link(
        self,
        members: Sequence[ConstraintsArtifact],
        options: Optional[LinkOptions] = None,
    ) -> LinkArtifact:
        """Constraint programs → joint linked program (persistent stage).

        As in :meth:`solve`, the stage key, and with it every member's
        program digest, is computed only when a cache is attached.
        """
        options = options if options is not None else LinkOptions()
        key = None
        if self.cache is not None:
            key = _key(
                "link",
                options.cache_key,
                *[f"{m.name}:{m.program_digest}" for m in members],
            )
            linked = self.cache.load_stage(
                "link", key, LinkedProgram.from_dict
            )
            if linked is not None:
                self._bump("link", "hits")
                return LinkArtifact(key, linked, from_cache=True)
            self._bump("link", "misses")
        with self._timed("link"):
            linked = link_programs(
                [m.program for m in members],
                options,
                registry=self.registry,
            )
        self._bump("link", "runs")
        if key is not None:
            self.cache.store_stage("link", key, linked.to_dict())
        return LinkArtifact(key, linked)

    def solve(
        self,
        program: ConstraintProgram,
        config: Configuration,
        program_digest: Optional[str] = None,
        carry: Optional[FixpointCarry] = None,
    ) -> SolveArtifact:
        """Constraint program → solution (persistent stage).

        The solution stays live: it is encoded only to store a cache
        entry and decoded only from a cache hit.  The stage key, and
        with it the program digest, is computed only when a cache is
        attached.

        ``carry`` is the served project's fixpoint hand-over (see
        :func:`~repro.analysis.config.solve_prepared`).  The cache
        lookup still comes first, and a hit leaves ``carry`` untouched.
        A warm-started solution is not stored: its stats count the warm
        solve's own work, not the content-addressed solve's.
        """
        key = None
        if self.cache is not None:
            if program_digest is None:
                program_digest = program.digest()
            key = _key("solve", program_digest, config.cache_key)
            solution = self.cache.load_stage(
                "solve",
                key,
                lambda payload: Solution.from_canonical_dict(
                    payload["solution"], program
                ),
            )
            if solution is not None:
                self._bump("solve", "hits")
                record_solver_stats(self.registry, solution.stats.to_dict())
                return SolveArtifact(config.name, solution, from_cache=True)
            self._bump("solve", "misses")
        with self._timed("solve"):
            solution = solve_prepared(
                prepare_program(program, config), config, carry
            )
        self._bump("solve", "runs")
        if solution.program is not program:
            # EP solves an Ω-lowered copy: answer against the caller's
            # program, as a decoded cache entry does.
            solution = solution.rebase(program)
        record_solver_stats(self.registry, solution.stats.to_dict())
        if key is not None and not (carry is not None and carry.warm):
            self.cache.store_stage(
                "solve", key, {"solution": solution.to_canonical_dict()}
            )
        return SolveArtifact(config.name, solution)

    def audit(
        self,
        context,
        client: str,
        params: Optional[Dict] = None,
    ) -> "AuditArtifact":
        """Audit context → canonical client report (persistent stage).

        Keyed on (solution digest, client, canonical params): the
        parameter normalisation is the same shared helper every other
        audit surface uses, so an omitted default and an explicit one
        hit the same cache entry.  The digest is the context's, which
        the report then reuses.  A disk hit returns the stored report
        bytes without touching the solution (or the frontend, for
        IR-tier clients).
        """
        from ..audit import canonical_json, normalize_client_params, run_audit

        normalized = normalize_client_params(client, params)
        key = _key(
            "audit", context.solution_digest, client, canonical_json(normalized)
        )
        if self.cache is not None:
            payload = self.cache.load_stage("audit", key)
            if payload is not None:
                self._bump("audit", "hits")
                return AuditArtifact(
                    key, client, payload["report"], from_cache=True
                )
            self._bump("audit", "misses")
        with self._timed("audit"):
            report = run_audit(
                context, client, normalized, registry=self.registry
            ).to_canonical_dict()
        self._bump("audit", "runs")
        if self.cache is not None:
            self.cache.store_stage("audit", key, {"report": report})
        return AuditArtifact(key, client, report)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def analyze_source(
        self, name: str, text: str, config: Configuration
    ) -> SolveArtifact:
        """Single-file source → solution through all stages."""
        art = self.constraints(self.source(name, text))
        return self.solve(art.program, config, art.program_digest)

    def link_sources(
        self,
        sources: Sequence[SourceArtifact],
        options: Optional[LinkOptions] = None,
    ) -> LinkArtifact:
        """Sources → linked joint program through all stages."""
        members = [self.constraints(src) for src in sources]
        return self.link(members, options)

    # ------------------------------------------------------------------

    def stage_report(self, timings: bool = True) -> Dict[str, Dict]:
        """Per-stage run/hit counters (and wall time unless excluded —
        canonical cold/warm-comparable reports must exclude timings)."""
        return {
            stage: self.stats[stage].to_dict(timings=timings)
            for stage in self.STAGES
        }
