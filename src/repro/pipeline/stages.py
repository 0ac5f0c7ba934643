"""Typed stage artifacts and the :class:`Pipeline` orchestrator.

The monolithic ``compile_c`` → ``build_constraints`` → solve path is
split into explicit stages, each producing a content-addressed artifact:

========  ===========================  ==============================
stage     artifact                     cache key hashes
========  ===========================  ==============================
source    :class:`SourceArtifact`      the source text itself
parse     AST translation unit         (in-memory memo by source digest)
lower     :class:`repro.ir.Module`     (in-memory memo by source digest)
constr    :class:`ConstraintsArtifact` source digest + summaries tag
link      :class:`LinkArtifact`        member program digests + options
solve     :class:`SolveArtifact`       program digest + configuration
========  ===========================  ==============================

The ``constraints``, ``link`` and ``solve`` stages persist to the
driver's :class:`~repro.driver.cache.ResultCache` (when one is given)
under the ``stages/`` namespace; ``parse`` and ``lower`` produce live
object graphs (AST/IR) that are cheap relative to their serialised
size, so they are memoised in-process only — a disk hit on the
*constraints* stage means they never run at all, which is exactly how a
configuration-only change skips parsing.

Every stage key embeds a per-stage version string, bumped whenever the
artifact encoding or the producing algorithm changes meaning.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.config import Configuration, prepare_program, solve_prepared
from ..analysis.constraints import ConstraintProgram
from ..analysis.frontend import SummaryFn, build_constraints
from ..analysis.solution import Solution
from ..driver.cache import ResultCache
from ..frontend import analyse, lower, parse, preprocess
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


@dataclass
class ConstraintsArtifact:
    """Phase-1 output of one TU: its constraint program."""

    name: str
    key: str
    program: ConstraintProgram
    #: content hash of the *program* (not the source) — downstream
    #: stages chain on this, so two sources lowering to the same
    #: constraints share link/solve entries
    program_digest: str
    from_cache: bool = False


@dataclass
class LinkArtifact:
    """The joint constraint program of a member set."""

    key: str
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
    memo_hits: int = 0  # in-process memo hits (parse/lower)
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


class _Timed:
    """Context manager accumulating wall time into a stage's stats (and,
    when profiling, mirroring it onto the registry timer ``name``).
    ``lock`` (when given) guards the stats accumulation — the serve
    fleet runs one pipeline from several threads."""

    def __init__(
        self,
        stats: StageStats,
        registry: Registry = NULL_REGISTRY,
        name: str = "",
        lock: Optional[threading.Lock] = None,
    ):
        self.stats = stats
        self.registry = registry
        self.name = name
        self.lock = lock

    def __enter__(self) -> "_Timed":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        if self.lock is not None:
            with self.lock:
                self.stats.seconds += elapsed
        else:
            self.stats.seconds += elapsed
        self.registry.add_time(self.name, elapsed)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


class Pipeline:
    """Orchestrates the staged source→solution path for one process.

    ``cache`` enables the persistent stages; ``summaries`` selects the
    external-function summary registry for constraint building, with
    ``summaries_tag`` naming it inside cache keys (callers passing a
    custom registry must pass a distinct tag, or cache poisoning across
    registries would go unnoticed).
    """

    STAGES = (
        "parse", "lower", "constraints", "import", "link", "solve", "audit"
    )

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        summaries: Optional[Dict[str, SummaryFn]] = None,
        summaries_tag: str = "default",
        registry: Optional[Registry] = None,
    ) -> None:
        if summaries is not None and summaries_tag == "default":
            raise ValueError(
                "custom summaries require a distinct summaries_tag"
            )
        self.cache = cache
        self.summaries = summaries
        self.summaries_tag = summaries_tag
        #: obs registry mirrored by every stage counter/timer under
        #: ``pipeline.<stage>.*`` (the disabled NULL_REGISTRY by default,
        #: so unprofiled pipelines never touch dict machinery)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.stats: Dict[str, StageStats] = {
            stage: StageStats() for stage in self.STAGES
        }
        # Memo keys include the TU *name*: two identical sources under
        # different names are still distinct modules (and must carry
        # their own names into linker diagnostics).
        self._units: Dict[tuple, object] = {}  # (name, digest) → AST unit
        self._modules: Dict[tuple, Module] = {}  # (name, digest) → Module
        # Guards the memos and stage stats: the serve fleet derives
        # member bindings on reader threads while the writer rebuilds
        # the next generation through the same pipeline.  Stage *work*
        # runs outside the lock — two threads racing to the same memo
        # entry recompute a deterministic value, never corrupt state.
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

    def _timed(self, stage: str) -> _Timed:
        return _Timed(
            self.stats[stage], self.registry, f"pipeline.{stage}", self._lock
        )

    # ------------------------------------------------------------------

    def source(self, name: str, text: str) -> SourceArtifact:
        return SourceArtifact.of(name, text)

    def parse(self, src: SourceArtifact):
        """Source → AST translation unit (in-memory memo)."""
        unit = self._units.get((src.name, src.digest))
        if unit is not None:
            self._bump("parse", "memo_hits")
            return unit
        with self._timed("parse"):
            text = preprocess(src.text, filename=src.name)
            unit = parse(text, src.name)
        self._bump("parse", "runs")
        self._units[(src.name, src.digest)] = unit
        return unit

    def lower(self, src: SourceArtifact) -> Module:
        """AST translation unit → verified ir.Module (in-memory memo)."""
        module = self._modules.get((src.name, src.digest))
        if module is not None:
            self._bump("lower", "memo_hits")
            return module
        unit = self.parse(src)
        with self._timed("lower"):
            module = lower(analyse(unit), src.name)
            verify_module(module)
            compute_address_taken(module)
        self._bump("lower", "runs")
        self._modules[(src.name, src.digest)] = module
        return module

    def constraints(self, src: SourceArtifact) -> ConstraintsArtifact:
        """ir.Module → constraint program (persistent stage).

        A disk hit rebuilds the program from its canonical dict without
        ever parsing the source — the stage that makes configuration
        changes and N−1 unchanged files cheap.
        """
        key = _key("constraints", src.digest, self.summaries_tag)
        if self.cache is not None:
            hit = self.cache.load_stage("constraints", key, _decode_program)
            if hit is not None:
                self._bump("constraints", "hits")
                program, digest = hit
                if program.name != src.name:
                    # Entry written for an identical source under a
                    # different name: re-label (the program name feeds
                    # linker diagnostics) and re-digest.
                    program.name = src.name
                    digest = program.digest()
                return ConstraintsArtifact(
                    src.name, key, program, digest, from_cache=True
                )
            self._bump("constraints", "misses")
        module = self.lower(src)
        with self._timed("constraints"):
            program = build_constraints(module, self.summaries).program
            digest = program.digest()
        self._bump("constraints", "runs")
        if self.cache is not None:
            self.cache.store_stage(
                "constraints",
                key,
                {"program": program.to_dict(), "digest": digest},
            )
        return ConstraintsArtifact(src.name, key, program, digest)

    def constraints_from_text(
        self, src: SourceArtifact
    ) -> ConstraintsArtifact:
        """Constraint-text source → constraint program (persistent stage).

        The interchange front door: ``src.text`` is LIR constraint text
        (:mod:`repro.interchange`), content-addressed and cached exactly
        like a C translation unit's constraints — the resulting artifact
        feeds :meth:`link` and :meth:`solve` unchanged.
        """
        key = _key("import", src.digest)
        if self.cache is not None:
            hit = self.cache.load_stage("import", key, _decode_program)
            if hit is not None:
                self._bump("import", "hits")
                program, digest = hit
                return ConstraintsArtifact(
                    src.name, key, program, digest, from_cache=True
                )
            self._bump("import", "misses")
        from ..interchange import parse_constraint_text

        with self._timed("import"):
            program = parse_constraint_text(src.text, src.name)
            digest = program.digest()
        self._bump("import", "runs")
        if self.cache is not None:
            self.cache.store_stage(
                "import",
                key,
                {"program": program.to_dict(), "digest": digest},
            )
        return ConstraintsArtifact(src.name, key, program, digest)

    def link(
        self,
        members: Sequence[ConstraintsArtifact],
        options: Optional[LinkOptions] = None,
    ) -> LinkArtifact:
        """Constraint programs → joint linked program (persistent stage)."""
        options = options if options is not None else LinkOptions()
        key = _key(
            "link",
            options.cache_key,
            *[f"{m.name}:{m.program_digest}" for m in members],
        )
        if self.cache is not None:
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
        if self.cache is not None:
            self.cache.store_stage("link", key, linked.to_dict())
        return LinkArtifact(key, linked)

    def solve(
        self,
        program: ConstraintProgram,
        config: Configuration,
        program_digest: Optional[str] = None,
    ) -> SolveArtifact:
        """Constraint program → solution (persistent stage).

        The solution stays live: it is encoded only to store a cache
        entry and decoded only from a cache hit.  The stage key, and
        with it the program digest, is computed only when a cache is
        attached.
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
            solution = solve_prepared(prepare_program(program, config), config)
        self._bump("solve", "runs")
        if solution.program is not program:
            # EP solves an Ω-lowered copy: answer against the caller's
            # program, as a decoded cache entry does.
            solution = solution.rebase(program)
        record_solver_stats(self.registry, solution.stats.to_dict())
        if key is not None:
            self.cache.store_stage(
                "solve", key, {"solution": solution.to_canonical_dict()}
            )
        return SolveArtifact(config.name, solution)

    def audit(
        self,
        context,
        client: str,
        params: Optional[Dict] = None,
        solution_digest: Optional[str] = None,
    ) -> "AuditArtifact":
        """Audit context → canonical client report (persistent stage).

        Keyed on (solution digest, client, canonical params): the
        parameter normalisation is the same shared helper every other
        audit surface uses, so an omitted default and an explicit one
        hit the same cache entry.  A disk hit returns the stored report
        bytes without touching the solution (or the frontend, for
        IR-tier clients).
        """
        from ..audit import canonical_json, normalize_client_params, run_audit

        normalized = normalize_client_params(client, params)
        digest = (
            solution_digest
            if solution_digest is not None
            else context.solution.named_canonical_digest()
        )
        key = _key("audit", digest, client, canonical_json(normalized))
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
