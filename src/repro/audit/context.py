"""Building audit contexts outside serve (CLI / pipeline callers).

Serve snapshots carry lazily-derived member bindings already
(:meth:`repro.audit.base.AuditContext.from_snapshot`); the CLI path
assembles the same shape from pipeline artifacts.  C members get an
IR-tier binding; constraint-text (``.lir``) members have no IR behind
them and simply do not appear in the binding map — constraint-tier
clients still cover them through the joint program.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis.api import PointsToResult
from ..analysis.frontend import SummaryFn, build_constraints
from ..analysis.solution import Solution
from ..link import LinkedProgram
from ..pipeline import Pipeline, SourceArtifact
from .base import AuditContext

__all__ = ["build_audit_context"]


def build_audit_context(
    pipeline: Pipeline,
    ir_sources: Sequence[SourceArtifact],
    linked: LinkedProgram,
    solution: Solution,
    summaries: Optional[Dict[str, SummaryFn]] = None,
) -> AuditContext:
    """Audit context over a linked+solved program.

    ``ir_sources`` are the *C* members only (callers route ``.lir``
    members around this list).  Bindings are derived lazily — pure
    constraint-tier clients never pay for re-lowering.
    """

    def load() -> Dict[str, PointsToResult]:
        members: Dict[str, PointsToResult] = {}
        for src in ir_sources:
            module = pipeline.lower(src)
            built = build_constraints(
                module, summaries if summaries is not None else pipeline.summaries
            )
            members[src.name] = PointsToResult(
                built, solution, linked.var_maps[src.name]
            )
        return members

    return AuditContext(linked.program, solution, loader=load)
