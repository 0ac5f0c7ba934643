"""Building audit contexts outside serve (CLI / pipeline callers).

Serve snapshots carry lazily-derived member bindings already
(:meth:`repro.audit.base.AuditContext.from_snapshot`); the CLI path
assembles the same shape from pipeline artifacts.  C members get an
IR-tier binding; constraint-text (``.lir``) members have no IR behind
them and simply do not appear in the binding map — constraint-tier
clients still cover them through the joint program.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.solution import Solution
from ..link import LinkedProgram
from ..pipeline import ConstraintsArtifact, Pipeline
from .base import AuditContext

__all__ = ["build_audit_context"]


def build_audit_context(
    pipeline: Pipeline,
    ir_members: Sequence[ConstraintsArtifact],
    linked: LinkedProgram,
    solution: Solution,
) -> AuditContext:
    """Audit context over a linked+solved program.

    ``ir_members`` are the artifacts of the *C* members only (callers
    route ``.lir`` members around this list).  Bindings are derived
    lazily, from the IR maps each artifact keeps
    (:meth:`~repro.pipeline.Pipeline.bind`) — pure constraint-tier
    clients never touch them.
    """
    return AuditContext(
        linked.program,
        solution,
        loader=lambda: {
            member.name: pipeline.bind(
                member, solution, linked.var_maps[member.name]
            )
            for member in ir_members
        },
    )
