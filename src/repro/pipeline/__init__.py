"""The staged analysis pipeline with stage-granular caching.

``Source → TranslationUnit → ir.Module → ConstraintProgram →
LinkedProgram → Solution``: each stage artifact is content-addressed, so
the driver's :class:`~repro.driver.cache.ResultCache` can hit at *stage*
granularity — a configuration change re-solves without re-parsing, and a
one-file edit in an N-file program relinks without rebuilding the other
N−1 constraint programs.
"""

from .stages import (
    AuditArtifact,
    ConstraintsArtifact,
    LinkArtifact,
    Pipeline,
    SolveArtifact,
    SourceArtifact,
    StageStats,
    constraints_key,
)

__all__ = [
    "AuditArtifact",
    "ConstraintsArtifact",
    "LinkArtifact",
    "Pipeline",
    "SolveArtifact",
    "SourceArtifact",
    "StageStats",
    "constraints_key",
]
