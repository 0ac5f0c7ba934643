"""Deterministic, severity-ranked findings with evidence chains.

Every audit client returns :class:`Finding` records; a :class:`Report`
collects them with the run's identity (client, normalised params,
program name and solution digest) into a canonically serialisable form.
Canonical means *byte-identical across processes, job counts and cache
state*: no timestamps, no object ids, keys sorted, findings sorted by
``(severity rank, kind, subject, message)``, and each finding stamped
with a content-derived id — the golden fixtures in
``tests/audit/fixtures`` lock these bytes.

An :class:`Evidence` entry is one fact justifying the finding: a
points-to membership, a modref conflict, a call edge, a free site or an
oracle verdict.  ``subjects`` names the entities the fact mentions so
downstream tooling can link back into the solution without parsing
``detail`` prose.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .params import canonical_json

__all__ = [
    "Evidence",
    "Finding",
    "Report",
    "SEVERITIES",
    "render_report_evidence",
    "render_report_table",
]

#: finding severities, most severe first (the canonical sort order)
SEVERITIES = ("high", "medium", "low", "info")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: evidence kinds (open set; these are the ones the built-in clients use)
EVIDENCE_KINDS = (
    "points-to",
    "escape",
    "modref",
    "call-edge",
    "free-site",
    "alias",
    "scope",
)


@dataclass(frozen=True)
class Evidence:
    """One fact in a finding's justification chain."""

    kind: str
    detail: str
    subjects: Tuple[str, ...] = ()

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "subjects": list(self.subjects),
        }


@dataclass(frozen=True)
class Finding:
    """One deterministic audit finding.

    ``may_must`` records the soundness direction: ``may`` findings are
    candidates (the analysis cannot rule the behaviour out), ``must``
    findings hold on every execution reaching the program point.
    ``unbounded`` marks findings inflated by Ω/ImpFunc — the unknown
    external world, not a concrete in-program fact.
    """

    client: str
    kind: str
    severity: str
    subject: str
    message: str
    may_must: str = "may"
    unbounded: bool = False
    evidence: Tuple[Evidence, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"bad severity {self.severity!r} (choose from {SEVERITIES})"
            )
        if self.may_must not in ("may", "must"):
            raise ValueError(f"bad may_must {self.may_must!r}")

    @property
    def sort_key(self) -> Tuple:
        return (
            _SEVERITY_RANK[self.severity],
            self.kind,
            self.subject,
            self.message,
        )

    def _core_dict(self) -> Dict:
        return {
            "client": self.client,
            "kind": self.kind,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "may_must": self.may_must,
            "unbounded": self.unbounded,
            "evidence": [e.to_dict() for e in self.evidence],
        }

    @property
    def id(self) -> str:
        """Content-derived identity: stable across runs and machines."""
        raw = canonical_json(self._core_dict())
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]

    def to_dict(self) -> Dict:
        out = {"id": self.id}
        out.update(self._core_dict())
        return out


@dataclass
class Report:
    """A canonically serialisable audit run result."""

    client: str
    params: Dict
    #: the joint program's *name* — the solution digest is the content
    #: identity; the program digest is link-topology-dependent (a staged
    #: re-link numbers joint variables differently from one flat link)
    program_name: str
    solution_digest: str
    findings: Tuple[Finding, ...] = ()

    def __post_init__(self) -> None:
        # Dedup (clients may derive one fact along several paths), then
        # impose the canonical order.
        self.findings = tuple(
            sorted(dict.fromkeys(self.findings), key=lambda f: f.sort_key)
        )

    # ------------------------------------------------------------------

    def counts(self) -> Dict:
        by_severity = {name: 0 for name in SEVERITIES}
        by_kind: Dict[str, int] = {}
        for finding in self.findings:
            by_severity[finding.severity] += 1
            by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
        return {
            "total": len(self.findings),
            "unbounded": sum(1 for f in self.findings if f.unbounded),
            "by_severity": by_severity,
            "by_kind": dict(sorted(by_kind.items())),
        }

    def to_canonical_dict(self) -> Dict:
        return {
            "schema": 1,
            "client": self.client,
            "params": self.params,
            "program": self.program_name,
            "solution": self.solution_digest,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        """Pretty canonical JSON (the ``--out`` / golden-fixture form)."""
        return (
            json.dumps(self.to_canonical_dict(), indent=2, sort_keys=True)
            + "\n"
        )

    def digest(self) -> str:
        raw = canonical_json(self.to_canonical_dict())
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------

    def render_table(self) -> str:
        """Human-readable table (the default CLI rendering)."""
        return render_report_table(self.to_canonical_dict())


def render_report_table(report: Dict) -> str:
    """Human-readable table over a canonical report dict.

    Operating on the dict (not :class:`Report`) lets cached pipeline
    payloads render without rehydrating finding objects.
    """
    counts = report["counts"]
    header = (
        f"audit {report['client']}: {counts['total']} finding(s)"
        f" ({counts['unbounded']} unbounded),"
        f" solution {report['solution'][:12]}"
    )
    findings = report["findings"]
    if not findings:
        return header + "\n"
    rows = [
        (
            f["severity"],
            f["kind"],
            f["may_must"] + ("+Ω" if f["unbounded"] else ""),
            f["subject"],
            f["message"],
        )
        for f in findings
    ]
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = [header, ""]
    for row in rows:
        lines.append(
            "  ".join(
                [row[col].ljust(widths[col]) for col in range(4)] + [row[4]]
            )
        )
    return "\n".join(lines) + "\n"


def render_report_evidence(report: Dict) -> str:
    """Indented evidence chains (the CLI's ``--evidence`` rendering)."""
    lines: List[str] = []
    for finding in report["findings"]:
        lines.append(
            f"{finding['id']} {finding['subject']}: {finding['message']}"
        )
        for ev in finding["evidence"]:
            lines.append(f"    [{ev['kind']}] {ev['detail']}")
    return "\n".join(lines) + ("\n" if lines else "")
