"""The audit client framework: contexts, the client base, the runner.

An :class:`AuditContext` carries the two tiers an audit client can
consume:

- the **constraint tier** — the (joint) :class:`ConstraintProgram` and
  its canonical :class:`Solution` — always present, whether the program
  came from the C frontend or from imported LIR constraint text; and
- the **IR tier** — per-member value-level views
  (:class:`repro.analysis.api.PointsToResult`, each bound to the joint
  solution through its member's local→joint ``mapping``) — present
  only for members with IR behind them.

Constraint-tier clients (``escape``, ``calls``) run everywhere,
including over ``.lir`` imports; IR-tier clients (``races``,
``dangling``) raise a structured :class:`AuditError` on contexts with
no IR members.

:func:`run_audit` is the one entry point every surface (CLI, pipeline
stage, serve) goes through: it normalises parameters with the shared
helper (so all surfaces key caches on the same bytes), times the client
under ``audit.<client>`` and returns a canonical :class:`Report`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..alias import AndersenAA, BasicAA, CombinedAA
from ..analysis.constraints import ConstraintProgram
from ..analysis.solution import Solution
from ..obs import NULL_REGISTRY, Registry
from .findings import Finding, Report
from .params import ORACLES, ParamError, normalize_params

__all__ = [
    "AuditClient",
    "AuditContext",
    "AuditError",
    "CLIENTS",
    "audit_names",
    "make_oracle",
    "register",
    "solution_index",
    "run_audit",
]


class AuditError(Exception):
    """An audit request that cannot run (bad client, params, context)."""

    def __init__(self, message: str, details: Optional[Dict] = None):
        self.details = details
        super().__init__(message)


class AuditContext:
    """Everything a client may consume, lazily bound.

    ``loader`` (when given) produces the IR-tier member map on first
    use — deriving member bindings re-runs the frontend, and pure
    constraint-tier clients must never pay for it.  The solution's
    named digest is likewise computed on first read of
    :attr:`solution_digest`, once per context however many reports and
    cache keys read it.
    """

    def __init__(
        self,
        program: ConstraintProgram,
        solution: Solution,
        members: Optional[Dict[str, object]] = None,
        loader: Optional[Callable[[], Dict[str, object]]] = None,
    ):
        self.program = program
        self.solution = solution
        self._members = members
        self._loader = loader
        self._solution_digest: Optional[str] = None

    @property
    def solution_digest(self) -> str:
        """The solution's named canonical digest (computed once;
        concurrent first readers may both compute the same value)."""
        if self._solution_digest is None:
            self._solution_digest = self.solution.named_canonical_digest()
        return self._solution_digest

    def bindings(self) -> Dict[str, object]:
        """IR-tier member views by member name ({} when none exist)."""
        if self._members is None:
            self._members = self._loader() if self._loader is not None else {}
        return self._members

    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot) -> "AuditContext":
        """Over a serve :class:`~repro.serve.project.Snapshot`."""
        return cls(
            snapshot.linked.program,
            snapshot.solution,
            loader=lambda: {
                name: snapshot.binding(name)
                for name in snapshot.member_names()
            },
        )

    @classmethod
    def from_solution(
        cls, program: ConstraintProgram, solution: Solution
    ) -> "AuditContext":
        """Constraint tier only (imported ``.lir`` programs)."""
        return cls(program, solution, members={})


def solution_index(binding, loc: int) -> int:
    """Map a member-local constraint variable into solution index space
    through the binding's local→joint ``mapping``."""
    return binding.mapping[loc]


def make_oracle(binding, oracle: str):
    """Build the named alias oracle over one member binding."""
    if oracle == "andersen":
        return AndersenAA(binding)
    if oracle == "basicaa":
        return BasicAA()
    if oracle == "combined":
        return CombinedAA([AndersenAA(binding), BasicAA()])
    raise AuditError(
        f"unknown oracle {oracle!r} (choose from {list(ORACLES)})"
    )


class AuditClient:
    """Base class: a named, parameterised, deterministic scenario client.

    Subclasses set ``name``/``title``, declare ``PARAMS`` (defaults, or
    :data:`repro.audit.params.REQUIRED`) beyond the universal
    ``oracle``, set ``requires_ir`` when they scan instructions, and
    implement :meth:`run` returning findings in any order — the report
    sorts canonically.
    """

    name = ""
    title = ""
    requires_ir = False
    PARAMS: Dict[str, object] = {}

    def schema(self) -> Dict[str, object]:
        schema: Dict[str, object] = {"oracle": "combined"}
        schema.update(self.PARAMS)
        return schema

    def run(self, context: AuditContext, params: Dict) -> List[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------

    def ir_members(self, context: AuditContext) -> Dict[str, object]:
        """The IR-tier members, or a structured error when none exist."""
        bindings = context.bindings()
        if not bindings:
            raise AuditError(
                f"the {self.name!r} client scans IR instructions and"
                " needs at least one C-frontend member; constraint-text"
                " (.lir) members carry no IR",
                {"client": self.name, "requires_ir": True},
            )
        return bindings


#: the client registry (populated by the concrete client modules)
CLIENTS: Dict[str, AuditClient] = {}


def register(client: AuditClient) -> AuditClient:
    CLIENTS[client.name] = client
    return client


def audit_names() -> List[str]:
    return sorted(CLIENTS)


def normalize_client_params(client_name: str, params) -> Dict:
    """Resolve a client and canonicalise its parameters.

    The one normalisation path every surface shares: serve memo keys,
    pipeline stage keys and report ``params`` blocks are all computed
    from the dict this returns.
    """
    client = CLIENTS.get(client_name) if isinstance(client_name, str) else None
    if client is None:
        raise AuditError(
            f"unknown audit client {client_name!r}"
            f" (clients: {audit_names()})",
            {"clients": audit_names()},
        )
    try:
        normalized = normalize_params(
            client.schema(), params, where=f"audit[{client_name}]"
        )
    except ParamError as exc:
        raise AuditError(str(exc), exc.details) from None
    if normalized["oracle"] not in ORACLES:
        raise AuditError(
            f"unknown oracle {normalized['oracle']!r}"
            f" (choose from {list(ORACLES)})"
        )
    return normalized


def run_audit(
    context: AuditContext,
    client_name: str,
    params: Optional[Dict] = None,
    registry: Registry = NULL_REGISTRY,
) -> Report:
    """Run one client over a context; returns the canonical report."""
    normalized = normalize_client_params(client_name, params)
    client = CLIENTS[client_name]
    registry.add("audit.runs")
    registry.add(f"audit.{client_name}.runs")
    with registry.scope(f"audit.{client_name}"):
        findings = client.run(context, normalized)
    registry.add("audit.findings", len(findings))
    registry.add(f"audit.{client_name}.findings", len(findings))
    return Report(
        client=client_name,
        params=normalized,
        program_name=context.program.name,
        solution_digest=context.solution_digest,
        findings=tuple(findings),
    )
