"""The escape audit's reference: the expanded-set walk, kept as an oracle.

``repro.audit.escape`` walks each pointer's stored set, where a set
holding Ω leaves E implicit.  This module keeps the walk that client
replaced, verbatim: reachability and the holder scan read the expanded
view ``Solution.points_to``, which adds all of E to every set holding
Ω.  It is not registered as a client; :func:`reference_report` builds
the report ``run_audit(context, "escape", params)`` must equal byte for
byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.omega import OMEGA
from repro.audit import Report
from repro.audit.base import (
    AuditClient,
    AuditContext,
    AuditError,
    normalize_client_params,
)
from repro.audit.findings import Evidence, Finding

#: evidence lists name at most this many holders per finding
_MAX_HOLDERS = 8


def _reach(solution, seeds: Set[int]) -> Set[int]:
    """Memory reachable from ``seeds`` through points-to edges."""
    seen: Set[int] = set(seeds)
    stack = list(seeds)
    while stack:
        m = stack.pop()
        try:
            pointees = solution.points_to(m)
        except KeyError:
            continue
        for x in pointees:
            if x != OMEGA and x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


class ReferenceEscapeLeakAudit(AuditClient):
    name = "escape"
    title = "escape/leak audit over heap allocation sites"
    PARAMS = {"heap_prefix": "heap."}

    def run(self, context: AuditContext, params: Dict) -> List[Finding]:
        program, solution = context.program, context.solution
        prefix = params["heap_prefix"]
        if not isinstance(prefix, str) or not prefix:
            raise AuditError(
                f"heap_prefix must be a non-empty string: {prefix!r}"
            )
        names = program.var_names
        heap = [
            v
            for v in program.memory_locations()
            if names[v].startswith(prefix)
        ]
        if not heap:
            return []
        heap_set = set(heap)
        external = set(solution.external)

        if program.symbols:
            roots = {
                sym.var
                for sym in program.symbols.values()
                if sym.kind == "data"
            }
            # Linking drops internal-linkage symbols from the joint
            # table, but their memory locations survive under their
            # plain C name; allocas are always "fn.inst" and heap
            # sites "heap.*", so a dot-free non-function memory
            # location is a (possibly static) global root.
            roots.update(
                v
                for v in program.memory_locations()
                if "." not in names[v] and v not in program.funcs_of
            )
        else:
            # No symbol table (LIR inference dialect): any non-heap
            # memory location could be a live global.
            roots = {
                v for v in program.memory_locations() if v not in heap_set
            }
        internal_reach = _reach(solution, roots)
        external_reach = _reach(solution, external)

        holders: Dict[int, List[int]] = {h: [] for h in heap}
        for p in solution.pointers():
            if p in heap_set:
                continue  # heap cells referencing heap cells are edges,
                # not holders — reachability already walked them
            for h in solution.points_to(p) & heap_set:
                holders[h].append(p)

        findings: List[Finding] = []
        for h in sorted(heap, key=lambda v: names[v]):
            site = names[h]
            if h in internal_reach:
                continue  # retained by a global memory path
            evidence = []
            held_by = sorted(holders[h], key=lambda v: names[v])
            for p in held_by[:_MAX_HOLDERS]:
                what = "memory" if program.in_m[p] else "register"
                evidence.append(
                    Evidence(
                        "points-to",
                        f"Sol({names[p]}) contains {site}"
                        f" ({what} holder)",
                        (names[p], site),
                    )
                )
            if len(held_by) > _MAX_HOLDERS:
                evidence.append(
                    Evidence(
                        "points-to",
                        f"... and {len(held_by) - _MAX_HOLDERS} more"
                        " holders",
                        (site,),
                    )
                )
            if h in external or h in external_reach:
                evidence.append(
                    Evidence(
                        "escape",
                        f"{site} is externally accessible: unknown"
                        " external code (Ω) may retain or release it",
                        (site,),
                    )
                )
                findings.append(
                    Finding(
                        client=self.name,
                        kind="heap-escape",
                        severity="low",
                        subject=site,
                        message=(
                            f"the only remaining references to {site}"
                            " escape into Ω; liveness depends on"
                            " external code"
                        ),
                        may_must="may",
                        unbounded=True,
                        evidence=tuple(evidence),
                    )
                )
            else:
                evidence.append(
                    Evidence(
                        "escape",
                        f"{site} is not externally accessible and no"
                        " global memory path reaches it",
                        (site,),
                    )
                )
                message = (
                    f"every reference to {site} lives in a register or"
                    " dying frame: the allocation is dropped"
                    if held_by
                    else f"the result of allocation {site} is never"
                    " stored anywhere"
                )
                findings.append(
                    Finding(
                        client=self.name,
                        kind="heap-leak",
                        severity="medium",
                        subject=site,
                        message=message,
                        may_must="may",
                        unbounded=False,
                        evidence=tuple(evidence),
                    )
                )
        return findings


def reference_report(
    context: AuditContext, params: Optional[Dict] = None
) -> Report:
    """The report ``run_audit(context, "escape", params)`` must equal."""
    normalized = normalize_client_params("escape", params)
    return Report(
        client="escape",
        params=normalized,
        program_name=context.program.name,
        solution_digest=context.solution.named_canonical_digest(),
        findings=tuple(ReferenceEscapeLeakAudit().run(context, normalized)),
    )
