"""The batched query engine over one generation snapshot.

Every query method is a pure function of an immutable
:class:`~repro.serve.project.Snapshot`, so answers are memoisable by
``(generation, method, params)`` — the :class:`LRUMemo` is shared across
engine instances (the server carries it over updates), and each commit
drops the superseded generations' entries.  Canonical JSON params form
the memo key, so two structurally equal queries hit the same entry
regardless of key order on the wire.

Alias queries name memory *accesses*, not SSA values: a pair
``(member, function, index)`` identifies one load/store in
:func:`repro.alias.client.memory_accesses` enumeration order — the
``accesses`` query lists them.  ``oracle`` selects the answering
analysis: ``andersen`` (the points-to solution), ``basicaa`` (the
solution-free structural analysis) or ``combined`` (first definitive
answer wins; never less precise than either component).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..alias import conflict_rate_fn, memory_accesses
from ..analysis.omega import OMEGA
from ..audit import (
    AuditContext,
    AuditError,
    ORACLES,
    ParamError,
    REQUIRED,
    canonical_json,
    make_oracle,
    normalize_client_params,
    normalize_params,
    run_audit,
)
from ..clients.callgraph import EXTERNAL, build_call_graph
from ..ir.module import Function
from .project import Snapshot

__all__ = ["LRUMemo", "ORACLES", "QUERY_METHODS", "QueryEngine", "QueryError"]

#: the closed set of query methods the engine answers
QUERY_METHODS = (
    "points_to",
    "may_alias",
    "accesses",
    "conflict_rate",
    "callgraph",
    "classify",
    "solution",
    "export_constraints",
    "audit",
    "audit_batch",
)


class QueryError(Exception):
    """A query that cannot be answered (bad params, unknown entity)."""

    def __init__(self, message: str, details: Optional[Dict] = None):
        self.details = details
        super().__init__(message)


class LRUMemo:
    """Bounded memo with least-recently-used eviction and counters.

    Thread-safe: concurrent serve workers share one memo per project, so
    every operation (including the counter updates) happens under one
    lock.  The accounting mirrors :class:`repro.driver.cache.CacheStats`
    — ``hits``/``misses``/``stores``/``evicted`` — so memo and disk
    cache report in the same vocabulary.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, Dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evicted = 0

    def get(self, key: Tuple) -> Optional[Dict]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Tuple, value: Dict) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evicted += 1

    def retain_generation(self, generation: int) -> None:
        """Drop every entry keyed on another generation (counted in
        ``evicted``).

        Called when ``generation`` commits: only a reader still holding
        an older snapshot could hit an older entry, and it recomputes
        the answer instead.  A late put from such a reader stays bounded
        by the LRU and goes at the next commit.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] != generation]
            for key in stale:
                del self._entries[key]
            self.evicted += len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def to_dict(self) -> Dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evicted": self.evicted,
            }


class QueryEngine:
    """Evaluates (batched) queries against one snapshot."""

    def __init__(
        self,
        snapshot: Snapshot,
        memo: Optional[LRUMemo] = None,
        registry=None,
    ):
        from ..obs import NULL_REGISTRY

        self.snapshot = snapshot
        self.memo = memo if memo is not None else LRUMemo()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._oracles: Dict[Tuple[str, str], object] = {}
        self._audit_context: Optional[AuditContext] = None

    # ------------------------------------------------------------------

    def evaluate(self, method: str, params: Dict) -> Dict:
        """Answer one query (memoised); raises :class:`QueryError`.

        Parameters are normalised *before* the memo key is computed:
        an omitted default and its explicit spelling are one request
        and hit one entry (the double-caching the raw-params key used
        to cause).  Invalid params never reach the memo.
        """
        if method not in QUERY_METHODS:
            raise QueryError(f"unknown query method {method!r}")
        checked = self._checked(method, params)
        key = (self.snapshot.generation, method, canonical_json(checked))
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = getattr(self, f"_q_{method}")(**checked)
        self.memo.put(key, result)
        return result

    def batch(self, queries: List[Dict]) -> List[Dict]:
        """Evaluate a query list; per-item errors don't fail the batch."""
        out = []
        for query in queries:
            if (
                not isinstance(query, dict)
                or not isinstance(query.get("method"), str)
                or not isinstance(query.get("params", {}), dict)
            ):
                out.append(
                    {
                        "ok": False,
                        "error": {
                            "code": "invalid_params",
                            "message": f"bad batch item: {query!r}",
                        },
                    }
                )
                continue
            try:
                result = self.evaluate(
                    query["method"], query.get("params", {})
                )
            except QueryError as exc:
                out.append(
                    {
                        "ok": False,
                        "error": {
                            "code": "invalid_params",
                            "message": str(exc),
                        },
                    }
                )
            else:
                out.append({"ok": True, "result": result})
        return out

    # ------------------------------------------------------------------
    # Param validation / shared lookups
    # ------------------------------------------------------------------

    #: per-method parameter schemas: default values, REQUIRED = mandatory
    #: (the shared :func:`repro.audit.params.normalize_params` shape)
    _SIGNATURES = {
        "points_to": {"var": REQUIRED},
        "may_alias": {
            "member": REQUIRED,
            "function": REQUIRED,
            "a": REQUIRED,
            "b": REQUIRED,
            "oracle": "combined",
        },
        "accesses": {"member": REQUIRED, "function": REQUIRED},
        "conflict_rate": {
            "member": REQUIRED,
            "function": None,
            "oracle": "combined",
        },
        "callgraph": {"member": REQUIRED},
        "classify": {},
        "solution": {},
        "export_constraints": {},
        "audit": {"client": REQUIRED, "params": {}},
        "audit_batch": {"requests": REQUIRED},
    }

    def _checked(self, method: str, params: Dict) -> Dict:
        try:
            checked = normalize_params(
                self._SIGNATURES[method], params, where=method
            )
            if method == "audit":
                # Canonicalise the *inner* client params too, so the
                # memo key (computed from the checked dict) is identical
                # for omitted and spelled-out client defaults.
                checked["params"] = normalize_client_params(
                    checked["client"], checked["params"]
                )
        except (ParamError, AuditError) as exc:
            raise QueryError(str(exc), getattr(exc, "details", None)) from None
        return checked

    def _binding(self, member: str):
        try:
            return self.snapshot.binding(member)
        except KeyError:
            raise QueryError(
                f"unknown member {member!r}"
                f" (members: {self.snapshot.member_names()})"
            ) from None

    def _function(self, binding, member: str, function: str) -> Function:
        fn = binding.module.functions.get(function)
        if fn is None or fn.is_declaration:
            defined = sorted(
                f.name for f in binding.module.defined_functions()
            )
            raise QueryError(
                f"no defined function {function!r} in member {member!r}"
                f" (defined: {defined})"
            )
        return fn

    def _oracle(self, member: str, oracle: str):
        if oracle not in ORACLES:
            raise QueryError(
                f"unknown oracle {oracle!r} (choose from {list(ORACLES)})"
            )
        key = (member, oracle)
        aa = self._oracles.get(key)
        if aa is None:
            aa = make_oracle(self._binding(member), oracle)
            self._oracles[key] = aa
        return aa

    # ------------------------------------------------------------------
    # Query methods
    # ------------------------------------------------------------------

    def _q_points_to(self, var) -> Dict:
        if not isinstance(var, str) or not var:
            raise QueryError(f"points_to: var must be a name: {var!r}")
        candidates = self.snapshot.vars_named(var)
        if not candidates:
            raise QueryError(f"unknown variable {var!r}")
        if len(candidates) > 1:
            raise QueryError(
                f"ambiguous variable name {var!r}"
                f" ({len(candidates)} joint variables; query a"
                " memory-location name instead)"
            )
        solution = self.snapshot.solution
        try:
            pointees = solution.points_to(candidates[0])
        except KeyError:
            pointees = frozenset()
        return {
            "var": var,
            "pointees": sorted(map(str, solution.names(pointees))),
            "omega": OMEGA in pointees,
        }

    def _q_may_alias(self, member, function, a, b, oracle="combined") -> Dict:
        binding = self._binding(member)
        fn = self._function(binding, member, function)
        accesses = list(memory_accesses(fn))
        for index in (a, b):
            if not isinstance(index, int) or isinstance(index, bool) or not (
                0 <= index < len(accesses)
            ):
                raise QueryError(
                    f"access index {index!r} out of range"
                    f" (function {function!r} has {len(accesses)} accesses)"
                )
        aa = self._oracle(member, oracle)
        _, ptr_a, size_a = accesses[a]
        _, ptr_b, size_b = accesses[b]
        return {
            "member": member,
            "function": function,
            "a": a,
            "b": b,
            "oracle": oracle,
            "result": str(aa.alias(ptr_a, size_a, ptr_b, size_b)),
        }

    def _q_accesses(self, member, function) -> Dict:
        binding = self._binding(member)
        fn = self._function(binding, member, function)
        out = []
        for index, (kind, pointer, size) in enumerate(memory_accesses(fn)):
            out.append(
                {
                    "index": index,
                    "kind": kind,
                    "size": size,
                    "pointer_type": str(pointer.type),
                }
            )
        return {"member": member, "function": function, "accesses": out}

    def _q_conflict_rate(
        self, member, function=None, oracle="combined"
    ) -> Dict:
        binding = self._binding(member)
        aa = self._oracle(member, oracle)
        if function is not None:
            functions = [self._function(binding, member, function)]
        else:
            functions = sorted(
                binding.module.defined_functions(), key=lambda f: f.name
            )
        per_function = {}
        for fn in functions:
            per_function[fn.name] = conflict_rate_fn(fn, aa).to_dict()
        total = {
            "queries": sum(s["queries"] for s in per_function.values()),
            "no_alias": sum(s["no_alias"] for s in per_function.values()),
            "may_alias": sum(s["may_alias"] for s in per_function.values()),
            "must_alias": sum(s["must_alias"] for s in per_function.values()),
        }
        total["may_alias_rate"] = round(
            total["may_alias"] / total["queries"] if total["queries"] else 0.0,
            9,
        )
        return {
            "member": member,
            "oracle": oracle,
            "functions": per_function,
            "total": total,
        }

    def _q_audit(self, client, params) -> Dict:
        """One audit client's canonical report over this snapshot.

        ``params`` arrive already normalised by :meth:`_checked`, so the
        memo key and the report's ``params`` block are the same bytes
        every other audit surface (CLI, pipeline stage) produces.
        """
        if self._audit_context is None:
            self._audit_context = AuditContext.from_snapshot(self.snapshot)
        try:
            report = run_audit(
                self._audit_context, client, params, registry=self.registry
            )
        except AuditError as exc:
            raise QueryError(str(exc), exc.details) from None
        return report.to_canonical_dict()

    def _q_audit_batch(self, requests) -> Dict:
        """Run several audit requests; per-item errors don't fail the batch.

        Each item routes back through :meth:`evaluate`, so individual
        reports land in (and answer from) the same memo as single
        ``audit`` queries.
        """
        if not isinstance(requests, list):
            raise QueryError(
                f"audit_batch: requests must be a list: {requests!r}"
            )
        results = []
        for item in requests:
            if not isinstance(item, dict):
                results.append(
                    {
                        "ok": False,
                        "error": {
                            "code": "invalid_params",
                            "message": f"bad audit_batch item: {item!r}",
                        },
                    }
                )
                continue
            try:
                report = self.evaluate("audit", item)
            except QueryError as exc:
                results.append(
                    {
                        "ok": False,
                        "error": {
                            "code": "invalid_params",
                            "message": str(exc),
                        },
                    }
                )
            else:
                results.append({"ok": True, "result": report})
        return {"results": results}

    def _q_callgraph(self, member) -> Dict:
        binding = self._binding(member)
        graph = build_call_graph(binding)
        name_of = lambda node: node if node == EXTERNAL else node.name
        edges = sorted(
            [name_of(caller), name_of(callee)]
            for caller, callees in graph.edges.items()
            for callee in callees
        )
        return {
            "member": member,
            "edges": edges,
            "externally_callable": sorted(
                fn.name for fn in graph.externally_callable
            ),
        }

    def _q_classify(self) -> Dict:
        snapshot = self.snapshot
        solution = snapshot.solution
        omega_pointers = snapshot.omega_pointers()
        imp_funcs = snapshot.imp_funcs()
        return {
            "external": sorted(map(str, solution.names(solution.external))),
            "omega_pointers": omega_pointers,
            "imp_funcs": imp_funcs,
            "counts": {
                "external": len(solution.external),
                "omega_pointers": len(omega_pointers),
                "imp_funcs": len(imp_funcs),
            },
        }

    def _q_solution(self) -> Dict:
        return self.snapshot.named_solution()

    def _q_export_constraints(self) -> Dict:
        """The linked joint program as canonical LIR constraint text.

        The text round-trips: feeding it to ``solve_constraints`` (or
        ``repro constraints solve``) reproduces this generation's named
        canonical solution exactly.
        """
        from ..interchange import export_constraint_text

        program = self.snapshot.linked.program
        return {
            "text": export_constraint_text(program),
            "digest": program.digest(),
        }
