"""Naive fixpoint solver (Andersen's thesis; paper Table IV "Naive").

Repeatedly sweeps over every constraint applying the inference rules of
Fig. 2 (and Fig. 7 in IP mode) until nothing changes.  No worklist, no
cycle detection, no shared sets.

This solver is deliberately written *independently* of the worklist
machinery (its own flat state, its own rule loops) so that it doubles as
a semantics oracle for differential testing: every optimised
configuration must produce exactly the solution this code produces.
It still accepts a ``pts`` backend so the *representations* can be
cross-checked too, but deliberately keeps the per-element rule loops —
no mask filtering, no fused deltas — to stay an independent oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Union

from ..constraints import CallConstraint, ConstraintProgram, FuncConstraint
from ..omega import OMEGA
from ..pts import InternTable, PTSBackend, get_backend
from ..solution import Solution, SolverStats


class NaiveSolver:
    def __init__(
        self,
        program: ConstraintProgram,
        presolve_unions: Optional[Iterable[Sequence[int]]] = None,
        pts: Union[str, PTSBackend] = "set",
    ):
        self.program = program
        self.ep_mode = program.omega is not None
        n = program.num_vars
        backend = get_backend(pts) if isinstance(pts, str) else pts
        self.pts = backend
        self.sol = [backend.from_iter(s) for s in program.base]
        self.succ: List[Set[int]] = [set(s) for s in program.simple_out]
        self.pte = list(program.flag_pte)
        self.pe = list(program.flag_pe)
        self.ea = list(program.flag_ea)
        self.stats = SolverStats()
        # OVS pre-unification: emulate sharing by aliasing set objects and
        # flag propagation through a representative map.
        self._rep = list(range(n))
        if presolve_unions:
            for group in presolve_unions:
                group = list(group)
                rep = group[0]
                for other in group[1:]:
                    self._rep[other] = rep
                    self.sol[rep] |= self.sol[other]
                    self.succ[rep] |= self.succ[other]
                    self.pte[rep] = self.pte[rep] or self.pte[other]
                    self.pe[rep] = self.pe[rep] or self.pe[other]
                    self.sol[other] = self.sol[rep]
                    self.succ[other] = self.succ[rep]

    # ------------------------------------------------------------------

    def solve(self) -> Solution:
        program = self.program
        n = program.num_vars
        changed = True
        while changed:
            changed = False
            self.stats.passes += 1
            changed |= self._pass_flags()
            changed |= self._pass_simple()
            changed |= self._pass_complex()
            changed |= self._pass_calls()
        return self._extract()

    # ------------------------------------------------------------------

    def _set_pte(self, v: int) -> bool:
        v = self._rep[v]
        if not self.program.in_p[v] or self.pte[v]:
            return False
        self.pte[v] = True
        return True

    def _set_pe(self, v: int) -> bool:
        v = self._rep[v]
        if not self.program.in_p[v] or self.pe[v]:
            return False
        self.pe[v] = True
        return True

    def _set_ea(self, x: int) -> bool:
        if self.ea[x]:
            return False
        self.ea[x] = True
        return True

    def _add_edge(self, src: int, dst: int) -> bool:
        src, dst = self._rep[src], self._rep[dst]
        if src == dst or dst in self.succ[src]:
            return False
        self.succ[src].add(dst)
        self.stats.edges_added += 1
        return True

    # ------------------------------------------------------------------

    def _pass_flags(self) -> bool:
        """InΩ / ToΩ / markEA closure rules (IP mode only)."""
        if self.ep_mode:
            return False
        program = self.program
        changed = False
        # InΩ: Ω ⊒ {x} ⇒ x ⊒ Ω and Ω ⊒ x.
        for x in range(program.num_vars):
            if self.ea[x]:
                changed |= self._set_pte(x)
                changed |= self._set_pe(x)
        # Escaped functions can be called externally.
        for fc in self.program.funcs:
            if self.ea[fc.func]:
                if fc.ret is not None:
                    changed |= self._set_pe(fc.ret)
                for a in fc.args:
                    if a is not None:
                        changed |= self._set_pte(a)
        # ToΩ: pointees of Ω ⊒ p nodes are externally accessible.
        for p in range(program.num_vars):
            if self.pe[self._rep[p]]:
                for x in self.sol[p]:
                    changed |= self._set_ea(x)
        return changed

    def _pass_simple(self) -> bool:
        """TRANS and TRANSΩ over all simple edges."""
        changed = False
        n = self.program.num_vars
        for src in range(n):
            if self._rep[src] != src:
                continue
            ssrc = self.sol[src]
            for dst in self.succ[src]:
                grown = self.pts.union_grow(self.sol[dst], ssrc)
                if grown:
                    changed = True
                    self.stats.propagations += grown
                if not self.ep_mode and self.pte[src]:
                    changed |= self._set_pte(dst)
        return changed

    def _pass_complex(self) -> bool:
        """LOAD / STORE rules, plus the scalar-smuggling flag rules."""
        program = self.program
        changed = False
        for q in range(program.num_vars):
            sq = self.sol[self._rep[q]]
            qpte = self.pte[self._rep[q]] if not self.ep_mode else False
            for p in program.load_from[q]:
                for x in sq:
                    if program.in_p[x]:
                        self.stats.pair_evals += 1
                        changed |= self._add_edge(x, p)
                    elif program.in_m[x]:
                        changed |= self._mark_pte_any(p)  # §V-B
                if qpte:
                    changed |= self._set_pte(p)  # LOADFROMΩ
            if not self.ep_mode and program.flag_lscalar[q]:
                for x in sq:
                    if program.in_p[x]:
                        changed |= self._set_pe(x)
            for p in program.store_into[q]:
                for x in sq:
                    if program.in_p[x]:
                        self.stats.pair_evals += 1
                        changed |= self._add_edge(p, x)
                    elif program.in_m[x]:
                        changed |= self._mark_pe_any(p)  # §V-B
                if qpte:
                    changed |= self._set_pe(p)
            if not self.ep_mode and program.flag_sscalar[q]:
                for x in sq:
                    if program.in_p[x]:
                        changed |= self._set_pte(x)
        return changed

    def _pass_calls(self) -> bool:
        program = self.program
        changed = False
        omega = program.omega
        for cc in program.calls:
            targets = self.sol[self._rep[cc.target]]
            for x in list(targets):
                for fi in program.funcs_of.get(x, ()):
                    changed |= self._resolve_call(cc, program.funcs[fi])
                if self.ep_mode:
                    if program.flag_extfunc[x]:
                        changed |= self._call_unknown_ep(cc)
                else:
                    if program.flag_impfunc[x]:
                        changed |= self._call_unknown_ip(cc)
            if not self.ep_mode and self.pte[self._rep[cc.target]]:
                changed |= self._call_unknown_ip(cc)
        # Constraint ④: external modules call everything Ω points to.
        if self.ep_mode:
            assert omega is not None
            for v in range(program.num_vars):
                if not program.flag_extcall[v]:
                    continue
                for x in list(self.sol[self._rep[v]]):
                    for fi in program.funcs_of.get(x, ()):
                        fc = program.funcs[fi]
                        if fc.ret is not None:
                            changed |= self._add_edge(fc.ret, omega)
                        for a in fc.args:
                            if a is not None:
                                changed |= self._add_edge(omega, a)
        return changed

    def _resolve_call(self, call: CallConstraint, func: FuncConstraint) -> bool:
        """CALL rule for one (Call, Func) pair; mirrors the worklist rules."""
        changed = False
        if call.ret is not None and func.ret is not None:
            changed |= self._add_edge(func.ret, call.ret)
        elif call.ret is not None:
            changed |= self._mark_pte_any(call.ret)
        elif func.ret is not None:
            changed |= self._mark_pe_any(func.ret)
        n_formals = len(func.args)
        for i, actual in enumerate(call.args):
            if i < n_formals:
                formal = func.args[i]
                if actual is not None and formal is not None:
                    changed |= self._add_edge(actual, formal)
                elif actual is not None:
                    changed |= self._mark_pe_any(actual)
                elif formal is not None:
                    changed |= self._mark_pte_any(formal)
            elif actual is not None and func.variadic:
                changed |= self._mark_pe_any(actual)
        return changed

    def _mark_pte_any(self, v: int) -> bool:
        """v ⊒ Ω in IP mode; edge Ω → v in EP mode."""
        if self.ep_mode:
            return self._add_edge(self.program.omega, v)  # type: ignore[arg-type]
        return self._set_pte(v)

    def _mark_pe_any(self, v: int) -> bool:
        """Ω ⊒ v in IP mode; edge v → Ω in EP mode."""
        if self.ep_mode:
            return self._add_edge(v, self.program.omega)  # type: ignore[arg-type]
        return self._set_pe(v)

    def _call_unknown_ip(self, call: CallConstraint) -> bool:
        changed = False
        if call.ret is not None:
            changed |= self._set_pte(call.ret)
        for a in call.args:
            if a is not None:
                changed |= self._set_pe(a)
        return changed

    def _call_unknown_ep(self, call: CallConstraint) -> bool:
        omega = self.program.omega
        assert omega is not None
        changed = False
        if call.ret is not None:
            changed |= self._add_edge(omega, call.ret)
        for a in call.args:
            if a is not None:
                changed |= self._add_edge(a, omega)
        return changed

    # ------------------------------------------------------------------

    def _extract(self) -> Solution:
        program = self.program
        n = program.num_vars
        seen: Set[int] = set()
        total = 0
        for v in range(n):
            r = self._rep[v]
            if id(self.sol[r]) not in seen:
                seen.add(id(self.sol[r]))
                total += len(self.sol[r])
        self.stats.explicit_pointees = total
        intern = InternTable()
        omega_only = frozenset((OMEGA,))
        points_to: Dict[int, FrozenSet] = {}
        # A set holding Ω leaves E implicit (repro.analysis.solution).
        if self.ep_mode:
            omega = program.omega
            assert omega is not None
            sol_omega = self.sol[self._rep[omega]]
            external = frozenset(x for x in sol_omega if x != omega)
            for p in range(n):
                if not program.in_p[p] or p == omega:
                    continue
                s = frozenset(self.sol[self._rep[p]])
                if omega in s:
                    if not external <= s:
                        raise AssertionError(
                            "EP set holding Ω lacks part of E (internals §6)"
                        )
                    s = s - external - {omega} | omega_only
                points_to[p] = intern.intern(s)
        else:
            external = frozenset(
                x for x in range(n) if self.ea[x] and program.in_m[x]
            )
            for p in range(n):
                if not program.in_p[p]:
                    continue
                s = frozenset(self.sol[self._rep[p]])
                if self.pte[self._rep[p]]:
                    s = s - external | omega_only
                points_to[p] = intern.intern(s)
        self.stats.shared_sets = len(intern)
        return Solution(program, points_to, external, self.stats)
