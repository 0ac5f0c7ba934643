"""High-level entry points for the points-to analysis.

Typical use::

    from repro.analysis import analyze_module, Configuration

    result = analyze_module(module)            # fastest configuration
    targets = result.points_to_values(ptr)     # IR values + maybe OMEGA
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence

from ..ir.module import Module
from ..ir.values import Value
from .config import Configuration, run_configuration
from .frontend import ModuleConstraints, SummaryFn, build_constraints
from .omega import OMEGA
from .solution import Solution

#: the paper's overall fastest configuration (Table V): IP+WL(FIFO)+PIP
DEFAULT_CONFIGURATION = Configuration(
    representation="IP", ovs=False, solver="WL", order="FIFO", pip=True
)


class PointsToResult:
    """Solved points-to information tied back to IR values.

    ``mapping`` takes each constraint variable of ``built`` to its index
    in ``solution``: the identity for a module solved on its own, the
    linker's member→joint map (:attr:`repro.link.LinkedProgram.
    var_maps`) for one member of a linked program.  :meth:`points_to`
    answers in ``solution``'s indexes.
    """

    def __init__(
        self,
        built: ModuleConstraints,
        solution: Solution,
        mapping: Optional[Sequence[int]] = None,
    ):
        self.built = built
        self.solution = solution
        self.mapping = (
            range(built.program.num_vars) if mapping is None else mapping
        )
        self._value_of_loc: Dict[int, Value] = {}
        for value, loc in built.memloc_of.items():
            self._value_of_loc[self.mapping[loc]] = value
        for call, loc in built.heap_site_of.items():
            self._value_of_loc[self.mapping[loc]] = call

    @property
    def module(self) -> Module:
        return self.built.module

    # ------------------------------------------------------------------

    def points_to(self, value: Value) -> FrozenSet:
        """Sol of the pointer held in ``value`` (variable indexes/OMEGA).

        Untracked values (null, scalars) have an empty solution.
        """
        var = self.built.var_of_value.get(value)
        if var is None:
            return frozenset()
        return self.solution.points_to(self.mapping[var])

    def points_to_values(self, value: Value) -> FrozenSet:
        """Sol mapped back to IR memory objects; OMEGA passes through."""
        out = set()
        for x in self.points_to(value):
            if x == OMEGA:
                out.add(OMEGA)
            else:
                out.add(self._value_of_loc.get(x, x))
        return frozenset(out)

    def may_point_to_external(self, value: Value) -> bool:
        """True iff the held pointer may have an unknown origin (p ⊒ Ω)."""
        return OMEGA in self.points_to(value)

    def externally_accessible_values(self) -> FrozenSet:
        """The module's memory objects that are in E."""
        external = self.solution.external
        return frozenset(
            value
            for loc, value in self._value_of_loc.items()
            if loc in external
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PointsToResult of {self.built.module.name}>"


def analyze_module(
    module: Module,
    configuration: Optional[Configuration] = None,
    summaries: Optional[Dict[str, SummaryFn]] = None,
) -> PointsToResult:
    """Run the full two-phase analysis on an IR module."""
    config = configuration or DEFAULT_CONFIGURATION
    built = build_constraints(module, summaries)
    solution = run_configuration(built.program, config)
    return PointsToResult(built, solution)


def analyze_source(
    source: str,
    name: str = "module",
    configuration: Optional[Configuration] = None,
    summaries: Optional[Dict[str, SummaryFn]] = None,
) -> PointsToResult:
    """Compile a C translation unit and analyse it."""
    from ..frontend import compile_c  # local import: frontend is optional

    module = compile_c(source, name)
    return analyze_module(module, configuration, summaries)
