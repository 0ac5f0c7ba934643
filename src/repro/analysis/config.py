"""Solver configurations (paper §V-A, Table IV, Fig. 8).

A configuration picks one choice per axis:

- **Pointer representation**: ``EP`` (explicit pointees; Ω materialised)
  or ``IP`` (implicit pointees; Ω as flags).
- **Offline constraint processing**: OVS on/off, and the stronger
  ``Reduce`` axis (full offline reduction: HVN merging, constraint
  rewriting/dedup, chain collapse, base subsumption — see
  :mod:`repro.analysis.reduce`).  ``Reduce`` subsumes OVS: its merge
  groups contain every OVS group, so with ``reduce`` on the separate
  OVS pass is skipped even when requested.
- **Solver**: ``Naive`` or ``WL`` (worklist).
- **Worklist iteration order** (WL only): FIFO, LIFO, LRF, 2LRF, TOPO.
- **Worklist online techniques** (WL only): PIP, OCD, HCD, LCD, DP.

Orthogonally, every configuration carries a **points-to-set backend**
(``pts``: ``set`` or ``bitset``, see :mod:`repro.analysis.pts`).  The
backend changes only the in-memory representation — both produce the
identical solution — so it is *not* part of the enumerated space; it
appears in configuration names as a ``PTS(...)`` suffix only when it is
not the default.

Validity rules (our reading of the paper's Fig. 8 flowchart, whose image
is not in the text):

- the online techniques and the iteration order require the WL solver;
- PIP requires the IP representation (it reasons about the Ω flags);
- OCD detects all cycles as soon as they appear, so combining it with
  the opportunistic HCD or LCD is invalid (paper §V-A);
- HCD+LCD is a valid combination (Hardekopf & Lin use it).

This enumeration yields 304 valid configurations; the paper reports 208,
so its flowchart must exclude some additional pairings we cannot recover
from the text.  Ours is a superset: every configuration the paper names
is expressible, and all configurations are validated to produce the
identical solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

from ..gcpause import paused
from .constraints import ConstraintProgram
from .omega import lower_to_explicit
from .pts import DEFAULT_PTS_BACKEND, PTS_BACKENDS
from .solution import Solution, attach_aliases
from .solvers.cycles import (
    CombinedDetector,
    CycleDetector,
    HybridCycleDetection,
    LazyCycleDetection,
    OnlineCycleDetection,
)
from .solvers.naive import NaiveSolver
from .solvers.orders import WORKLIST_ORDERS
from .solvers.base import FixpointCarry
from .solvers.ovs import compute_ovs_groups
from .solvers.worklist import WorklistSolver

REPRESENTATIONS = ("EP", "IP")
SOLVERS = ("Naive", "WL")
ORDERS = tuple(WORKLIST_ORDERS.keys())


class ConfigurationError(ValueError):
    """Raised for invalid technique combinations (red edges in Fig. 8)."""


@dataclass(frozen=True)
class Configuration:
    """One point in the configuration space, e.g. ``IP+WL(FIFO)+PIP``."""

    representation: str = "IP"
    ovs: bool = False
    solver: str = "WL"
    order: Optional[str] = "FIFO"
    pip: bool = False
    ocd: bool = False
    hcd: bool = False
    lcd: bool = False
    dp: bool = False
    #: points-to-set backend (orthogonal to the paper's axes; never
    #: enumerated — both backends produce identical solutions)
    pts: str = DEFAULT_PTS_BACKEND
    #: offline constraint reduction (beyond the paper's Table IV, like
    #: ``pts`` not enumerated): preserves the named canonical solution
    #: for every configuration; register Sol sets may widen to their
    #: copy target's (see :mod:`repro.analysis.reduce`)
    reduce: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.representation not in REPRESENTATIONS:
            raise ConfigurationError(f"unknown representation {self.representation!r}")
        if self.pts not in PTS_BACKENDS:
            raise ConfigurationError(
                f"unknown points-to-set backend {self.pts!r};"
                f" available: {', '.join(sorted(PTS_BACKENDS))}"
            )
        if self.solver not in SOLVERS:
            raise ConfigurationError(f"unknown solver {self.solver!r}")
        if self.solver == "WL":
            if self.order not in ORDERS:
                raise ConfigurationError(f"unknown iteration order {self.order!r}")
        else:
            if self.order is not None:
                raise ConfigurationError("iteration order requires the WL solver")
            if self.pip or self.ocd or self.hcd or self.lcd or self.dp:
                raise ConfigurationError(
                    "online techniques require the WL solver"
                )
        if self.pip and self.representation != "IP":
            raise ConfigurationError("PIP requires implicit pointees (IP)")
        if self.ocd and (self.hcd or self.lcd):
            raise ConfigurationError(
                "OCD already detects all cycles; HCD/LCD are redundant"
            )

    @property
    def name(self) -> str:
        parts = [self.representation]
        if self.ovs:
            parts.append("OVS")
        if self.reduce:
            parts.append("Reduce")
        if self.solver == "WL":
            parts.append(f"WL({self.order})")
        else:
            parts.append(self.solver)
        for flag, label in (
            (self.ocd, "OCD"),
            (self.hcd, "HCD"),
            (self.lcd, "LCD"),
            (self.dp, "DP"),
            (self.pip, "PIP"),
        ):
            if flag:
                parts.append(label)
        if self.pts != DEFAULT_PTS_BACKEND:
            parts.append(f"PTS({self.pts})")
        return "+".join(parts)

    @property
    def cache_key(self) -> str:
        """Stable identity of every axis that affects the solved result
        *and* the work performed to reach it.

        Unlike :attr:`name` (which omits default values), every field is
        spelled out, including the points-to-set backend, so the key is
        stable against future changes to the naming defaults.  Used by
        :mod:`repro.driver` to key the on-disk result cache.
        """
        return (
            f"rep={self.representation};ovs={int(self.ovs)}"
            f";solver={self.solver};order={self.order or '-'}"
            f";pip={int(self.pip)};ocd={int(self.ocd)};hcd={int(self.hcd)}"
            f";lcd={int(self.lcd)};dp={int(self.dp)};pts={self.pts}"
            f";reduce={int(self.reduce)}"
        )

    def __str__(self) -> str:
        return self.name


def parse_name(name: str) -> Configuration:
    """Parse a canonical configuration name like ``IP+WL(FIFO)+PIP``.

    Each part sets one axis (the representation, the solver with its
    order, the points-to-set backend) or one flag.  A part that sets an
    axis or flag an earlier part already set is an error, never an
    override: ``IP+EP+WL(FIFO)`` names no configuration.
    """
    kwargs: Dict = {"order": None}
    first: Dict[str, str] = {}
    for part in name.replace(" ", "").split("+"):
        if part in REPRESENTATIONS:
            axis, values = "representation", {"representation": part}
        elif part in ("OVS", "Reduce", "PIP", "OCD", "HCD", "LCD", "DP"):
            axis, values = f"{part} flag", {part.lower(): True}
        elif part == "Naive":
            axis, values = "solver", {"solver": "Naive"}
        elif part.startswith("WL(") and part.endswith(")"):
            axis, values = "solver", {"solver": "WL", "order": part[3:-1]}
        elif part.startswith("PTS(") and part.endswith(")"):
            axis, values = "points-to-set backend", {"pts": part[4:-1]}
        else:
            raise ConfigurationError(f"cannot parse configuration part {part!r}")
        if axis in first:
            raise ConfigurationError(
                f"configuration name {name!r} sets the {axis} twice"
                f" ({first[axis]!r}, then {part!r})"
            )
        first[axis] = part
        kwargs.update(values)
    if "representation" not in first or "solver" not in first:
        raise ConfigurationError(f"incomplete configuration name {name!r}")
    return Configuration(**kwargs)


def enumerate_configurations() -> List[Configuration]:
    """All valid configurations of the paper's Table IV space."""
    configs: List[Configuration] = []
    for rep, ovs in product(REPRESENTATIONS, (False, True)):
        configs.append(Configuration(rep, ovs, "Naive", None))
    cycle_choices: Tuple[Tuple[bool, bool, bool], ...] = (
        (False, False, False),  # none
        (True, False, False),  # OCD
        (False, True, False),  # HCD
        (False, False, True),  # LCD
        (False, True, True),  # HCD+LCD
    )
    for rep, ovs, order, (ocd, hcd, lcd), dp in product(
        REPRESENTATIONS, (False, True), ORDERS, cycle_choices, (False, True)
    ):
        pips = (False, True) if rep == "IP" else (False,)
        for pip in pips:
            configs.append(
                Configuration(rep, ovs, "WL", order, pip, ocd, hcd, lcd, dp)
            )
    return configs


# ----------------------------------------------------------------------
# Running a configuration
# ----------------------------------------------------------------------


def prepare_program(
    program: ConstraintProgram, config: Configuration
) -> ConstraintProgram:
    """Representation selection (phase-1 work, excluded from timing)."""
    if config.representation == "EP":
        return lower_to_explicit(program)
    return program


def _make_detector(
    config: Configuration, program: ConstraintProgram
) -> Optional[CycleDetector]:
    detectors: List[CycleDetector] = []
    if config.ocd:
        detectors.append(OnlineCycleDetection())
    if config.hcd:
        detectors.append(HybridCycleDetection(program))
    if config.lcd:
        detectors.append(LazyCycleDetection())
    if not detectors:
        return None
    if len(detectors) == 1:
        return detectors[0]
    return CombinedDetector(detectors)


def supports_warm_start(config: Configuration) -> bool:
    """Whether a solve under ``config`` can keep its fixpoint and start
    from a previous one: IP with the worklist solver, in any order and
    with any of its online techniques and OVS.  Reduce rewrites the
    program it solves, so its fixpoints do not carry over."""
    return (
        config.representation == "IP"
        and config.solver == "WL"
        and not config.reduce
    )


def solve_prepared(
    prepared: ConstraintProgram,
    config: Configuration,
    carry: Optional[FixpointCarry] = None,
) -> Solution:
    """Solve a program already passed through :func:`prepare_program`.

    This is the timed region of the runtime benchmarks: OVS (an offline
    *solver* technique) is included, the representation change is not.
    The offline reduction is a per-program artifact — derived once and
    memoised against the program object (exactly like the driver's
    cached EP twin), so the first solve pays for the rewrite and repeat
    solves over the same program (the benchmarks' timed repetitions)
    measure solving the already-reduced constraints.

    The solve runs under the collector pause (:mod:`repro.gcpause`),
    and the solver is freed by reference counting before the pause
    ends, so its state never reaches the young-generation pass that
    follows.

    ``carry`` (only for configurations that :func:`supports_warm_start`;
    the served project's update path) asks the worklist solver to keep
    its fixpoint and, given ``carry.start``, to start from a previous
    one (internals §3).
    """
    if carry is not None and not supports_warm_start(config):
        raise ValueError(f"{config.name} cannot carry a fixpoint")
    with paused():
        return _solve(prepared, config, carry)


def _solve(
    prepared: ConstraintProgram,
    config: Configuration,
    carry: Optional[FixpointCarry] = None,
) -> Solution:
    # A frame of its own: the solver dies with it, before the pause ends.
    reduction = None
    original = prepared
    if config.reduce:
        from .reduce import reduce_program_cached

        reduction = reduce_program_cached(prepared)
        prepared = reduction.program
        # The reduction's merge groups carry the same labels OVS would
        # compute, so a separate OVS pass is subsumed — and must not run
        # on the rewritten program (emptied rows would alias labels).
        # Only classes holding location identities need real solver
        # unions; register-only classes are fixed up at extraction.
        unions = reduction.solver_unions or None
    elif config.ovs:
        unions = compute_ovs_groups(prepared)
    else:
        unions = None
    if config.solver == "Naive":
        solver = NaiveSolver(prepared, presolve_unions=unions, pts=config.pts)
    else:
        solver = WorklistSolver(
            prepared,
            order=config.order or "FIFO",
            pip=config.pip,
            dp=config.dp,
            cycle_detector=_make_detector(config, prepared),
            presolve_unions=unions,
            pts=config.pts,
            warm=carry.start if carry is not None else None,
            keep=carry is not None,
        )
    if reduction is not None and reduction.new2old is not None:
        state = getattr(solver, "state", None)
        if state is not None:
            # State-based solvers translate back to the original
            # universe during extraction — one pass, no expand step.
            state.remap = (original, reduction.new2old, reduction.alias_of)
    solution = solver.solve()
    if carry is not None:
        carry.fixpoint = solver.fixpoint
        carry.warm = solver.warm_started
    if reduction is not None:
        if reduction.new2old is not None:
            if solution.program is not original:
                from .reduce import expand_solution

                solution = expand_solution(
                    solution, original, reduction.new2old, reduction.alias_of
                )
        else:
            attach_aliases(
                solution._points_to, solution.program, reduction.alias_of
            )
        st = solution.stats
        st.reduce_vars_merged = (
            reduction.stats.vars_before - reduction.stats.vars_after
        )
        st.reduce_chains_collapsed = reduction.stats.chains_collapsed
        st.reduce_constraints_removed = reduction.stats.constraints_removed
    return solution


def run_configuration(
    program: ConstraintProgram, config: Configuration
) -> Solution:
    """Convenience: prepare + solve in one call."""
    return solve_prepared(prepare_program(program, config), config)
