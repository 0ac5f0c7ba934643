"""Solver implementations: naive, worklist, orders, cycles, OVS."""

from .naive import NaiveSolver
from .worklist import WorklistSolver

__all__ = ["NaiveSolver", "WorklistSolver"]
