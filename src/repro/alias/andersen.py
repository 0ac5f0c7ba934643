"""Alias analysis backed by the Andersen-style points-to solution.

Two pointers may alias iff their Sol sets intersect (paper §VI-A: "The
analysis returns NoAlias if the instructions have distinct points-to
sets.  Otherwise, MayAlias is returned.  Both analyses return MustAlias
when the pointers are identical.").

The check reads the expanded view, ``Solution.points_to``: a Sol set
holding Ω there also lists every externally accessible location (the
stored form leaves them implicit), so a plain set intersection is
exact — two pointers that may both hold external values intersect at
Ω.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.api import PointsToResult
from ..ir import Value
from .result import MAY_ALIAS, MUST_ALIAS, NO_ALIAS, AliasResult


class AndersenAA:
    def __init__(self, points_to: PointsToResult):
        self.points_to = points_to

    def alias(
        self,
        p1: Value,
        size1: Optional[int],
        p2: Value,
        size2: Optional[int],
    ) -> AliasResult:
        if p1 is p2:
            return MUST_ALIAS
        s1 = self.points_to.points_to(p1)
        s2 = self.points_to.points_to(p2)
        if s1 and s2 and not (s1 & s2):
            return NO_ALIAS
        if not s1 or not s2:
            # A pointer with an empty Sol set can only be null/undefined;
            # a well-defined execution never dereferences it.
            return NO_ALIAS
        return MAY_ALIAS
