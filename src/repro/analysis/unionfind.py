"""Union-find (disjoint sets) with path compression and union by rank.

Used for cycle unification in the constraint solvers (paper §V-B): the
members of a detected cycle are unified and share a single Sol_e set.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, ne
from typing import Iterable, List


class UnionFind:
    """Disjoint sets over the integers ``0..n-1``.

    ``union`` returns the representative that *survives*; callers merge
    per-node payloads (Sol sets, edges, flags) into the survivor.
    """

    def __init__(self, n: int = 0):
        self.parent: List[int] = list(range(n))
        self.rank: List[int] = [0] * n

    def add(self) -> int:
        """Add a fresh singleton and return its index."""
        idx = len(self.parent)
        self.parent.append(idx)
        self.rank.append(0)
        return idx

    def find(self, x: int) -> int:
        # Iterative two-pass path compression.
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def same(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def union(self, x: int, y: int) -> int:
        """Merge the sets containing x and y; return the surviving root."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return rx
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return rx

    def __len__(self) -> int:
        return len(self.parent)

    def groups(self) -> dict:
        """Map each representative to the sorted list of its members."""
        out: dict = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return out

    def roots(self) -> Iterable[int]:
        """The representatives, ascending: ``i`` is one iff it is its
        own parent, which a C-level pass over the parents tests."""
        parent = self.parent
        return compress(range(len(parent)), map(eq, parent, range(len(parent))))

    def representatives(self) -> List[int]:
        """The representative of every element, in element order.

        Compresses the path of every non-root (a root's parent is
        itself already), so the parents are then the answer; the roots
        cost no Python step.  Compression never changes what ``find``
        or ``union`` returns.
        """
        parent = self.parent
        find = self.find
        rng = range(len(parent))
        for x in compress(rng, map(ne, parent, rng)):
            find(x)
        return list(parent)
