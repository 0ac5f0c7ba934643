"""The baseline backend: native Python ``set[int]`` values.

Masks are ``frozenset`` so they can never be mutated by accident;
``set & frozenset`` / ``set - frozenset`` return plain sets, keeping
the whole value algebra closed over native types with zero wrapper
overhead — this backend is exactly the representation every solver used
before the ``pts`` layer existed.
"""

from __future__ import annotations

from typing import Set

from .base import FrozenEmpty, PTSBackend


class SetBackend(PTSBackend):
    name = "set"
    shared_empty = FrozenEmpty()

    # The constructors are the builtins themselves, so building a value
    # (state set-up, a Sol row's copy-on-write) costs no Python frame.
    empty = staticmethod(set)
    from_iter = staticmethod(set)
    copy = staticmethod(set)
    mask = staticmethod(frozenset)

    def equal(self, a: Set[int], b: Set[int]) -> bool:
        return a == b

    def freeze(self, s: Set[int]) -> frozenset:
        return frozenset(s)

    def union_grow(self, target: Set[int], items: Set[int]) -> int:
        before = len(target)
        target |= items
        return len(target) - before

    def delta_update(
        self, delta: Set[int], items: Set[int], processed: Set[int]
    ) -> int:
        added = items - processed
        added -= delta
        if added:
            delta |= added
        return len(added)
