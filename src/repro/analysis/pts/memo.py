"""MDE-style operation-level memo over pointee-set values.

Worklist solving re-evaluates the same mask filters over the same Sol_e
values again and again: a node revisited with an unchanged set re-derives
its pointer members, its Func members, its incompatible-member flag.
:class:`OpMemo` turns those repeats into dictionary hits, keyed on the
backend's cheap *value identity* (:meth:`PTSBackend.cache_key` — the
packed integer of a packed bitset value), so the memo never has to
compare set contents.

Design rules:

- **Value-keyed, never object-keyed.**  Sol sets mutate in place; only a
  backend-provided value key is a sound memo key.  A value without one
  (``cache_key() is None``: every plain set, and every bitset value small
  enough to stay unpacked, whose native operations are already cheap)
  bypasses the memo — uncounted, so hit/miss counters compare across
  runs of the same configuration.  The memo therefore sees dense values
  only: under IP, where PIP keeps the sets tiny, it mostly stands aside;
  under EP it serves the sets Ω's members flow into.
- **Deterministic counters.**  Insertion stops at ``capacity`` (no
  eviction), so for a fixed solve order the hit/miss counts are exact
  replay invariants — the obs layer asserts them identical across
  ``--jobs`` fan-out and cache replay.
- **Masks are identified by small integer tags** supplied by the caller
  (one per distinct mask/operand role), so one memo serves every
  operation kind without hashing the mask itself.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .base import PTSBackend

__all__ = ["OpMemo"]

_ABSENT = object()


class OpMemo:
    """Memoises mask-filter, intersection-test and difference results.

    A lookup whose operand has no :meth:`PTSBackend.cache_key` (None is
    decided per value) computes the operation directly and counts
    neither a hit nor a miss.
    """

    __slots__ = ("_key_of", "_cache", "capacity", "hits", "misses")

    def __init__(self, backend: PTSBackend, capacity: int = 1 << 16):
        self._key_of = backend.cache_key
        self._cache: Dict[Tuple, object] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def _put(self, key: Tuple, value):
        if len(self._cache) < self.capacity:
            self._cache[key] = value
        return value

    def members(self, s, mask, tag: int):
        """The members of ``s & mask`` (a reusable tuple when memoised,
        the backend-native intersection when bypassed)."""
        k = self._key_of(s)
        if k is None:
            return s & mask
        key = (tag, k)
        got = self._cache.get(key, _ABSENT)
        if got is not _ABSENT:
            self.hits += 1
            return got
        self.misses += 1
        return self._put(key, tuple(s & mask))

    def intersects(self, s, mask, tag: int) -> bool:
        """Whether ``s & mask`` is non-empty."""
        k = self._key_of(s)
        if k is None:
            return bool(s & mask)
        key = (tag, k)
        got = self._cache.get(key, _ABSENT)
        if got is not _ABSENT:
            self.hits += 1
            return got  # type: ignore[return-value]
        self.misses += 1
        return self._put(key, bool(s & mask))  # type: ignore[return-value]

    def difference(self, s, other, tag: int):
        """The members of ``s - other`` (both operands value-keyed, so a
        mutating right operand — e.g. the ea mask — re-keys naturally)."""
        k = self._key_of(s)
        ko = self._key_of(other) if k is not None else None
        if k is None or ko is None:
            return s - other
        key = (tag, k, ko)
        got = self._cache.get(key, _ABSENT)
        if got is not _ABSENT:
            self.hits += 1
            return got
        self.misses += 1
        return self._put(key, tuple(s - other))
