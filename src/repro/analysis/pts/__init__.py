"""Pluggable points-to-set representations (the ``pts`` layer).

Every solver stores Sol_e / ΔSol as *per-node pointee sets*; this layer
abstracts their representation so solvers are written once against a
small set-like value contract and a :class:`PTSBackend` factory:

- ``set`` (:class:`~repro.analysis.pts.setpts.SetBackend`): the values
  are native Python ``set[int]`` objects — zero wrapper overhead, the
  historical baseline.
- ``bitset`` (:class:`~repro.analysis.pts.bitset.BitsetBackend`): the
  values are :class:`~repro.analysis.pts.bitset.Bitset` wrappers with
  two containers.  A small value keeps a Python ``set``; once it holds
  more than ``PACK_ABOVE`` members it packs into one arbitrary-precision
  integer for good, where union, difference, intersection and popcount
  each run as a single C-speed bignum operation (union is ``|``, the
  difference-propagation delta is ``new & ~old``).  Dense sets, EP's
  above all, get the bulk operations; the tiny sets PIP keeps pay no
  universe-wide int per operation.

A value's :meth:`~repro.analysis.pts.base.PTSBackend.cache_key` may be
None (always on ``set``, for an unpacked value on ``bitset``): equal
keys imply equal members, but equal members need not give equal keys.
The operation memo (:class:`OpMemo`) and extraction's freeze cache serve
only values with a key.

Both backends share identical observable semantics; the differential and
equivalence test suites assert that every solver configuration produces
byte-identical canonical :class:`~repro.analysis.solution.Solution`
objects under either backend.

:class:`~repro.analysis.pts.intern.InternTable` provides MDE-style
deduplication of identical pointee sets (used when canonicalising
solutions, where unified cycles and coincidentally-equal pointers
otherwise materialise the same frozenset many times over).
"""

from __future__ import annotations

from typing import Dict

from .base import PTSBackend
from .bitset import Bitset, BitsetBackend
from .intern import InternTable
from .memo import OpMemo
from .setpts import SetBackend

#: registry of selectable backends, keyed by their CLI/config names
PTS_BACKENDS: Dict[str, PTSBackend] = {
    SetBackend.name: SetBackend(),
    BitsetBackend.name: BitsetBackend(),
}

DEFAULT_PTS_BACKEND = SetBackend.name


def get_backend(name: str) -> PTSBackend:
    """Look up a points-to-set backend by name (``set`` or ``bitset``)."""
    try:
        return PTS_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown points-to-set backend {name!r};"
            f" available: {', '.join(sorted(PTS_BACKENDS))}"
        ) from None


__all__ = [
    "PTSBackend",
    "SetBackend",
    "Bitset",
    "BitsetBackend",
    "InternTable",
    "OpMemo",
    "PTS_BACKENDS",
    "DEFAULT_PTS_BACKEND",
    "get_backend",
]
