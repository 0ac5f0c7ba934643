"""Two-container bitsets: small pointee sets stay Python sets, dense
ones pack into one big int.

A packed int costs O(universe/30) per bulk operation however few
members take part, and a hash set costs O(members).  PIP keeps explicit
pointee sets tiny (on the linked 557.xz program the stored sets have a
median of one member), while EP washes Ω's thousands of members over
the graph.  So each :class:`Bitset` value holds one of two containers:

- **unpacked**: a Python ``set`` in :attr:`Bitset.members`
  (:attr:`Bitset.bits` is None), until the value first holds more than
  :data:`PACK_ABOVE` members.
- **packed**: one arbitrary-precision int in :attr:`Bitset.bits`
  (:attr:`Bitset.members` is None); bit ``x`` is set iff variable ``x``
  is a member.  A packed value stays packed for good, even if it
  shrinks again.

Two values in the same container combine at C speed on that container:
union ``|``, difference ``&~`` (the DP delta is ``new & ~old``),
intersection ``&`` and popcount on ints, the set operators on sets.  A
packed and an unpacked operand combine member by member over the small
one; the small operand is never packed just to combine it.  A result
takes its left operand's container, and an unpacked result packs when
its members pass the rule, so ``a op= b`` and ``a = a op b`` agree.
Masks (:class:`Mask`) carry both containers, a frozenset and the packed
int, so either container filters natively.

Unpacked values iterate in ascending order, like the decoder of packed
ones, so a solve visits, pushes and unifies in the same order whichever
container holds each set.

:meth:`BitsetBackend.cache_key` is the packed int, and None for an
unpacked value: the operation memo and extraction's freeze cache serve
packed values only.

``Bitset`` is mutable (the wrapper is the identity solvers alias and
share); like ``set`` it is therefore unhashable.  The backend's shared
empty value (:data:`SHARED_EMPTY`) is the one exception: an unpacked
value over a :class:`~repro.analysis.pts.base.FrozenEmpty` whose every
write raises.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set

from .base import FrozenEmpty, PTSBackend, refuse_write

#: A value packs once it holds more than this many members.  Picked on
#: the linked 557.xz program (internals §4): no IP Sol set there holds
#: more than six, and under EP with DP, rules from 6 to 24 solved alike
#: while 32 was slower, its deltas of 17 to 27 members being tested one
#: by one against the packed sets they meet.
PACK_ABOVE = 16

#: bit positions set in each byte value, precomputed once
_BYTE_BITS = tuple(
    tuple(i for i in range(8) if b >> i & 1) for b in range(256)
)


def _decode(bits: int) -> List[int]:
    """Member list of a bit pattern.

    Hybrid strategy: sparse patterns extract one lowest set bit at a
    time (a few C-speed bignum ops per member, independent of the
    universe size); dense patterns decode bytewise through the position
    table (cost proportional to the universe, tiny constant per bit).
    The crossover matters — pointee sets are usually sparse relative to
    the variable universe, and a pure bytewise scan would pay the full
    universe width for a two-element set.
    """
    if not bits:
        return []
    if bits.bit_count() << 4 < bits.bit_length():
        out = []
        append = out.append
        while bits:
            low = bits & -bits
            append(low.bit_length() - 1)
            bits ^= low
        return out
    out = []
    extend = out.extend
    table = _BYTE_BITS
    base = 0
    for byte in bits.to_bytes((bits.bit_length() + 7) >> 3, "little"):
        if byte:
            extend(off + base for off in table[byte])
        base += 8
    return out


def _pack(members: Iterable[int]) -> int:
    """The int with bit ``x`` set for each member: bits are set in a
    byte buffer and converted once, so the cost is one pass over the
    members plus one over the universe, not a bignum op per member."""
    members = list(members)
    if not members:
        return 0
    buf = bytearray((max(members) >> 3) + 1)
    for x in members:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


# Combining a packed int with a small set, member by member: at most
# PACK_ABOVE bignum operations, and no universe-wide buffer for the small
# operand.  A bit test costs O(min(x, width - x)) digits: ``bits & 1 << x``
# builds and scans x bits, ``bits >> x & 1`` copies the bits above x.


def _with(bits: int, members: Iterable[int]) -> int:
    """``bits`` with each of ``members`` set."""
    for x in members:
        bits |= 1 << x
    return bits


def _without(bits: int, members: Iterable[int]) -> int:
    """``bits`` with each of ``members`` cleared."""
    half = bits.bit_length() >> 1
    for x in members:
        if bits & 1 << x if x < half else bits >> x & 1:
            bits ^= 1 << x
    return bits


def _inside(bits: int, members: Iterable[int]) -> Set[int]:
    """The ``members`` whose bit is set in ``bits``."""
    half = bits.bit_length() >> 1
    return {x for x in members if (bits & 1 << x if x < half else bits >> x & 1)}


def _outside(bits: int, members: Iterable[int]) -> Set[int]:
    """The ``members`` whose bit is clear in ``bits``."""
    half = bits.bit_length() >> 1
    return {
        x for x in members if not (bits & 1 << x if x < half else bits >> x & 1)
    }


_new = object.__new__


def _small(members: Set[int]) -> "Bitset":
    """An unpacked value that takes ``members`` over."""
    value = _new(Bitset)
    value.members = members
    value.bits = None
    return value


def _packed(bits: int) -> "Bitset":
    """A packed value over ``bits``."""
    value = _new(Bitset)
    value.members = None
    value.bits = bits
    return value


def _settled(members: Set[int]) -> "Bitset":
    """A value over ``members`` in the container the rule picks."""
    if len(members) > PACK_ABOVE:
        return _packed(_pack(members))
    return _small(members)


def _union(members: Set[int], bits: int) -> "Bitset":
    """The small set ``members`` ∪ the packed ``bits``, packed only if the
    union passes the rule."""
    if bits.bit_count() + len(members) > PACK_ABOVE:
        bits = _with(bits, members)
        if bits.bit_count() > PACK_ABOVE:
            return _packed(bits)
    return _small(members.union(_decode(bits)))


def _same(a, b) -> bool:
    """Whether two values (of either container) hold the same members."""
    a_members, b_members = a.members, b.members
    if a_members is not None:
        if b_members is not None:
            return a_members == b_members
        small, bits = a_members, b.bits
    elif b_members is None:
        return a.bits == b.bits
    else:
        small, bits = b_members, a.bits
    return bits.bit_count() == len(small) and not _outside(bits, small)


class Mask:
    """An immutable filter over both containers: the members as a
    frozenset and packed, for use as ``S & mask`` / ``S - mask``."""

    __slots__ = ("members", "bits")

    def __init__(self, items: Iterable[int]):
        self.members = frozenset(items)
        self.bits = _pack(self.members)


class Bitset:
    """Mutable set of small non-negative ints, held as a ``set`` while
    small and packed into one big int once it passes :data:`PACK_ABOVE`
    members."""

    __slots__ = ("members", "bits")

    members: Optional[Set[int]]
    bits: Optional[int]

    def __init__(self, items: Iterable[int] = ()):
        self._become(_settled(set(items)))

    @classmethod
    def from_iter(cls, items: Iterable[int]) -> "Bitset":
        return cls(items)

    def _pack_members(self) -> None:
        self.bits = _pack(self.members)
        self.members = None

    def _become(self, value: "Bitset") -> "Bitset":
        """Take ``value``'s container over (the in-place operators)."""
        self.members, self.bits = value.members, value.bits
        return self

    # -- element operations --------------------------------------------

    def add(self, x: int) -> None:
        members = self.members
        if members is None:
            self.bits |= 1 << x
        else:
            members.add(x)
            if len(members) > PACK_ABOVE:
                self._pack_members()

    def discard(self, x: int) -> None:
        members = self.members
        if members is None:
            self.bits = _without(self.bits, (x,))
        else:
            members.discard(x)

    def __contains__(self, x: int) -> bool:
        members = self.members
        if members is None:
            return bool(_inside(self.bits, (x,)))
        return x in members

    # -- bulk operations -----------------------------------------------
    #
    # ``other`` is a Bitset or a Mask.  Each operation works in self's
    # container and uses other's matching container when it has one.

    def __or__(self, other) -> "Bitset":
        members = self.members
        if members is None:
            bits = other.bits
            if bits is not None:
                return _packed(self.bits | bits)
            return _packed(_with(self.bits, other.members))
        if other.members is not None:
            return _settled(members | other.members)
        return _union(members, other.bits)

    def __sub__(self, other) -> "Bitset":
        members = self.members
        if members is None:
            bits = other.bits
            if bits is not None:
                return _packed(self.bits & ~bits)
            return _packed(_without(self.bits, other.members))
        if other.members is not None:
            return _small(members - other.members)
        return _small(_outside(other.bits, members))

    def __and__(self, other) -> "Bitset":
        members = self.members
        if members is None:
            bits = other.bits
            if bits is not None:
                return _packed(self.bits & bits)
            return _packed(_with(0, _inside(self.bits, other.members)))
        if other.members is not None:
            return _small(members & other.members)
        return _small(_inside(other.bits, members))

    def __ior__(self, other) -> "Bitset":
        return self._become(self | other)

    def __isub__(self, other) -> "Bitset":
        return self._become(self - other)

    def __iand__(self, other) -> "Bitset":
        return self._become(self & other)

    # -- inspection ----------------------------------------------------

    def __len__(self) -> int:
        members = self.members
        if members is None:
            return self.bits.bit_count()
        return len(members)

    def __bool__(self) -> bool:
        members = self.members
        if members is None:
            return self.bits != 0
        return bool(members)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Bitset):
            return _same(self, other)
        if isinstance(other, (set, frozenset)):
            return _same(self, _small(set(other)))
        return NotImplemented

    __hash__ = None  # mutable, like set

    def __iter__(self) -> Iterator[int]:
        members = self.members
        if members is None:
            return iter(_decode(self.bits))
        return iter(sorted(members))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bitset({{{', '.join(map(str, self))}}})"


class _SharedEmpty(Bitset):
    """The backend's one immutable empty value.

    It reads as an empty unpacked value.  Its attributes cannot be set,
    so ``|=``, ``-=``, ``&=`` and the fused helpers raise on it, and
    its container has no ``add``; on the left of a binary operator a
    fresh empty value stands in, so the result is a value of its own.
    """

    __slots__ = ()

    __setattr__ = refuse_write

    def __or__(self, other) -> Bitset:
        return _small(set()) | other

    def __sub__(self, other) -> Bitset:
        return _small(set())

    __and__ = __sub__


#: the shared empty value of every empty Sol_e / ΔSol row
SHARED_EMPTY = _new(_SharedEmpty)
object.__setattr__(SHARED_EMPTY, "members", FrozenEmpty())
object.__setattr__(SHARED_EMPTY, "bits", None)


class BitsetBackend(PTSBackend):
    name = "bitset"
    shared_empty = SHARED_EMPTY

    def empty(self) -> Bitset:
        return _small(set())

    def from_iter(self, items: Iterable[int]) -> Bitset:
        return _settled(set(items))

    def copy(self, s: Bitset) -> Bitset:
        members = s.members
        if members is None:
            return _packed(s.bits)
        return _small(set(members))

    def mask(self, items: Iterable[int]) -> Mask:
        return Mask(items)

    def equal(self, a: Bitset, b: Bitset) -> bool:
        return _same(a, b)

    def freeze(self, s: Bitset) -> frozenset:
        members = s.members
        if members is None:
            return frozenset(_decode(s.bits))
        return frozenset(members)

    def cache_key(self, s: Bitset) -> Optional[int]:
        # The packed int *is* the value; hashing it costs O(words),
        # decoding it costs O(members), so a packed value keys on it.
        # An unpacked value has no key cheaper than its members.
        return s.bits

    def union_grow(self, target: Bitset, items: Bitset) -> int:
        members = target.members
        if members is None:
            old = target.bits
            bits = items.bits
            if bits is None:
                new = _with(old, items.members)
            else:
                new = old | bits
            if new == old:
                return 0
            target.bits = new
            return (new & ~old).bit_count()
        before = len(members)
        if items.members is not None:
            members |= items.members
            grown = len(members) - before
            if grown and len(members) > PACK_ABOVE:
                target._pack_members()
            return grown
        target._become(_union(members, items.bits))
        return len(target) - before

    def delta_update(self, delta: Bitset, items: Bitset, processed: Bitset) -> int:
        members = items.members
        if members is not None:
            # Few items: filter them in their own container.
            done = processed.members
            if done is not None:
                added = members - done
            else:
                added = _outside(processed.bits, members)
            pending = delta.members
            if pending is None:
                added = _outside(delta.bits, added)
                if added:
                    delta.bits = _with(delta.bits, added)
                return len(added)
            added -= pending
            if added:
                pending |= added
                if len(pending) > PACK_ABOVE:
                    delta._pack_members()
            return len(added)
        # Many items: clear the packed operands' bits first (two bignum
        # ops each), then the small ones' member by member, if any
        # item is left.
        added = items.bits
        done, pending = processed.bits, delta.bits
        if done is not None:
            added &= ~done
        if added and pending is not None:
            added &= ~pending
        if added and done is None:
            added = _without(added, processed.members)
        if not added:
            return 0
        if pending is not None:
            delta.bits = pending | added
            return added.bit_count()
        added = _without(added, delta.members)
        if not added:
            return 0
        delta._become(_union(delta.members, added))
        return added.bit_count()
