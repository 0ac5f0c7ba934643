"""Type system for the repro IR.

The IR uses a C-flavoured type lattice: integer and floating-point scalars,
pointers, fixed-size arrays, structs, unions, function types, and ``void``.
Types are immutable and interned where convenient so they can be compared
with ``==`` and used as dict keys.

The single property the points-to analysis cares about is *pointer
compatibility* (paper §II-A): a type is pointer compatible if it is a
pointer, or an aggregate that contains a pointer.  Values whose type is not
pointer compatible have no points-to set and are ignored by the analysis
(but flows through them are modelled as pointer/integer conversions, paper
§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


class Type:
    """Base class for all IR types."""

    def is_pointer_compatible(self) -> bool:
        """True if values of this type may carry pointer provenance.

        Pointers are pointer compatible, and so is any aggregate that
        (transitively) contains a pointer.  Integers are **not** pointer
        compatible under the PNVI-ae-udi provenance model (paper §III-C).
        """
        return False

    def sizeof(self) -> int:
        """Size of the type in bytes, using an LP64-like layout."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


@dataclass(frozen=True)
class VoidType(Type):
    def sizeof(self) -> int:
        raise TypeError("void has no size")

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """An integer type of a given bit width.

    ``signed`` only affects the frontend's arithmetic conversions; the
    analysis treats all integers alike (not pointer compatible).
    """

    bits: int
    signed: bool = True

    def sizeof(self) -> int:
        return max(1, self.bits // 8)

    def __str__(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.bits}"


@dataclass(frozen=True)
class FloatType(Type):
    bits: int

    def sizeof(self) -> int:
        return self.bits // 8

    def __str__(self) -> str:
        return f"f{self.bits}"


@dataclass(frozen=True)
class PointerType(Type):
    """A typed pointer.  ``pointee`` may be any type, including functions."""

    pointee: Type

    def is_pointer_compatible(self) -> bool:
        return True

    def sizeof(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    count: int

    def is_pointer_compatible(self) -> bool:
        return self.element.is_pointer_compatible()

    def sizeof(self) -> int:
        return self.element.sizeof() * self.count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class StructType(Type):
    """A struct or union.

    Nominal typing, as in C: named structs compare equal by (tag,
    is_union); anonymous structs compare by identity.  The type object is
    mutable so a struct can be referenced while incomplete (e.g.
    ``struct node { struct node *next; }``) and completed in place.
    ``fields`` is a tuple of (name, type) pairs.
    """

    def __init__(
        self,
        name: Optional[str],
        fields: Tuple[Tuple[str, "Type"], ...] = (),
        is_union: bool = False,
        complete: bool = True,
    ):
        self.name = name
        self.fields = tuple(fields)
        self.is_union = is_union
        self.complete = complete

    def define(self, fields: Tuple[Tuple[str, "Type"], ...]) -> None:
        """Complete a forward-declared struct in place."""
        self.fields = tuple(fields)
        self.complete = True

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, StructType):
            return NotImplemented
        if self.name is not None and other.name is not None:
            return self.name == other.name and self.is_union == other.is_union
        return False

    def __hash__(self) -> int:
        if self.name is not None:
            return hash(("struct", self.name, self.is_union))
        return id(self)

    def is_pointer_compatible(self) -> bool:
        return any(ty.is_pointer_compatible() for _, ty in self.fields)

    def field_index(self, name: str) -> int:
        for i, (fname, _) in enumerate(self.fields):
            if fname == name:
                return i
        raise KeyError(f"no field {name!r} in {self}")

    def field_type(self, name: str) -> Type:
        return self.fields[self.field_index(name)][1]

    def field_offset(self, index: int) -> int:
        """Byte offset of field ``index`` (no padding model; packed)."""
        if self.is_union:
            return 0
        return sum(ty.sizeof() for _, ty in self.fields[:index])

    def sizeof(self) -> int:
        if not self.complete:
            raise TypeError(f"incomplete struct {self.name}")
        if self.is_union:
            return max((ty.sizeof() for _, ty in self.fields), default=0)
        return sum(ty.sizeof() for _, ty in self.fields)

    def __str__(self) -> str:
        kw = "union" if self.is_union else "struct"
        if self.name:
            return f"{kw}.{self.name}"
        inner = ", ".join(str(ty) for _, ty in self.fields)
        return f"{kw}{{{inner}}}"


@dataclass(frozen=True)
class FunctionType(Type):
    return_type: Type
    params: Tuple[Type, ...] = ()
    variadic: bool = False

    def is_pointer_compatible(self) -> bool:
        # A function itself is not a first-class value; pointers to it are.
        return False

    def sizeof(self) -> int:
        raise TypeError("function types have no size")

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        if self.variadic:
            ps = f"{ps}, ..." if ps else "..."
        return f"{self.return_type}({ps})"


# Canonical singletons used throughout the frontend and tests.
VOID = VoidType()
BOOL = IntType(1, signed=False)
I8 = IntType(8)
U8 = IntType(8, signed=False)
I16 = IntType(16)
U16 = IntType(16, signed=False)
I32 = IntType(32)
U32 = IntType(32, signed=False)
I64 = IntType(64)
U64 = IntType(64, signed=False)
F32 = FloatType(32)
F64 = FloatType(64)


def ptr(pointee: Type) -> PointerType:
    """Shorthand constructor for pointer types."""
    return PointerType(pointee)


def is_float(ty: Type) -> bool:
    return isinstance(ty, FloatType)


def pointer_compatible(ty: Type) -> bool:
    """Module-level alias for :meth:`Type.is_pointer_compatible`."""
    return ty.is_pointer_compatible()
