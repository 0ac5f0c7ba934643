"""A concrete interpreter for ``repro.ir`` with a hostile external world.

This is the soundness oracle's ground truth: it runs a verified
:class:`repro.ir.Module`, records every pointer value a register holds
and every object that becomes reachable by external code, and
:func:`violations` checks those observations against a
:class:`repro.analysis.Solution`.  Nothing here is derived from the
analysis except the names of the abstract locations
(:class:`repro.analysis.ModuleConstraints`), so a constraint-generation
bug that every solver configuration shares still shows up.

Concrete semantics (Soffia's points-to semantics for C-like programs is
the spec):

- A pointer is an (object, byte offset) pair, :class:`Ptr`.  Each
  object has a numeric base address, so pointers compare and convert to
  integers; an integer made from a pointer is a :class:`ProvInt` and
  keeps the object as its provenance through arithmetic and memory, so
  ``inttoptr`` restores it (PNVI-ae-udi, paper §III-C).
- Memory is a map from byte offsets to typed cells; reading a cell as
  another type converts the value (a pointer read as an integer is
  exposed, an integer read as a pointer is an ``inttoptr``).
- Each object carries its abstract location: ``memloc_of`` for globals,
  functions and allocas (every dynamic instance of one alloca shares
  it), ``heap_site_of`` for direct ``malloc`` results.  Objects the
  external world makes are *external* and have no location.
- Using a null, wild, freed, out-of-bounds or uninitialised pointer,
  dividing by zero, exceeding the step budget or the call depth raises
  :class:`Fault`: the entry call ends with no verdict.

External model (PIP §III-B–C): the runtime escaped set E_rt starts as
the objects of the exported and imported symbols, grows by the pointees
of every pointer passed to, returned to or read by external code and by
every pointer converted to an integer, and is closed over what its
objects' cells point to.  Direct calls to the ``DEFAULT_SUMMARIES``
(``malloc``, ``free``, ``memcpy``) run concretely; every other call to
an undefined function runs :meth:`Interpreter._external_call`, which
writes escaped or external addresses into escaped objects, calls the
escaped functions it was handed, and returns such an address.  External
code never touches an object outside E_rt.

The module imports nothing from pytest; ``test_soundness.py`` drives it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis import DEFAULT_SUMMARIES, OMEGA, ModuleConstraints
from repro.ir import instructions as ins
from repro.ir import print_instruction
from repro.ir import types as ty
from repro.ir.module import Function
from repro.ir.values import (
    AggregateConstant,
    Argument,
    Constant,
    FloatConstant,
    GlobalValue,
    IntConstant,
    NullConstant,
    UndefConstant,
    Value,
)

#: instructions one entry call may execute before it is cut off
MAX_STEPS = 5_000
#: nested calls (internal and external) before a run is cut off
MAX_DEPTH = 32
#: nested callbacks from external code into the module
MAX_EXTERNAL_DEPTH = 2
#: size of an object the external world makes
EXTERNAL_SIZE = 64
#: integers the external world picks when it has nothing better
SMALL_INTS = (0, 1, 2, 3, 4, 7, 16, 32, 48, 65, -1)
#: largest ``malloc`` the interpreter grants (larger requests get null)
MAX_MALLOC = 1 << 16


class Fault(Exception):
    """The run reached undefined behaviour or a limit: no verdict."""


class Obj:
    """One runtime memory object."""

    __slots__ = (
        "serial", "kind", "name", "size", "loc", "base", "cells",
        "zero", "lazy", "alive", "function",
    )

    def __init__(self, serial, kind, name, size, loc, base, zero=False, lazy=False,
                 function=None):
        self.serial = serial
        #: "global" | "function" | "alloca" | "heap" | "external"
        self.kind = kind
        self.name = name
        self.size = size
        #: abstract location (constraint variable); None for external objects
        self.loc = loc
        self.base = base
        #: byte offset -> (size, value); cells never overlap
        self.cells: Dict[int, Tuple[int, object]] = {}
        #: unwritten bytes read as zero (static storage)
        self.zero = zero
        #: unwritten bytes are whatever the external world put there
        self.lazy = lazy
        self.alive = True
        self.function = function

    def describe(self) -> str:
        if self.kind == "external":
            return f"external object #{self.serial}"
        return f"{self.kind} `{self.name}` (object #{self.serial})"


class Ptr:
    """A pointer value: ``obj`` is None for null (``off == 0``) and for
    addresses that name no object."""

    __slots__ = ("obj", "off")

    def __init__(self, obj: Optional[Obj], off: int):
        self.obj = obj
        self.off = off


NULL = Ptr(None, 0)


class ProvInt(int):
    """An integer that came from a pointer; ``prov`` is its object."""

    def __new__(cls, value: int, prov: Obj):
        self = int.__new__(cls, value)
        self.prov = prov
        return self


class Agg:
    """A struct or array value in a register: its cells, relative to 0."""

    __slots__ = ("cells",)

    def __init__(self, cells: List[Tuple[int, int, object]]):
        self.cells = cells


class _Undef:
    def __repr__(self) -> str:  # pragma: no cover
        return "undef"


#: an indeterminate value; using it as an operand is a fault
UNDEF = _Undef()


@dataclass
class Observations:
    """What the runs of one program showed, independent of any solution."""

    #: (register var, location or None for external) -> (function, where, object)
    points: Dict[Tuple[int, Optional[int]], Tuple[str, str, str]] = field(
        default_factory=dict
    )
    #: escaped location -> why it escaped
    escaped: Dict[int, str] = field(default_factory=dict)
    calls: int = 0
    returned: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    #: the instruction classes that ran
    kinds: Set[type] = field(default_factory=set)


def _leaves(t: ty.Type, base: int = 0) -> Iterator[Tuple[int, ty.Type]]:
    """(offset, scalar type) of each scalar inside ``t``; a union's first
    member stands for the union."""
    if isinstance(t, ty.StructType):
        fields = t.fields[:1] if t.is_union else t.fields
        for i, (_, ft) in enumerate(fields):
            yield from _leaves(ft, base + t.field_offset(i))
    elif isinstance(t, ty.ArrayType):
        size = t.element.sizeof()
        for i in range(t.count):
            yield from _leaves(t.element, base + i * size)
    else:
        yield base, t


def _wrap(value, t: ty.IntType):
    """``value`` truncated to ``t``'s width, keeping any provenance."""
    bits = t.bits
    x = int(value) & ((1 << bits) - 1)
    if t.signed and bits > 1 and x >> (bits - 1):
        x -= 1 << bits
    prov = getattr(value, "prov", None)
    return x if prov is None else ProvInt(x, prov)


def _unsigned(value, bits: int) -> int:
    return int(value) & ((1 << bits) - 1)


def _signed(value, bits: int) -> int:
    x = _unsigned(value, bits)
    return x - (1 << bits) if bits > 1 and x >> (bits - 1) else x


def _size(t: ty.Type) -> int:
    try:
        return t.sizeof()
    except TypeError:
        return 1


class Interpreter:
    """One run: fresh globals, then entry calls that share them."""

    def __init__(self, built: ModuleConstraints, seed: int, obs: Observations):
        self.built = built
        self.module = built.module
        self.obs = obs
        self.rng = random.Random(seed)
        self.var_of_value = built.var_of_value
        self._serial = 0
        self._next_base = 0x1000
        #: E_rt, insertion-ordered
        self.escaped: Dict[Obj, None] = {}
        self.externals: List[Obj] = []
        self.int_pool: List[int] = []
        self.objects: Dict[GlobalValue, Obj] = {}
        self.depth = 0
        self.external_depth = 0
        self.steps = 0
        self._dispatch = {
            ins.Alloca: self._alloca,
            ins.Load: self._load_inst,
            ins.Store: self._store_inst,
            ins.Gep: self._gep,
            ins.BinOp: self._binop,
            ins.Cmp: self._cmp,
            ins.Cast: self._cast,
            ins.Select: self._select,
            ins.Call: self._call_inst,
            ins.Memcpy: self._memcpy_inst,
        }
        self._summaries = {
            "malloc": self._malloc,
            "free": self._free,
            "memcpy": self._memcpy_call,
        }
        assert set(self._summaries) == set(DEFAULT_SUMMARIES)
        self._init_globals()

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def _new_obj(self, kind, name, size, loc, **kw) -> Obj:
        self._serial += 1
        obj = Obj(self._serial, kind, name, size, loc, self._next_base, **kw)
        self._next_base += (size + 31) // 16 * 16
        return obj

    def _init_globals(self) -> None:
        memloc = self.built.memloc_of
        for gv in self.module.globals.values():
            imported = gv.is_imported
            try:
                size = gv.value_type.sizeof()
            except TypeError:  # an incomplete imported type
                size = EXTERNAL_SIZE
            self.objects[gv] = self._new_obj(
                "global", gv.name, size, memloc[gv], zero=not imported, lazy=imported
            )
        for fn in self.module.functions.values():
            self.objects[fn] = self._new_obj(
                "function", fn.name, 1, memloc[fn], function=fn
            )
        for gv in self.module.globals.values():
            if gv.initializer is not None:
                self._write_constant(self.objects[gv], 0, gv.initializer)
        for gv, obj in self.objects.items():
            if gv.linkage != "internal":
                self._escape(obj, f"its symbol has {gv.linkage} linkage")

    def _write_constant(self, obj: Obj, off: int, const: Constant) -> None:
        if isinstance(const, AggregateConstant):
            t = const.type
            if isinstance(t, ty.StructType):
                for i, element in enumerate(const.elements):
                    self._write_constant(obj, off + t.field_offset(i), element)
            else:
                size = t.element.sizeof()
                for i, element in enumerate(const.elements):
                    self._write_constant(obj, off + i * size, element)
        elif not isinstance(const, UndefConstant):
            self._write(obj, off, _size(const.type), self._value(const, None))

    # ------------------------------------------------------------------
    # Escape (E_rt)
    # ------------------------------------------------------------------

    def _escape(self, obj: Obj, why: str) -> None:
        """Add ``obj`` to E_rt and close E_rt over its cells.  External
        objects are outside the module and need no tracking."""
        stack = [(obj, why)]
        while stack:
            o, why = stack.pop()
            if o.loc is None or o in self.escaped:
                continue
            self.escaped[o] = None
            self.obs.escaped.setdefault(o.loc, f"{o.describe()} escaped: {why}")
            for _, value in o.cells.values():
                for pointee in self._pointees(value):
                    stack.append((pointee, f"reachable from {o.describe()}"))

    @staticmethod
    def _pointees(value) -> List[Obj]:
        if isinstance(value, Ptr):
            return [value.obj] if value.obj is not None else []
        if isinstance(value, ProvInt):
            return [value.prov]
        if isinstance(value, Agg):
            return [o for _, _, v in value.cells for o in Interpreter._pointees(v)]
        return []

    def _pass_out(self, value, why: str) -> None:
        """``value`` reaches external code."""
        for obj in self._pointees(value):
            self._escape(obj, why)
        if isinstance(value, int):
            self.int_pool.append(value)

    def _expose(self, ptr: Ptr, why: str):
        """A pointer becomes an integer (PIP §III-C: Ω ⊒ p)."""
        if ptr.obj is None:
            return ptr.off
        self._escape(ptr.obj, why)
        return ProvInt(ptr.obj.base + ptr.off, ptr.obj)

    def _int_to_ptr(self, value) -> Ptr:
        if not isinstance(value, int):
            raise Fault("inttoptr of an indeterminate value")
        prov = getattr(value, "prov", None)
        if prov is not None:
            return Ptr(prov, int(value) - prov.base)
        if value == 0:
            return NULL
        for obj in self.escaped:  # an exposed object with that address
            if obj.base <= value <= obj.base + obj.size:
                return Ptr(obj, value - obj.base)
        return Ptr(None, int(value))

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def _deref(self, ptr, size: int, what: str) -> Tuple[Obj, int]:
        if ptr is UNDEF or not isinstance(ptr, Ptr):
            raise Fault(f"{what} through an uninitialised pointer")
        obj, off = ptr.obj, ptr.off
        if obj is None:
            raise Fault(f"{what} through a null or wild pointer")
        if not obj.alive:
            raise Fault(f"{what} through a dangling pointer")
        if obj.kind == "function":
            raise Fault(f"{what} through a function pointer")
        if off < 0 or off + size > obj.size:
            raise Fault(f"{what} out of bounds")
        return obj, off

    def _overlapping(self, obj: Obj, off: int, size: int):
        end = off + size
        return [
            (o, s, v) for o, (s, v) in obj.cells.items() if o < end and off < o + s
        ]

    def _clear(self, obj: Obj, off: int, size: int) -> None:
        """Forget bytes [off, off+size); plain integers cut in two keep
        their other bytes as byte cells."""
        end = off + size
        for o, s, v in self._overlapping(obj, off, size):
            del obj.cells[o]
            if type(v) is int:
                for b in range(o, o + s):
                    if not off <= b < end:
                        obj.cells[b] = (1, (v >> (8 * (b - o))) & 0xFF)

    def _write(self, obj: Obj, off: int, size: int, value) -> None:
        old = obj.cells.get(off)
        if old is None or old[0] != size:
            self._clear(obj, off, size)
        if value is UNDEF:
            obj.cells.pop(off, None)
        elif isinstance(value, Agg):
            obj.cells.pop(off, None)
            for rel, s, v in value.cells:
                obj.cells[off + rel] = (s, v)
        else:
            obj.cells[off] = (size, value)
        if obj in self.escaped:
            for pointee in self._pointees(value):
                self._escape(pointee, f"stored into {obj.describe()}")

    def _read(self, obj: Obj, off: int, t: ty.Type):
        if isinstance(t, (ty.StructType, ty.ArrayType)):
            size = t.sizeof()
            if obj.lazy:
                for rel, leaf in _leaves(t):
                    if not self._overlapping(obj, off + rel, _size(leaf)):
                        self._read(obj, off + rel, leaf)
            return Agg([(o - off, s, v) for o, s, v in self._copy_range(obj, off, size)])
        size = t.sizeof()
        cell = obj.cells.get(off)
        if cell is not None and cell[0] == size:
            return self._convert(cell[1], t)
        parts = self._overlapping(obj, off, size)
        if not parts:
            if obj.zero:
                return self._zero(t)
            if obj.lazy:
                value = self._external_value(t, lazy=True)
                obj.cells[off] = (size, value)
                if obj in self.escaped:
                    for pointee in self._pointees(value):
                        self._escape(pointee, f"read from {obj.describe()}")
                return value
            if isinstance(t, ty.PointerType):
                return UNDEF
            return self._zero(t) if isinstance(t, ty.FloatType) else self._pick_int(t)
        # Assemble the bytes of an integer from the cells that cover them.
        if not isinstance(t, ty.IntType):
            raise Fault(f"{t} read from the bytes of other values")
        word = 0
        for o, s, v in parts:
            if isinstance(v, Ptr):
                v = self._expose(v, f"pointer bytes read as {t}")
            elif not isinstance(v, int):
                raise Fault(f"{t} read from the bytes of a float")
            for b in range(max(o, off), min(o + s, off + size)):
                word |= ((int(v) >> (8 * (b - o))) & 0xFF) << (8 * (b - off))
        return _wrap(word, t)

    def _copy_range(self, obj: Obj, off: int, size: int):
        """The cells of [off, off+size) as (offset, size, value); zero
        storage fills its gaps, plain integers cut by the range edge
        give their inside bytes."""
        end = off + size
        out = []
        covered = set()
        for o, s, v in self._overlapping(obj, off, size):
            if off <= o and o + s <= end:
                out.append((o, s, v))
                covered.update(range(o, o + s))
            elif type(v) is int:
                for b in range(max(o, off), min(o + s, end)):
                    out.append((b, 1, (v >> (8 * (b - o))) & 0xFF))
                    covered.add(b)
        if obj.zero:
            out.extend((b, 1, 0) for b in range(off, end) if b not in covered)
        return out

    def _convert(self, value, t: ty.Type):
        """A stored value read back as ``t``."""
        if isinstance(t, ty.PointerType):
            if isinstance(value, Ptr):
                return value
            if isinstance(value, int):
                return self._int_to_ptr(value)
        elif isinstance(t, ty.IntType):
            if isinstance(value, Ptr):
                return _wrap(self._expose(value, f"pointer read as {t}"), t)
            if isinstance(value, int):
                return _wrap(value, t)
        elif isinstance(t, ty.FloatType):
            if isinstance(value, float):
                return value
        raise Fault(f"{type(value).__name__} read as {t}")

    @staticmethod
    def _zero(t: ty.Type):
        if isinstance(t, ty.PointerType):
            return NULL
        if isinstance(t, ty.FloatType):
            return 0.0
        return 0

    # ------------------------------------------------------------------
    # The external world
    # ------------------------------------------------------------------

    def _external_obj(self, size: int = EXTERNAL_SIZE) -> Obj:
        obj = self._new_obj("external", "", max(size, EXTERNAL_SIZE), None, lazy=True)
        self.externals.append(obj)
        return obj

    def _pick_address(self, pointee: Optional[ty.Type]) -> Ptr:
        """An address external code may hold: an object of E_rt, or an
        external object (a function, when ``pointee`` is a function type)."""
        rng = self.rng
        if isinstance(pointee, ty.FunctionType):
            candidates = [
                o for o in self.escaped
                if o.function is not None and o.function.func_type == pointee
            ]
        else:
            need = 1 if pointee is None else _size(pointee)
            candidates = [
                o for o in self.escaped
                if o.alive and o.size >= need and (o.function is None or pointee is None)
            ]
        if candidates and rng.random() < 0.7:
            return Ptr(rng.choice(candidates), 0)
        if self.externals and rng.random() < 0.5:
            usable = [o for o in self.externals if o.alive]
            if usable:
                return Ptr(rng.choice(usable), 0)
        return Ptr(self._external_obj(_size(pointee) if pointee is not None else 0), 0)

    def _pick_int(self, t: ty.IntType):
        if self.int_pool and t.bits >= 32 and self.rng.random() < 0.5:
            return _wrap(self.rng.choice(self.int_pool), t)
        return _wrap(self.rng.choice(SMALL_INTS), t)

    def _external_value(self, t: ty.Type, lazy: bool = False):
        """A value external code produces for a slot of type ``t``."""
        if isinstance(t, ty.PointerType):
            if lazy and self.rng.random() < 0.3:
                return NULL  # lets walks over external lists end
            return self._pick_address(t.pointee)
        if isinstance(t, ty.IntType):
            return self._pick_int(t)
        if isinstance(t, ty.FloatType):
            return 0.5
        if isinstance(t, (ty.StructType, ty.ArrayType)):
            return self._read(self._external_obj(t.sizeof()), 0, t)
        return None  # void

    def _external_call(self, name: str, args: List, ret: ty.Type):
        """A call into code outside the module (PIP §III-B: ImpFunc)."""
        for value in args:
            self._pass_out(value, f"passed to external `{name}`")
        rng = self.rng
        for _ in range(rng.randrange(3)):  # writes into escaped memory
            targets = [
                o for o in self.escaped if o.alive and o.function is None and o.size >= 8
            ]
            if not targets:
                break
            obj = rng.choice(targets)
            off = rng.randrange(0, obj.size - 7, 8)
            self._write(obj, off, 8, self._pick_address(None))
        if self.external_depth < MAX_EXTERNAL_DEPTH:
            handed = [
                a.obj.function for a in args
                if isinstance(a, Ptr) and a.obj is not None and a.obj.function is not None
            ]
            defined = [
                o.function for o in self.escaped
                if o.function is not None and not o.function.is_declaration
            ]
            if defined and rng.random() < 0.5:  # constraint ④: any escaped function
                handed.append(rng.choice(defined))
            self.external_depth += 1
            try:
                for fn in handed:
                    if not fn.is_declaration:
                        self._call_from_outside(fn)
            finally:
                self.external_depth -= 1
        return self._external_value(ret)

    def _call_from_outside(self, fn: Function):
        args = [self._external_value(p) for p in fn.func_type.params]
        result = self._invoke(fn, args)
        self._pass_out(result, f"returned by `{fn.name}` to external code")
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def call_entry(self, fn: Function):
        """One call from external code; raises :class:`Fault` on no verdict."""
        self.steps = 0
        self.depth = 0
        self.external_depth = 0
        return self._call_from_outside(fn)

    def _observe(self, var: int, value, fn: Function, where) -> None:
        """Check (a)'s raw material: ``var`` held a pointer into ``obj``."""
        if type(value) is Ptr:
            objs = (value.obj,) if value.obj is not None else ()
        elif type(value) is Agg:
            objs = [v.obj for _, _, v in value.cells if type(v) is Ptr and v.obj]
        else:
            return
        points = self.obs.points
        for obj in objs:
            key = (var, obj.loc)
            if key not in points:
                text = (
                    print_instruction(where) if isinstance(where, ins.Instruction)
                    else f"argument %{where.name}"
                )
                points[key] = (fn.name, text, obj.describe())

    def _value(self, v: Value, regs: Optional[Dict]):
        if regs is not None:
            got = regs.get(v)
            if got is not None:
                return got
        if isinstance(v, IntConstant):
            return _wrap(v.value, v.type)
        if isinstance(v, NullConstant):
            return NULL
        if isinstance(v, GlobalValue):
            return Ptr(self.objects[v], 0)
        if isinstance(v, FloatConstant):
            return float(v.value)
        if isinstance(v, UndefConstant):
            return UNDEF
        if isinstance(v, (ins.Instruction, Argument)):
            return UNDEF  # defined on a path not taken (verified SSA)
        raise Fault(f"unsupported operand {v!r}")

    def _invoke(self, fn: Function, args: List):
        if self.depth >= MAX_DEPTH:
            raise Fault("call depth limit")
        if len(args) < len(fn.args):
            raise Fault(f"`{fn.name}` called with too few arguments")
        self.depth += 1
        regs: Dict[Value, object] = {}
        frame: List[Obj] = []
        var_of = self.var_of_value
        kinds = self.obs.kinds
        for arg, value in zip(fn.args, args):
            regs[arg] = value
            var = var_of.get(arg)
            if var is not None:
                self._observe(var, value, fn, arg)
        try:
            block, prev = fn.entry, None
            while True:
                insts = block.instructions
                i = 0
                if prev is not None and isinstance(insts[0], ins.Phi):
                    incoming = []
                    kinds.add(ins.Phi)
                    while isinstance(insts[i], ins.Phi):
                        phi = insts[i]
                        value = next(
                            (v for v, b in phi.incoming if b is prev), None
                        )
                        if value is None:
                            raise Fault("phi without an edge from its predecessor")
                        incoming.append((phi, self._value(value, regs)))
                        i += 1
                    for phi, value in incoming:
                        regs[phi] = value
                        var = var_of.get(phi)
                        if var is not None:
                            self._observe(var, value, fn, phi)
                for inst in insts[i:] if i else insts:
                    self.steps += 1
                    if self.steps > MAX_STEPS:
                        raise Fault("step budget")
                    kind = type(inst)
                    kinds.add(kind)
                    if kind is ins.Br:
                        if inst.cond is None:
                            target = inst.targets[0]
                        else:
                            cond = self._value(inst.cond, regs)
                            if not isinstance(cond, int):
                                raise Fault("branch on an indeterminate value")
                            target = inst.targets[0 if cond else 1]
                        block, prev = target, block
                        break
                    if kind is ins.Ret:
                        if inst.value is None:
                            return None
                        return self._value(inst.value, regs)
                    if kind is ins.Unreachable:
                        raise Fault("unreachable executed")
                    value = self._dispatch[kind](inst, regs, frame)
                    if inst.has_result:
                        regs[inst] = value
                        var = var_of.get(inst)
                        if var is not None:
                            self._observe(var, value, fn, inst)
                else:
                    raise Fault("fell off a block")
        finally:
            for obj in frame:
                obj.alive = False
            self.depth -= 1

    # -- instruction handlers (inst, regs, frame) -> result -------------

    def _alloca(self, inst, regs, frame):
        obj = self._new_obj(
            "alloca",
            f"{inst.parent.parent.name}.{inst.name}",
            _size(inst.allocated_type),
            self.built.memloc_of[inst],
        )
        frame.append(obj)
        return Ptr(obj, 0)

    def _load_inst(self, inst, regs, frame):
        obj, off = self._deref(
            self._value(inst.pointer, regs), _size(inst.type), "load"
        )
        return self._read(obj, off, inst.type)

    def _store_inst(self, inst, regs, frame):
        t = inst.value.type
        obj, off = self._deref(self._value(inst.pointer, regs), _size(t), "store")
        self._write(obj, off, _size(t), self._value(inst.value, regs))

    def _gep(self, inst, regs, frame):
        base = self._value(inst.base, regs)
        if not isinstance(base, Ptr):
            raise Fault("gep on an uninitialised pointer")
        if inst.constant_offset is not None:
            delta = inst.constant_offset
        else:
            if len(inst.indices) != 1:
                raise Fault("gep with several non-constant indices")
            index = self._value(inst.indices[0], regs)
            if not isinstance(index, int):
                raise Fault("gep index is indeterminate")
            index = _signed(index, inst.indices[0].type.bits)
            pointee = inst.base.type.pointee
            if isinstance(pointee, ty.StructType) and inst.type != inst.base.type:
                delta = pointee.field_offset(index)  # a field index
            else:
                delta = index * _size(pointee)  # an element index
        return Ptr(base.obj, base.off + delta)

    def _ints(self, inst, regs):
        a = self._value(inst.operands[0], regs)
        b = self._value(inst.operands[1], regs)
        if a is UNDEF or b is UNDEF or isinstance(a, Ptr) or isinstance(b, Ptr):
            raise Fault(f"{inst.opcode} on an indeterminate value")
        return a, b

    def _binop(self, inst, regs, frame):
        a, b = self._ints(inst, regs)
        op = inst.op
        if op[0] == "f":
            if op == "fdiv":
                if b == 0:
                    raise Fault("division by zero")
                return a / b
            return a + b if op == "fadd" else a - b if op == "fsub" else a * b
        t = inst.type
        bits = t.bits
        if op in ("sdiv", "srem", "udiv", "urem") and int(b) == 0:
            raise Fault("division by zero")
        if op in ("shl", "lshr", "ashr") and not 0 <= int(b) < bits:
            raise Fault("shift out of range")
        x, y = int(a), int(b)
        if op == "add":
            r = x + y
        elif op == "sub":
            r = x - y
        elif op == "mul":
            r = x * y
        elif op in ("sdiv", "srem"):
            x, y = _signed(x, bits), _signed(y, bits)
            q = abs(x) // abs(y) * (1 if (x < 0) == (y < 0) else -1)
            r = q if op == "sdiv" else x - q * y
        elif op == "udiv":
            r = _unsigned(x, bits) // _unsigned(y, bits)
        elif op == "urem":
            r = _unsigned(x, bits) % _unsigned(y, bits)
        elif op == "and":
            r = x & y
        elif op == "or":
            r = x | y
        elif op == "xor":
            r = x ^ y
        elif op == "shl":
            r = x << y
        elif op == "lshr":
            r = _unsigned(x, bits) >> y
        else:  # ashr
            r = _signed(x, bits) >> y
        pa, pb = getattr(a, "prov", None), getattr(b, "prov", None)
        prov = pa if pb is None else pb if pa is None else None
        return _wrap(r if prov is None else ProvInt(r, prov), t)

    def _cmp(self, inst, regs, frame):
        a = self._value(inst.operands[0], regs)
        b = self._value(inst.operands[1], regs)
        if a is UNDEF or b is UNDEF:
            raise Fault("comparison of an indeterminate value")
        pred = inst.predicate
        t = inst.operands[0].type
        if isinstance(a, Ptr) or isinstance(b, Ptr):
            x, y = self._address(a), self._address(b)
        elif isinstance(t, ty.IntType):
            conv = _unsigned if pred[0] == "u" else _signed
            x, y = conv(a, t.bits), conv(b, t.bits)
        else:
            x, y = a, b
        op = pred[1:] if pred[0] in "su" else pred
        return int({
            "eq": x == y, "ne": x != y, "lt": x < y,
            "le": x <= y, "gt": x > y, "ge": x >= y,
        }[op])

    @staticmethod
    def _address(value) -> int:
        if not isinstance(value, Ptr):
            raise Fault("pointer compared with a non-pointer")
        return (value.obj.base if value.obj is not None else 0) + value.off

    def _cast(self, inst, regs, frame):
        value = self._value(inst.value, regs)
        kind = inst.kind
        if value is UNDEF:
            if kind == "bitcast":
                return UNDEF
            raise Fault(f"{kind} of an indeterminate value")
        to = inst.type
        if kind == "bitcast":
            return value
        if kind == "ptrtoint":
            fn = inst.parent.parent.name
            return _wrap(self._expose(value, f"ptrtoint in `{fn}`"), to)
        if kind == "inttoptr":
            return self._int_to_ptr(value)
        if kind in ("trunc", "sext"):
            src = inst.value.type
            signed = _signed(value, src.bits) if kind == "sext" else int(value)
            prov = getattr(value, "prov", None)
            return _wrap(signed if prov is None else ProvInt(signed, prov), to)
        if kind == "zext":
            raw = _unsigned(value, inst.value.type.bits)
            prov = getattr(value, "prov", None)
            return _wrap(raw if prov is None else ProvInt(raw, prov), to)
        if kind in ("fptrunc", "fpext"):
            return float(value)
        if kind in ("sitofp", "uitofp"):
            bits = inst.value.type.bits
            conv = _signed if kind == "sitofp" else _unsigned
            return float(conv(value, bits))
        # fptosi / fptoui
        if value != value or value in (float("inf"), float("-inf")):
            raise Fault("float to integer overflow")
        return _wrap(int(value), to)

    def _select(self, inst, regs, frame):
        cond = self._value(inst.cond, regs)
        if not isinstance(cond, int):
            raise Fault("select on an indeterminate value")
        return self._value(inst.if_true if cond else inst.if_false, regs)

    def _memcpy(self, dst, src, length) -> None:
        if not isinstance(length, int):
            raise Fault("memcpy length is indeterminate")
        n = int(length)
        if n == 0:
            return
        sobj, soff = self._deref(src, n, "memcpy read")
        dobj, doff = self._deref(dst, n, "memcpy write")
        cells = self._copy_range(sobj, soff, n)
        self._clear(dobj, doff, n)
        self._write(dobj, doff, n, Agg([(o - soff, s, v) for o, s, v in cells]))

    def _memcpy_inst(self, inst, regs, frame):
        self._memcpy(
            self._value(inst.dst, regs),
            self._value(inst.src, regs),
            self._value(inst.length, regs),
        )

    def _call_inst(self, inst, regs, frame):
        callee = inst.callee
        args = [self._value(a, regs) for a in inst.args]
        if isinstance(callee, Function):
            if not callee.is_declaration:
                return self._invoke(callee, args)
            if callee.linkage == "internal":
                raise Fault(f"call to undefined static `{callee.name}`")
            summary = self._summaries.get(callee.name)
            if summary is not None:
                return summary(inst, args)
            return self._external_call(callee.name, args, inst.type)
        target = self._value(callee, regs)
        if not isinstance(target, Ptr) or target.obj is None:
            raise Fault("call through a null or uninitialised pointer")
        obj = target.obj
        if target.off != 0 or not obj.alive:
            raise Fault("call through a bad function pointer")
        if obj.kind == "external":
            return self._external_call(obj.describe(), args, inst.type)
        fn = obj.function
        if fn is None:
            raise Fault("call through a data pointer")
        if not fn.is_declaration:
            return self._invoke(fn, args)
        if fn.linkage == "internal":
            raise Fault(f"call to undefined static `{fn.name}`")
        # An indirect call to an import, summarised or not, is ImpFunc.
        return self._external_call(fn.name, args, inst.type)

    # -- DEFAULT_SUMMARIES, run concretely (direct calls only) ----------

    def _malloc(self, inst, args):
        if not args or not isinstance(args[0], int):
            raise Fault("malloc size is indeterminate")
        n = int(args[0])
        if n <= 0 or n > MAX_MALLOC:
            return NULL
        site = self.built.heap_site_of[inst]
        name = self.built.program.var_names[site]
        return Ptr(self._new_obj("heap", name, n, site), 0)

    def _free(self, inst, args):
        ptr = args[0] if args else UNDEF
        if isinstance(ptr, Ptr) and ptr.obj is None and ptr.off == 0:
            return None
        if (
            not isinstance(ptr, Ptr)
            or ptr.obj is None
            or ptr.off != 0
            or not ptr.obj.alive
            or ptr.obj.kind not in ("heap", "external")
        ):
            raise Fault("invalid free")
        ptr.obj.alive = False
        return None

    def _memcpy_call(self, inst, args):
        if len(args) < 3:
            raise Fault("memcpy with too few arguments")
        self._memcpy(args[0], args[1], args[2])
        return args[0] if inst.has_result else None


def run_program(built: ModuleConstraints, seeds) -> Observations:
    """Per seed, call every defined exported function in module order,
    from fresh globals that persist from one call to the next."""
    obs = Observations()
    entries = [
        fn for fn in built.module.functions.values()
        if not fn.is_declaration and fn.linkage == "external"
    ]
    for seed in seeds:
        interp = Interpreter(built, seed, obs)
        for fn in entries:
            obs.calls += 1
            try:
                interp.call_entry(fn)
            except Fault as fault:
                reason = str(fault)
                obs.faults[reason] = obs.faults.get(reason, 0) + 1
            else:
                obs.returned += 1
    return obs


def violations(obs: Observations, built: ModuleConstraints, solution) -> List[str]:
    """Every observation ``solution`` fails to cover, as readable lines:
    (a) a register's runtime pointee missing from its Sol (Ω for an
    external object); (b) an escaped object missing from E."""
    names = built.program.var_names
    out = []
    for (var, loc), (fn, where, obj) in obs.points.items():
        want = OMEGA if loc is None else loc
        if want not in solution.points_to(var):
            out.append(
                f"in `{fn}`, `{where}` held {obj}, but Sol({names[var]})"
                f" lacks {want if loc is None else names[loc]}"
            )
    for loc, why in obs.escaped.items():
        if loc not in solution.external:
            out.append(f"{why}; `{names[loc]}` is not in E")
    return out
