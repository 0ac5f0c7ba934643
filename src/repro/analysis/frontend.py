"""Phase 1: converting IR modules into constraint programs (paper §II-A,
§III-B, §III-C).

For a :class:`repro.ir.Module` this produces a
:class:`~repro.analysis.constraints.ConstraintProgram` plus the maps the
alias-analysis client needs to go from IR values to constraint
variables.

Modelling decisions (following the paper):

- virtual registers are in P only if their type is pointer compatible;
- named memory objects (globals, allocas, functions) get one abstract
  memory location each; heap allocations are named by allocation site;
- exported and imported symbols are marked externally accessible
  (Ω ⊒ {x});
- imported functions get ImpFunc(f) unless a summary is registered
  (default summaries: ``malloc``, ``free``, ``memcpy`` — paper §V-B);
- ``ptrtoint`` marks Ω ⊒ p, ``inttoptr`` marks p ⊒ Ω (§III-C);
- loads/stores of pointer-incompatible values add the pointer-smuggling
  flags Ω ⊒ *p and *p ⊒ Ω (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..ir import instructions as ins
from ..ir import types as ty
from ..ir.module import Function, Module
from ..ir.values import (
    AggregateConstant,
    Argument,
    Constant,
    GlobalValue,
    GlobalVariable,
    NullConstant,
    UndefConstant,
    Value,
)
from .constraints import ConstraintProgram, ProgramSymbol


@dataclass
class ModuleConstraints:
    """The constraint program for a module plus IR ↔ variable maps."""

    module: Module
    program: ConstraintProgram
    #: IR Value (register-like: instruction result, argument, or the
    #: address of a global) → constraint variable
    var_of_value: Dict[Value, int] = field(default_factory=dict)
    #: memory object (alloca instruction, global, function) → memory var
    memloc_of: Dict[Value, int] = field(default_factory=dict)
    #: heap allocation site (the Call instruction) → memory var
    heap_site_of: Dict[Value, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Summary functions for well-known external functions
# ----------------------------------------------------------------------

SummaryFn = Callable[["ConstraintBuilder", ins.Call], None]


def _summary_malloc(builder: "ConstraintBuilder", call: ins.Call) -> None:
    builder.model_heap_allocation(call)


def _summary_free(builder: "ConstraintBuilder", call: ins.Call) -> None:
    pass  # free neither creates nor propagates pointees


def _summary_memcpy(builder: "ConstraintBuilder", call: ins.Call) -> None:
    if len(call.args) >= 2:
        builder.model_memcpy(call.args[0], call.args[1])
    # memcpy returns dst.
    result = builder.built.var_of_value.get(call)
    dst = builder.operand_var(call.args[0]) if call.args else None
    if result is not None and dst is not None:
        builder.program.add_simple(result, dst)


#: the paper's special-cased library functions (§V-B)
DEFAULT_SUMMARIES: Dict[str, SummaryFn] = {
    "malloc": _summary_malloc,
    "free": _summary_free,
    "memcpy": _summary_memcpy,
}

#: a larger, optional registry for clients that want more precision
EXTENDED_SUMMARIES: Dict[str, SummaryFn] = {
    **DEFAULT_SUMMARIES,
    "calloc": _summary_malloc,
    "aligned_alloc": _summary_malloc,
    "memmove": _summary_memcpy,
}


def _summary_realloc(builder: "ConstraintBuilder", call: ins.Call) -> None:
    builder.model_heap_allocation(call)
    if call.args:
        src = builder.operand_var(call.args[0])
        result = builder.built.var_of_value.get(call)
        if src is not None and result is not None:
            builder.program.add_simple(result, src)


EXTENDED_SUMMARIES["realloc"] = _summary_realloc


# ----------------------------------------------------------------------


class ConstraintBuilder:
    """Builds the constraint program for one module."""

    def __init__(
        self,
        module: Module,
        summaries: Optional[Dict[str, SummaryFn]] = None,
    ):
        self.module = module
        self.program = ConstraintProgram(module.name)
        self.summaries = DEFAULT_SUMMARIES if summaries is None else summaries
        self.built = ModuleConstraints(module, self.program)
        self._null_reg: Optional[int] = None
        self._current_fn: Optional[Function] = None
        #: summary functions whose address escaped into data flow; they
        #: fall back to ImpFunc for soundness on indirect calls
        self._address_taken_summaries: List[Value] = []

    # ------------------------------------------------------------------

    def build(self) -> ModuleConstraints:
        self._declare_memory_objects()
        self._seed_linkage_escapes()
        self._build_global_initializers()
        for fn in self.module.functions.values():
            if not fn.is_declaration:
                self._build_function(fn)
        for fn_value in self._address_taken_summaries:
            self.program.mark_imported_function(self.built.memloc_of[fn_value])
        return self.built

    # ------------------------------------------------------------------

    def _declare_memory_objects(self) -> None:
        program, built = self.program, self.built
        for gv in self.module.globals.values():
            loc = program.add_memory(
                gv.name,
                pointer_compatible=gv.value_type.is_pointer_compatible(),
            )
            built.memloc_of[gv] = loc
            program.add_symbol(
                ProgramSymbol(
                    name=gv.name,
                    var=loc,
                    kind="data",
                    linkage=gv.linkage,
                    defined=not gv.is_imported,
                    type_key=str(gv.value_type),
                )
            )
        for fn in self.module.functions.values():
            loc = program.add_var(
                fn.name, pointer_compatible=False, is_memory=True
            )
            built.memloc_of[fn] = loc
            program.add_symbol(
                ProgramSymbol(
                    name=fn.name,
                    var=loc,
                    kind="func",
                    linkage=fn.linkage,
                    defined=not fn.is_declaration,
                    type_key=str(fn.func_type),
                )
            )

    def _is_imported(self, fn: Function) -> bool:
        return fn.is_declaration and fn.linkage in ("external", "import")

    def _seed_linkage_escapes(self) -> None:
        """Exported and imported symbols are externally accessible.

        ``static`` (internal linkage) symbols are invisible outside the
        translation unit: they must *never* receive a linkage-seeded
        ``flag_ea`` — they can still escape semantically, through data
        flow, but not by name.
        """
        program, built = self.program, self.built
        for gv in self.module.globals.values():
            if gv.linkage == "internal":
                continue
            if gv.is_exported or gv.is_imported:
                program.mark_externally_accessible(
                    built.memloc_of[gv], linkage=True
                )
        for fn in self.module.functions.values():
            if fn.linkage == "internal":
                continue
            loc = built.memloc_of[fn]
            if self._is_imported(fn):
                program.mark_externally_accessible(loc, linkage=True)
                if fn.name not in self.summaries:
                    program.mark_imported_function(loc)
            elif fn.is_exported:
                program.mark_externally_accessible(loc, linkage=True)

    def _build_global_initializers(self) -> None:
        for gv in self.module.globals.values():
            if gv.initializer is not None:
                self._init_targets(self.built.memloc_of[gv], gv.initializer)

    def _note_function_reference(self, value: Value) -> None:
        """Track summarised external functions whose address escapes into
        data flow; they need the ImpFunc fallback for indirect calls."""
        if (
            isinstance(value, Function)
            and self._is_imported(value)
            and value.name in self.summaries
            and value not in self._address_taken_summaries
        ):
            self._address_taken_summaries.append(value)

    def _init_targets(self, holder: int, const: Constant) -> None:
        """Record base constraints for address references in initialisers."""
        if isinstance(const, GlobalValue):
            self._note_function_reference(const)
            self.program.add_base(holder, self.built.memloc_of[const])
        elif isinstance(const, AggregateConstant):
            for element in const.elements:
                self._init_targets(holder, element)
        # integer/float/null/undef initialisers carry no pointees

    # ------------------------------------------------------------------

    def _null(self) -> int:
        """A shared pointer register with a permanently empty Sol set,
        standing in for null/undef pointer operands."""
        if self._null_reg is None:
            self._null_reg = self.program.add_register("null")
        return self._null_reg

    def operand_var(self, value: Value) -> Optional[int]:
        """Constraint variable for an operand (None if untracked)."""
        existing = self.built.var_of_value.get(value)
        if existing is not None:
            return existing
        if isinstance(value, GlobalValue):
            # The value of a global symbol is its address: a register
            # with a base constraint pointing at the memory object.
            reg = self.program.add_register(f"&{value.name}")
            self.program.add_base(reg, self.built.memloc_of[value])
            self.built.var_of_value[value] = reg
            self._note_function_reference(value)
            return reg
        if isinstance(value, (NullConstant, UndefConstant)):
            if value.type.is_pointer_compatible():
                return self._null()
            return None
        if isinstance(value, Constant):
            return None
        # Instruction results and arguments were registered up front.
        return None

    # ------------------------------------------------------------------

    def _build_function(self, fn: Function) -> None:
        program, built = self.program, self.built
        self._current_fn = fn
        prefix = fn.name
        # Formal parameters.
        arg_vars: List[Optional[int]] = []
        for arg in fn.args:
            if arg.type.is_pointer_compatible():
                v = program.add_register(f"{prefix}.{arg.name}")
                built.var_of_value[arg] = v
                arg_vars.append(v)
            else:
                arg_vars.append(None)
        # Return-value node.
        ret_var: Optional[int] = None
        if fn.return_type.is_pointer_compatible():
            ret_var = program.add_register(f"{prefix}.ret")
        program.add_func(
            built.memloc_of[fn], ret_var, arg_vars, variadic=fn.func_type.variadic
        )

        # Pre-create result registers (phis may be used before defined).
        for inst in fn.instructions():
            if inst.has_result and inst.type.is_pointer_compatible():
                built.var_of_value[inst] = program.add_register(
                    f"{prefix}.%{inst.name}"
                )

        for inst in fn.instructions():
            self._build_instruction(fn, inst, ret_var)

    # ------------------------------------------------------------------

    def model_heap_allocation(self, call: ins.Call) -> None:
        """Result of an allocator call: a fresh per-site heap location.

        Sites are named ``heap.<function>.<instruction>`` — qualified by
        the enclosing function (whose instruction names restart per
        function), so site names are stable under cross-TU linking and
        identical between a linked program and its concatenated-source
        equivalent (a module-level counter would not be).
        """
        result = self.built.var_of_value.get(call)
        if self._current_fn is not None and call.name:
            site_name = f"heap.{self._current_fn.name}.{call.name}"
        else:  # no enclosing function context (synthetic callers)
            site_name = f"heap.{len(self.built.heap_site_of)}"
        site = self.program.add_memory(site_name, pointer_compatible=True)
        self.built.heap_site_of[call] = site
        if result is not None:
            self.program.add_base(result, site)

    def model_memcpy(self, dst: Value, src: Value) -> None:
        """memcpy: *dst ⊇ *src via a temporary register (§V-B)."""
        dv, sv = self.operand_var(dst), self.operand_var(src)
        if dv is None or sv is None:
            return
        tmp = self.program.add_register("memcpy.tmp")
        self.program.add_load(tmp, sv)
        self.program.add_store(dv, tmp)
        # Raw byte copies can also smuggle pointers through scalar
        # channels; the §V-B dynamic rule covers mixed-compatibility
        # targets, so no extra flags are needed here.

    # ------------------------------------------------------------------

    def _build_instruction(
        self, fn: Function, inst: ins.Instruction, ret_var: Optional[int]
    ) -> None:
        program, built = self.program, self.built
        result = built.var_of_value.get(inst)

        if isinstance(inst, ins.Alloca):
            loc = program.add_memory(
                f"{fn.name}.{inst.name}",
                pointer_compatible=inst.allocated_type.is_pointer_compatible(),
            )
            built.memloc_of[inst] = loc
            if result is not None:
                program.add_base(result, loc)
            return

        if isinstance(inst, ins.Load):
            pv = self.operand_var(inst.pointer)
            if pv is None:
                return
            if result is not None:
                program.add_load(result, pv)
            else:
                # Pointer smuggling: a scalar is loaded through pv.
                program.mark_load_scalar(pv)
            return

        if isinstance(inst, ins.Store):
            pv = self.operand_var(inst.pointer)
            if pv is None:
                return
            if inst.value.type.is_pointer_compatible():
                vv = self.operand_var(inst.value)
                if vv is not None:
                    program.add_store(pv, vv)
            else:
                # Pointer smuggling: a scalar is stored through pv.
                program.mark_store_scalar(pv)
            return

        if isinstance(inst, ins.Gep):
            # Field-insensitive: the derived pointer aliases its base.
            bv = self.operand_var(inst.base)
            if result is not None and bv is not None:
                program.add_simple(result, bv)
            return

        if isinstance(inst, ins.Cast):
            self._build_cast(inst, result)
            return

        if isinstance(inst, ins.Select):
            if result is not None:
                for src in (inst.if_true, inst.if_false):
                    sv = self.operand_var(src)
                    if sv is not None:
                        program.add_simple(result, sv)
            return

        if isinstance(inst, ins.Phi):
            if result is not None:
                for value, _block in inst.incoming:
                    sv = self.operand_var(value)
                    if sv is not None:
                        program.add_simple(result, sv)
            return

        if isinstance(inst, ins.Call):
            self._build_call(inst, result)
            return

        if isinstance(inst, ins.Memcpy):
            self.model_memcpy(inst.dst, inst.src)
            return

        if isinstance(inst, ins.Ret):
            if inst.value is not None and ret_var is not None:
                sv = self.operand_var(inst.value)
                if sv is not None:
                    program.add_simple(ret_var, sv)
            return

        # BinOp, Cmp, Br, Unreachable: no pointer flow.

    def _build_cast(self, inst: ins.Cast, result: Optional[int]) -> None:
        program = self.program
        sv = self.operand_var(inst.value)
        if inst.kind == "bitcast":
            if result is not None and sv is not None:
                program.add_simple(result, sv)
            return
        if inst.kind == "ptrtoint":
            # §III-C: pointees of the cast pointer become exposed.
            if sv is not None:
                program.mark_pointees_escape(sv)
            return
        if inst.kind == "inttoptr":
            # §III-C: the new pointer has unknown origin.
            if result is not None:
                program.mark_points_to_external(result)
            return
        # Numeric casts carry no provenance.

    def _build_call(self, call: ins.Call, result: Optional[int]) -> None:
        program, built = self.program, self.built
        callee = call.callee
        # Direct calls to summarised external functions.
        if isinstance(callee, Function) and self._is_imported(callee):
            summary = self.summaries.get(callee.name)
            if summary is not None:
                summary(self, call)
                return
        target = self.operand_var(callee)
        if target is None:
            return
        arg_vars: List[Optional[int]] = []
        for arg in call.args:
            if arg.type.is_pointer_compatible():
                arg_vars.append(self.operand_var(arg))
                if arg_vars[-1] is None:
                    arg_vars[-1] = self._null()
            else:
                arg_vars.append(None)
        program.add_call(target, result, arg_vars)


def build_constraints(
    module: Module,
    summaries: Optional[Dict[str, SummaryFn]] = None,
) -> ModuleConstraints:
    """Convert an IR module into a constraint program (analysis phase 1)."""
    return ConstraintBuilder(module, summaries).build()
