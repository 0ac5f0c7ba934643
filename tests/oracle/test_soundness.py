"""Soundness against concrete execution.

``interp.py`` runs each program's exported functions under a hostile
external world and records what really happened: which object each
pointer register held, and which objects external code could reach.
Every solution must cover those observations, under every pointer
representation, with and without PIP, on both points-to-set backends.
Four builder defects seeded here show that the checks have teeth.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple

import pytest

from repro.analysis import (
    ConstraintBuilder,
    ConstraintProgram,
    ModuleConstraints,
    build_constraints,
    parse_name,
    run_configuration,
)
from repro.bench.runner import TABLE5_CONFIGS
from repro.frontend import compile_c
from repro.ir import IRBuilder, Function, Module, instructions as ins, types as ty

from tests.oracle.interp import Observations, run_program, violations
from tests.oracle.programs import generated, hand_written

CONFIGURATIONS = [
    parse_name(name + suffix)
    for name in [*TABLE5_CONFIGS, "IP+Naive", "EP+Naive", "IP+Reduce+WL(FIFO)+PIP"]
    for suffix in ("", "+PTS(bitset)")
]

#: the seeds of one hand-written program's runs, and of a generated unit's
HAND_SEEDS = range(8)
UNIT_SEEDS = range(3)

HAND_WRITTEN = dict(hand_written())
GENERATED = dict(generated())


@functools.lru_cache(maxsize=None)
def observed(label: str) -> Tuple[ModuleConstraints, Observations]:
    if label in HAND_WRITTEN:
        source, seeds = HAND_WRITTEN[label], HAND_SEEDS
    else:
        source, seeds = GENERATED[label], UNIT_SEEDS
    built = build_constraints(compile_c(source, label))
    return built, run_program(built, seeds)


def _check_every_configuration(label, built, obs) -> None:
    failures = []
    for config in CONFIGURATIONS:
        problems = violations(obs, built, run_configuration(built.program, config))
        failures += [f"[{config.name}] {problem}" for problem in problems[:3]]
    if failures:
        pytest.fail(
            f"{label}: the analysis misses what a concrete run did\n"
            + "\n".join(failures),
            pytrace=False,
        )


@pytest.mark.parametrize("label", [*HAND_WRITTEN, *GENERATED])
def test_every_solution_covers_the_runs(label):
    _check_every_configuration(label, *observed(label))


@pytest.mark.parametrize("label", list(HAND_WRITTEN))
def test_hand_written_programs_return(label):
    _, obs = observed(label)
    assert obs.returned >= 1, f"no entry call returned normally: {obs.faults}"
    assert obs.points, "no pointer value was observed"


def test_every_instruction_kind_runs():
    kinds = set(_select_and_unreachable()[1].kinds)
    for label in HAND_WRITTEN:
        kinds |= observed(label)[1].kinds
    every = {
        cls for cls in vars(ins).values()
        if isinstance(cls, type) and issubclass(cls, ins.Instruction)
        and cls is not ins.Instruction
    }
    assert len(every) == 14
    assert kinds == every, sorted(c.__name__ for c in every - kinds)


@functools.lru_cache(maxsize=None)
def _select_and_unreachable() -> Tuple[ModuleConstraints, Observations]:
    """The two kinds the C frontend never emits, built by hand:
    ``i32* pick(i32 c, i32* a, i32* b)`` selects a or b and reaches
    ``unreachable`` when ``c == 0``."""
    module = Module("pick")
    intp = ty.ptr(ty.I32)
    fn = module.add_function(
        Function(ty.FunctionType(intp, (ty.I32, intp, intp)), "pick")
    )
    b = IRBuilder(module)
    b.set_function(fn)
    entry, done, trap = fn.add_block("entry"), fn.add_block("done"), fn.add_block("trap")
    b.position_at_end(entry)
    zero = b.const_int(0)
    picked = b.select(b.cmp("slt", fn.args[0], zero), fn.args[1], fn.args[2])
    b.cond_br(b.cmp("ne", fn.args[0], zero), done, trap)
    b.position_at_end(done)
    b.ret(picked)
    b.position_at_end(trap)
    b.unreachable()
    built = build_constraints(module)
    return built, run_program(built, range(60))


def test_hand_built_select_is_covered():
    built, obs = _select_and_unreachable()
    assert obs.faults.get("unreachable executed")
    assert obs.returned
    _check_every_configuration("pick", built, obs)


# ----------------------------------------------------------------------
# Teeth: each seeded constraint-generation defect must be reported.
# ----------------------------------------------------------------------


def _drop_inttoptr_omega(monkeypatch):
    original = ConstraintBuilder._build_cast

    def build_cast(self, inst, result):
        if inst.kind != "inttoptr":
            original(self, inst, result)

    monkeypatch.setattr(ConstraintBuilder, "_build_cast", build_cast)


def _drop_pointer_stores(monkeypatch):
    original = ConstraintBuilder._build_instruction

    def build_instruction(self, fn, inst, ret_var):
        if not (
            isinstance(inst, ins.Store) and inst.value.type.is_pointer_compatible()
        ):
            original(self, fn, inst, ret_var)

    monkeypatch.setattr(ConstraintBuilder, "_build_instruction", build_instruction)


def _skip_linkage_escapes(monkeypatch):
    monkeypatch.setattr(ConstraintBuilder, "_seed_linkage_escapes", lambda self: None)


def _skip_imported_functions(monkeypatch):
    monkeypatch.setattr(
        ConstraintProgram, "mark_imported_function", lambda self, f: None
    )


DEFECTS: Dict[str, Callable] = {
    "inttoptr without p ⊒ Ω": _drop_inttoptr_omega,
    "no pointer stores": _drop_pointer_stores,
    "no linkage escapes": _skip_linkage_escapes,
    "no ImpFunc": _skip_imported_functions,
}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_seeded_defect_is_reported(defect, monkeypatch):
    DEFECTS[defect](monkeypatch)
    config = parse_name("IP+WL(FIFO)+PIP")
    for label, source in HAND_WRITTEN.items():
        built = build_constraints(compile_c(source, label))
        obs = run_program(built, HAND_SEEDS)
        if violations(obs, built, run_configuration(built.program, config)):
            return
    pytest.fail(f"no program reported the seeded defect: {defect}")
