"""`ConstraintProgram.from_dict` payload validation (bugfix audit).

``from_dict`` is the entry point for cache artifacts and persisted
serve state — neither of which enjoys the C frontend's
well-formedness guarantees.  A corrupted payload must raise a
structured :class:`ProgramFormatError` naming the offending field, not
rebuild a silently-inconsistent program that crashes (or answers
wrongly) deep inside a solver.
"""

import pytest

from repro.analysis.constraints import (
    ConstraintProgram,
    ProgramFormatError,
    ProgramSymbol,
)
from repro.analysis.testing import random_program


def payload(seed=11):
    return random_program(seed, n_vars=12, n_constraints=25).to_dict()


def rejects(data, where_fragment):
    with pytest.raises(ProgramFormatError) as info:
        ConstraintProgram.from_dict(data)
    assert where_fragment in info.value.where
    return info.value


class TestRoundTrip:
    def test_valid_payload_roundtrips(self):
        data = payload()
        clone = ConstraintProgram.from_dict(data)
        assert clone.to_dict() == data


class TestDanglingOperands:
    def test_base_out_of_range(self):
        data = payload()
        data["base"][0] = [999]
        exc = rejects(data, "base[0]")
        assert "dangling operand 999" in str(exc)

    def test_base_payload_must_be_memory(self):
        data = payload()
        registers = [
            v for v, m in enumerate(data["in_m"]) if not m and data["in_p"][v]
        ]
        data["base"][0] = [registers[0]]
        exc = rejects(data, "base[0]")
        assert "not a memory location" in str(exc)

    def test_simple_out_negative_index(self):
        data = payload()
        data["simple_out"][1] = [-2]
        rejects(data, "simple_out[1]")

    def test_load_from_non_int(self):
        data = payload()
        data["load_from"][0] = ["3"]
        rejects(data, "load_from[0]")

    def test_store_into_out_of_range(self):
        data = payload()
        data["store_into"][2] = [len(data["var_names"])]
        rejects(data, "store_into[2]")

    def test_funcs_dangling_and_malformed(self):
        data = payload()
        data["funcs"] = [[999, None, [], False]]
        rejects(data, "funcs[0]")
        data = payload()
        data["funcs"] = [[0, None]]  # wrong arity
        exc = rejects(data, "funcs[0]")
        assert "expected 4 fields" in str(exc)

    def test_calls_dangling_argument(self):
        data = payload()
        data["calls"] = [[0, None, [999]]]
        rejects(data, "calls[0]")

    def test_linkage_ea_out_of_range(self):
        data = payload()
        data["linkage_ea"] = [999]
        rejects(data, "linkage_ea")


class TestArrayLengths:
    @pytest.mark.parametrize(
        "field", ["in_p", "in_m", "base", "simple_out", "load_from",
                  "store_into"]
    )
    def test_truncated_parallel_array(self, field):
        data = payload()
        data[field] = data[field][:-1]
        exc = rejects(data, field)
        assert "rows" in str(exc)

    def test_truncated_flag_row(self):
        data = payload()
        data["flags"]["pte"] = data["flags"]["pte"][:-1]
        rejects(data, "flags['pte']")


class TestSymbols:
    def test_duplicate_symbol_name_rejected(self):
        data = payload()
        mem = next(v for v, m in enumerate(data["in_m"]) if m)
        entry = ProgramSymbol(
            name="dup", var=mem, kind="data", linkage="external",
            defined=True, type_key="int",
        ).to_dict()
        data["symbols"] = [entry, dict(entry)]
        exc = rejects(data, "symbols['dup']")
        assert "duplicate symbol name" in str(exc)

    def test_symbol_var_dangling(self):
        data = payload()
        data["symbols"] = [
            ProgramSymbol(
                name="ghost", var=999, kind="func", linkage="external",
                defined=False, type_key="void(void)",
            ).to_dict()
        ]
        rejects(data, "symbols['ghost']")
