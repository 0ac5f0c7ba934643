"""Hand-written external constraint files with golden-locked solutions.

These are the "second front door" acceptance fixtures: files a
third-party constraint generator could plausibly produce, covering the
``ref``/``proj``/``lam`` grammar, unknown external symbols (which must
seed PIP's Ω/escape machinery, not crash or silently under-approximate)
and indirect calls through λ-valued pointers.  Each fixture's named
canonical solution is locked exactly, plus register-level facts the
name-keyed view cannot see.
"""

import pathlib

import pytest

from repro.analysis import OMEGA, parse_name, run_configuration
from repro.interchange import export_constraint_text, parse_constraint_text

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

CONFIGS = ["IP+WL(LRF)+PIP", "IP+Reduce+WL(FIFO)+PIP+PTS(bitset)", "EP+WL(LRF)"]


def solve(name, config="IP+WL(LRF)+PIP"):
    text = (FIXTURES / name).read_text()
    program = parse_constraint_text(text, name)
    return program, run_configuration(program, parse_name(config))


def pts(program, solution, name):
    (v,) = [
        i for i, n in enumerate(program.var_names) if n == name
    ]
    return {
        OMEGA if x == OMEGA else program.var_names[x]
        for x in solution.points_to(v)
    }


class TestHeapFixture:
    """ref/proj coverage: base, store, load through one cell."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_golden_solution(self, config):
        program, solution = solve("heap.lir", config)
        assert solution.to_named_canonical() == {
            "external": [],
            "points_to": {"_alloc_a": ["_alloc_b"], "_alloc_b": []},
        }

    def test_register_facts(self):
        program, solution = solve("heap.lir")
        assert pts(program, solution, "p") == {"_alloc_a"}
        assert pts(program, solution, "q") == {"_alloc_b"}
        assert program.name == "heap.lir"  # from the .program directive


class TestUnknownSymbolFixture:
    """An undefined symbol ``h`` is called with &_buf: PIP must treat h
    as Ω-valued (pte) so _buf escapes and widens — soundness for
    incomplete constraint files."""

    def test_unknown_symbol_seeds_pte(self):
        program, _ = solve("unknown.lir")
        flagged = [
            program.var_names[v]
            for v in range(program.num_vars)
            if program.flag_pte[v]
        ]
        assert flagged == ["h"]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_golden_solution(self, config):
        program, solution = solve("unknown.lir", config)
        assert solution.to_named_canonical() == {
            "external": ["_buf"],
            "points_to": {"_buf": ["Ω"]},
        }
        assert pts(program, solution, "_buf") == {"_buf", OMEGA}

    def test_escape_reaches_call_result(self):
        program, solution = solve("unknown.lir")
        # h itself holds Ω (anything externally accessible).
        assert OMEGA in pts(program, solution, "h")


class TestIndirectCallFixture:
    """Two λ definitions flow into h; the call must bind both targets'
    parameters and returns."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_golden_solution(self, config):
        program, solution = solve("indirect.lir", config)
        assert solution.to_named_canonical() == {
            "external": [],
            "points_to": {"_obj": [], "f": ["f"], "g": ["g"]},
        }

    def test_both_targets_bound(self):
        program, solution = solve("indirect.lir")
        assert pts(program, solution, "h") == {"f", "g"}
        for param in ("fa", "ga"):  # argument flows into both callees
            assert pts(program, solution, param) == {"_obj"}
        assert pts(program, solution, "r") == {"_obj"}  # via fr/gr


class TestFixtureRoundTrip:
    @pytest.mark.parametrize(
        "name", ["heap.lir", "unknown.lir", "indirect.lir"]
    )
    def test_export_import_identity(self, name):
        program, solution = solve(name)
        text = export_constraint_text(program)
        back = parse_constraint_text(text, name)
        assert back.digest() == program.digest()
        again = run_configuration(back, parse_name("IP+WL(LRF)+PIP"))
        assert again.to_named_canonical() == solution.to_named_canonical()
