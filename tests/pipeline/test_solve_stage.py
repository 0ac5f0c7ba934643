"""The solve stage hands the live Solution through, and the stage cache
heals entries whose content does not decode.

Without a cache, ``Pipeline.solve`` neither encodes nor decodes the
solution and never hashes the program; with one, a miss encodes once
and a hit decodes once.  Every persistent stage decodes its payload
inside the cache-hit check, so a well-formed entry with invalid content
is discarded and counted as corrupted, and the stage recomputes the
same answer.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import parse_name
from repro.analysis.constraints import ConstraintProgram
from repro.analysis.solution import Solution
from repro.driver import ResultCache
from repro.driver.cache import encode_entry
from repro.obs import Registry
from repro.pipeline import Pipeline

CORPUS = Path(__file__).resolve().parents[2] / "examples" / "corpus"
FILES = [str(CORPUS / "arena.c"), str(CORPUS / "hashtable.c")]
CONFIG = parse_name("IP+WL(FIFO)+PIP")

LIR = Path(__file__).resolve().parents[1] / "interchange" / "fixtures"
LIR = LIR / "heap.lir"


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the encode/decode/digest entry points."""
    counts = {}

    def count(owner, name):
        original = owner.__dict__[name]
        bound = isinstance(original, classmethod)
        func = original.__func__ if bound else original

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        monkeypatch.setattr(
            owner, name, classmethod(wrapper) if bound else wrapper
        )

    count(Solution, "to_canonical_dict")
    count(Solution, "from_canonical_dict")
    count(ConstraintProgram, "digest")
    return counts


def linked_program(pipeline):
    sources = [
        pipeline.source(Path(f).name, Path(f).read_text()) for f in FILES
    ]
    return pipeline.link_sources(sources).linked.program


def solver_counters(registry):
    return {
        name: value
        for name, value in registry.to_dict()["counters"].items()
        if name.startswith("solver.")
    }


class TestLiveSolution:
    def test_uncached_solve_never_encodes_decodes_or_digests(self, calls):
        pipeline = Pipeline()
        program = linked_program(pipeline)
        calls.clear()
        art = pipeline.solve(program, CONFIG)
        assert calls == {}
        assert isinstance(art.solution, Solution)
        assert art.solution.program is program
        assert not art.from_cache

    def test_miss_encodes_once_and_hit_decodes_once(self, calls, tmp_path):
        cold = Pipeline(cache=ResultCache(tmp_path))
        program = linked_program(cold)
        calls.clear()
        miss = cold.solve(program, CONFIG)
        assert calls == {"to_canonical_dict": 1, "digest": 1}

        warm = Pipeline(cache=ResultCache(tmp_path))
        program = linked_program(warm)
        calls.clear()
        hit = warm.solve(program, CONFIG)
        assert calls == {"from_canonical_dict": 1, "digest": 1}
        assert hit.from_cache
        assert hit.solution == miss.solution
        assert hit.solution.stats == miss.solution.stats

    def test_ep_solution_answers_against_the_callers_program(self):
        pipeline = Pipeline()
        program = linked_program(pipeline)
        ep = pipeline.solve(program, parse_name("EP+WL(FIFO)")).solution
        ip = pipeline.solve(program, CONFIG).solution
        assert ep.program is program
        assert ep.to_named_canonical() == ip.to_named_canonical()

    def test_solver_counters_match_on_every_path(self, tmp_path):
        def counters(cache):
            registry = Registry()
            pipeline = Pipeline(cache=cache, registry=registry)
            pipeline.solve(linked_program(pipeline), CONFIG)
            return solver_counters(registry)

        uncached = counters(None)
        assert uncached["solver.solves"] == 1
        assert counters(ResultCache(tmp_path)) == uncached  # miss
        assert counters(ResultCache(tmp_path)) == uncached  # hit

    def test_cli_solution_block_same_with_and_without_cache(self, tmp_path):
        def solution_block(*flags):
            out = tmp_path / "r.json"
            assert main(["link", *FILES, *flags, "--out", str(out)]) == 0
            return json.loads(out.read_text())["solution"]

        uncached = solution_block("--no-cache")
        cache = ["--cache", "--cache-dir", str(tmp_path / "c")]
        assert solution_block(*cache) == uncached
        assert solution_block(*cache) == uncached


# ----------------------------------------------------------------------
# Self-healing decode, one regression per persistent stage
# ----------------------------------------------------------------------


def tamper_one(cache_dir, stage, edit, resign=True):
    """Rewrite the payload of one (the first) entry of ``stage``.

    By default the entry gets a fresh checksum, so the edit reaches the
    stage's decoder; ``resign=False`` keeps the old header line.
    """
    path = sorted((Path(cache_dir) / "stages" / stage).glob("*/*.json"))[0]
    head, body = path.read_text().split("\n", 1)
    payload = json.loads(body)
    edit(payload)
    if resign:
        path.write_text(encode_entry({"stage": stage}, payload))
    else:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        path.write_text(head + "\n" + body)


def dangling_operand(program):
    program["simple_out"][0] = [10**6]


@pytest.mark.parametrize(
    "stage, edit",
    [
        ("constraints", lambda p: dangling_operand(p["program"])),
        ("constraints", lambda p: p["program"].__setitem__("flags", [])),
        ("constraints", lambda p: p["program"]["var_names"].__setitem__(0, 7)),
        (
            "constraints",
            lambda p: p["program"]["symbols"][0].__setitem__("name", 7),
        ),
        ("link", lambda p: dangling_operand(p["program"])),
        ("link", lambda p: p.__setitem__("var_maps", [])),
        (
            "solve",
            lambda p: p["solution"]["points_to"][0].__setitem__(0, 10**6),
        ),
    ],
    ids=[
        "constraints",
        "constraints-flags-list",
        "constraints-var-name-int",
        "constraints-symbol-name-int",
        "link",
        "link-var-maps-list",
        "solve",
    ],
)
def test_tampered_stage_entry_heals_through_cli(tmp_path, stage, edit, capsys):
    cache_dir = tmp_path / "cache"

    def run(name):
        out = tmp_path / name
        argv = ["link", *FILES, "--cache", "--cache-dir", str(cache_dir)]
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    cold = run("cold.json")
    tamper_one(cache_dir, stage, edit)
    healed = run("healed.json")
    capsys.readouterr()
    assert healed["solution"] == cold["solution"]
    assert healed["cache"][stage]["corrupted"] == 1
    assert healed["stages"][stage]["runs"] == 1
    # The healed run stored a fresh entry: the next run hits it.
    again = run("again.json")
    assert again["cache"][stage]["corrupted"] == 0
    assert again["solution"] == cold["solution"]


def swap_external(payload):
    """Swap one E index for the smallest index outside E: the entry
    stays well-typed and in range, so it still decodes."""
    external = payload["solution"]["external"]
    external[0] = next(i for i in range(len(external) + 1) if i not in external)


def test_in_range_tamper_fails_the_checksum(tmp_path, capsys):
    cache_dir = tmp_path / "cache"

    def run(name):
        out = tmp_path / name
        argv = ["link", *FILES, "--cache", "--cache-dir", str(cache_dir)]
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    cold = run("cold.json")
    tamper_one(cache_dir, "solve", swap_external, resign=False)
    healed = run("healed.json")
    capsys.readouterr()
    assert healed["cache"]["solve"]["corrupted"] == 1
    assert healed["cache"]["solve"]["hits"] == 0
    assert healed["solution"] == cold["solution"]


def test_tampered_import_entry_heals(tmp_path):
    def solve(cache):
        pipeline = Pipeline(cache=cache)
        member = pipeline.constraints_from_text(
            pipeline.source(LIR.name, LIR.read_text())
        )
        linked = pipeline.link([member]).linked
        solution = pipeline.solve(linked.program, CONFIG).solution
        return solution.to_named_canonical(), member

    cold, _ = solve(ResultCache(tmp_path))
    tamper_one(tmp_path, "import", lambda p: dangling_operand(p["program"]))
    cache = ResultCache(tmp_path)
    healed, member = solve(cache)
    assert healed == cold
    assert not member.from_cache
    assert cache.stats_for("import").corrupted == 1
