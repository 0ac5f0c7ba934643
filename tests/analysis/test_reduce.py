"""Golden regression fixtures for the offline constraint reduction.

Each hand-written program exercises exactly one reduction mechanism
(:mod:`repro.analysis.reduce`), and the test locks the reduction
counters *and* the named canonical solution.  A change to the reduction
that alters either — merging more or fewer variables, removing more or
fewer constraints, or (worst of all) changing a solution — fails here
with the precise fixture that moved.
"""

import json

import pytest

from repro.analysis import (
    ConstraintProgram,
    enumerate_configurations,
    parse_name,
    run_configuration,
)
from repro.analysis.reduce import (
    pointer_equivalence_groups,
    reduce_program,
    reduce_program_cached,
)

CONFIGS = ["IP+WL(FIFO)", "IP+Naive", "EP+WL(FIFO)", "EP+WL(FIFO)+LCD+DP"]


def named(program, config_name):
    sol = run_configuration(program, parse_name(config_name))
    return json.dumps(sol.to_named_canonical(), sort_keys=True)


# ----------------------------------------------------------------------
# Fixture programs — one reduction mechanism each
# ----------------------------------------------------------------------


def diamond():
    """p, a, b all carry label {base loc}: one merge class of three."""
    cp = ConstraintProgram("diamond")
    loc = cp.add_memory("loc")
    cell = cp.add_memory("cell")
    p = cp.add_register("p")
    a = cp.add_register("a")
    cp.add_register("b")
    q = cp.add_register("q")
    cp.add_base(p, loc)
    cp.add_simple(a, p)
    cp.add_simple(a + 1, p)
    cp.add_base(q, cell)
    cp.add_store(q, a)  # *q ⊇ a: cell observes the merged class
    return cp


def chain():
    """g ⊇ {l1}, t ⊇ {l2}, g → t: labels differ (no HVN merge), but g
    is never read and has one successor — pass-3 chain collapse."""
    cp = ConstraintProgram("chain")
    l1 = cp.add_memory("l1")
    l2 = cp.add_memory("l2")
    g = cp.add_register("g")
    t = cp.add_register("t")
    cp.add_base(g, l1)
    cp.add_base(t, l2)
    cp.add_simple(t, g)
    return cp


def duplicates():
    """Repeated load/store constraints deduplicate on rewrite."""
    cp = ConstraintProgram("dup")
    l1 = cp.add_memory("l1")
    p = cp.add_register("p")
    a = cp.add_register("a")
    cp.add_base(p, l1)
    cp.add_load(a, p)
    cp.add_load(a, p)
    cp.add_store(p, a)
    cp.add_store(p, a)
    return cp


def subsumed_base():
    """u ⊇ {x}, u → v, v ⊇ {x, y}: x ∈ base[v] is implied by the edge."""
    cp = ConstraintProgram("subsume")
    x = cp.add_memory("x")
    y = cp.add_memory("y")
    u = cp.add_register("u")
    v = cp.add_register("v")
    w = cp.add_register("w")
    cp.add_base(u, x)
    cp.add_base(v, x)
    cp.add_base(v, y)
    cp.add_simple(v, u)
    cp.add_store(u, v)  # read both ends: no chain collapse interferes
    cp.add_store(v, w)
    cp.add_base(w, y)
    return cp


def memory_never_merges():
    """m1 and m2 receive identical inflows but are locations — the fresh
    per-SCC token must keep them apart (merging M vars is unsound)."""
    cp = ConstraintProgram("memsafe")
    m1 = cp.add_memory("m1")
    cp.add_memory("m2")
    p = cp.add_register("p")
    cp.add_base(p, m1)
    cp.add_simple(m1, p)
    cp.add_simple(m1 + 1, p)
    return cp


def ea_pte_flags():
    """IP flag rule: ea[x] ∧ pte[p] subsumes x ∈ base[p]."""
    cp = ConstraintProgram("eapte")
    x = cp.add_memory("x")
    y = cp.add_memory("y")
    p = cp.add_register("p")
    cp.add_base(p, x)
    cp.add_base(p, y)
    cp.mark_points_to_external(p)
    cp.mark_externally_accessible(x)
    cp.add_store(p, p)
    return cp


#: (builder, vars before→after, constraints before→after, groups_merged,
#:  vars_merged, chains_collapsed, constraints_removed, golden named
#:  canonical under sort_keys json)
GOLDEN = [
    (
        diamond,
        (6, 4),
        (5, 3),
        1,
        2,
        0,
        2,
        '{"external": [], "points_to": {"cell": ["loc"], "loc": []}}',
    ),
    (
        chain,
        (4, 3),
        (3, 2),
        0,
        0,
        1,
        1,
        '{"external": [], "points_to": {"l1": [], "l2": []}}',
    ),
    (
        duplicates,
        (3, 3),
        (5, 3),
        0,
        0,
        0,
        2,
        '{"external": [], "points_to": {"l1": []}}',
    ),
    (
        subsumed_base,
        (5, 5),
        (7, 6),
        0,
        0,
        0,
        1,
        '{"external": [], "points_to": {"x": ["x", "y"], "y": ["y"]}}',
    ),
    (
        memory_never_merges,
        (3, 3),
        (3, 3),
        0,
        0,
        0,
        0,
        '{"external": [], "points_to": {"m1": ["m1"], "m2": ["m1"]}}',
    ),
    (
        ea_pte_flags,
        (3, 3),
        (5, 4),
        0,
        0,
        0,
        1,
        '{"external": ["x", "y"], "points_to": '
        '{"x": ["\\u03a9"], "y": ["\\u03a9"]}}',
    ),
]

IDS = [g[0].__name__ for g in GOLDEN]


class TestGoldenFixtures:
    @pytest.mark.parametrize("case", GOLDEN, ids=IDS)
    def test_locked_counters(self, case):
        build, vars_, cons, groups, merged, chains, removed, _ = case
        stats = reduce_program(build()).stats
        assert (stats.vars_before, stats.vars_after) == vars_
        assert (stats.constraints_before, stats.constraints_after) == cons
        assert stats.groups_merged == groups
        assert stats.vars_merged == merged
        assert stats.chains_collapsed == chains
        assert stats.constraints_removed == removed

    @pytest.mark.parametrize("case", GOLDEN, ids=IDS)
    def test_locked_solution(self, case):
        build, *_rest, golden = case
        cp = build()
        for config in CONFIGS:
            assert named(cp, config) == golden, config
            assert named(cp, config + "+Reduce") == golden, config

    def test_diamond_merges_without_solver_unions(self):
        r = reduce_program(diamond())
        assert r.unions == [[2, 3, 4]]  # p, a, b
        assert r.solver_unions == []  # register-only: alias fixup
        assert r.alias_of == {3: 2, 4: 2}
        assert r.new2old == [0, 1, 2, 5]  # b, a's slots compacted away

    def test_chain_collapse_records_pair(self):
        r = reduce_program(chain())
        assert r.chain_groups == [(2, 3)]  # g folds into t
        assert r.new2old == [0, 1, 2]

    def test_chain_collapse_can_be_disabled(self):
        r = reduce_program(chain(), collapse_chains=False)
        assert r.stats.chains_collapsed == 0
        assert r.stats.vars_after == 4

    def test_base_subsumption_can_be_disabled(self):
        r = reduce_program(subsumed_base(), subsume_bases=False)
        assert r.stats.constraints_removed == 0

    def test_memory_locations_never_pointer_equivalent(self):
        groups = pointer_equivalence_groups(memory_never_merges())
        assert groups == []

    def test_input_program_is_not_mutated(self):
        cp = duplicates()
        before = cp.digest()
        reduce_program(cp)
        assert cp.digest() == before

    def test_cached_reduction_memoises_per_program(self):
        cp = diamond()
        assert reduce_program_cached(cp) is reduce_program_cached(cp)
        assert reduce_program_cached(diamond()) is not reduce_program_cached(cp)


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------


class TestConfigurationAxis:
    def test_name_round_trip(self):
        for name in (
            "IP+WL(FIFO)+Reduce",
            "EP+Reduce+WL(LRF)+LCD+DP",
            "IP+OVS+Reduce+Naive",
        ):
            config = parse_name(name)
            assert config.reduce
            assert parse_name(config.name) == config

    def test_reduce_name_position(self):
        config = parse_name("IP+WL(FIFO)+PIP")
        import dataclasses

        on = dataclasses.replace(config, reduce=True)
        assert on.name == "IP+Reduce+WL(FIFO)+PIP"

    def test_cache_key_flips_with_reduce(self):
        off = parse_name("IP+WL(FIFO)")
        import dataclasses

        on = dataclasses.replace(off, reduce=True)
        assert off.cache_key != on.cache_key
        assert off.cache_key.endswith(";reduce=0")
        assert on.cache_key.endswith(";reduce=1")

    def test_reduce_not_in_enumeration(self):
        assert not any(c.reduce for c in enumerate_configurations())

    def test_default_is_off(self):
        assert parse_name("IP+WL(FIFO)").reduce is False
