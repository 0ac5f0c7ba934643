"""The cyclic collector stays out of the analysis.

Three checks, each of them a count, so they gate exactly:

- the pause helper (:mod:`repro.gcpause`) nests, survives exceptions,
  respects a caller's own ``gc.disable()`` and is shared across
  threads;
- a solve leaves no cyclic garbage: the worklist solver unhooks itself
  from its state and its detector, so reference counting frees it;
- a solve on a 12-unit linked program sees at most the one young
  collection that follows the pause, and no older one.
"""

import gc
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import parse_name, prepare_program, solve_prepared
from repro.analysis.frontend import build_constraints
from repro.bench.corpus import PROFILES, generate_c_source, plan_profile_program
from repro.frontend import compile_c
from repro.gcpause import holders, paused
from repro.pipeline import Pipeline

CORPUS = sorted(Path(__file__).parents[2].glob("examples/corpus/*.c"))

#: one configuration per solver object graph, covering every worklist
#: order; ``{pip}`` is ``+PIP`` under IP and empty under EP
SOLVER_GRAPHS = [
    "{rep}+Naive",
    "{rep}+WL(FIFO){pip}",
    "{rep}+WL(LRF)+OCD{pip}",
    "{rep}+WL(TOPO)+HCD{pip}",
    "{rep}+WL(LIFO)+LCD{pip}",
    "{rep}+WL(2LRF)+HCD+LCD{pip}",
    "{rep}+WL(FIFO)+DP{pip}",
    "{rep}+OVS+WL(FIFO){pip}",
    "{rep}+Reduce+WL(FIFO){pip}",
]

#: perfbench's Table V configurations
TABLE_V = [
    "IP+WL(FIFO)+PIP",
    "IP+OVS+WL(LRF)+OCD+PIP+PTS(bitset)",
    "IP+WL(LRF)+HCD+LCD+PIP+PTS(bitset)",
    "IP+Reduce+WL(FIFO)+PIP+PTS(bitset)",
]


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled() and holders() == 0
    yield
    assert gc.isenabled() and holders() == 0


class TestPause:
    def test_nested_holds(self):
        with paused():
            assert not gc.isenabled() and holders() == 1
            with paused():
                assert not gc.isenabled() and holders() == 2
            assert not gc.isenabled() and holders() == 1
        assert gc.isenabled() and holders() == 0

    def test_exception_restores_the_collector(self):
        with pytest.raises(KeyError):
            with paused():
                with paused():
                    raise KeyError("x")

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            with paused():
                assert holders() == 1
            assert not gc.isenabled() and holders() == 0
        finally:
            gc.enable()

    def test_overlapping_threads(self):
        """The first holder leaves first; the collector stays off until
        the second holder leaves too."""
        entered, release = threading.Event(), threading.Event()

        def first():
            with paused():
                entered.set()
                release.wait(10)

        thread = threading.Thread(target=first)
        thread.start()
        assert entered.wait(10)
        with paused():
            assert holders() == 2
            release.set()
            thread.join(10)
            assert not thread.is_alive()
            assert not gc.isenabled() and holders() == 1
        assert gc.isenabled()

    def test_threads_hammering_the_pause(self):
        """More threads than cores, switching often: a lost update of
        the holder count would leave the collector off, or let it come
        back on under a holder."""
        errors = []

        def hammer():
            try:
                for _ in range(2000):
                    with paused():
                        with paused():
                            if gc.isenabled():
                                errors.append("collector on under a hold")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


@pytest.fixture(scope="module")
def corpus_programs():
    assert len(CORPUS) >= 4
    return [
        build_constraints(compile_c(path.read_text(), path.name)).program
        for path in CORPUS
    ]


@pytest.mark.parametrize("pts", ["set", "bitset"])
@pytest.mark.parametrize("rep", ["IP", "EP"])
def test_solves_leave_no_cyclic_garbage(corpus_programs, rep, pts):
    """With the collector off, everything a solve allocates is still in
    the young generation when it returns; collecting that generation
    finds any cycle it left.  One full collection at the end covers
    the rest of the heap."""
    suffix = "" if pts == "set" else f"+PTS({pts})"
    configs = [
        parse_name(t.format(rep=rep, pip="+PIP" if rep == "IP" else "") + suffix)
        for t in SOLVER_GRAPHS
    ]
    gc.collect()
    gc.disable()
    try:
        for program in corpus_programs:
            for config in configs:
                solution = solve_prepared(prepare_program(program, config), config)
                assert gc.collect(0) == 0, (program.name, config.name)
        del solution
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def mcf_program():
    specs = plan_profile_program(
        PROFILES["505.mcf"], files_scale=1.0, size_scale=0.02, seed=0
    )
    assert len(specs) == 12
    pipeline = Pipeline()
    members = [
        pipeline.constraints(
            pipeline.source(Path(spec.name).name, generate_c_source(spec))
        )
        for spec in specs
    ]
    return pipeline.link(members).linked.program


@pytest.mark.parametrize("name", TABLE_V)
def test_a_solve_takes_at_most_one_young_collection(mcf_program, name):
    """Without the pause these solves take 19–86 young and 1–7
    middle-generation collections each."""
    config = parse_name(name)
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        solve_prepared(prepare_program(mcf_program, config), config)
        # the young collection the pause deferred runs at the first
        # allocation after it ends: inside the call, or at the latest here
        seen = [started.count(generation) for generation in range(3)]
    finally:
        gc.callbacks.remove(count)
    assert seen[0] <= 1 and seen[1:] == [0, 0], seen
