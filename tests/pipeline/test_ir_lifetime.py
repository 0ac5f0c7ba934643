"""How long a member's IR lives.

Only a binding reads a member's IR and IR ↔ variable maps: served
queries and IR-tier audits.  A pipeline keeps them on the member's
artifact only when made with ``keep_ir``; otherwise the IR is garbage
before the member's build window closes, and the young collection that
follows the window frees it, with no ``gc.collect()`` call.
"""

import gc
import pathlib
import sys
import weakref

import pytest

import repro.analysis.frontend as frontend
from repro.__main__ import main
from repro.analysis import parse_name
from repro.gcpause import holders
from repro.obs import Registry
from repro.pipeline import Pipeline

CORPUS = sorted(
    (pathlib.Path(__file__).parents[2] / "examples" / "corpus").glob("*.c")
)
FILES = {path.name: path.read_text() for path in CORPUS}


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled() and holders() == 0
    yield
    assert gc.isenabled() and holders() == 0


@pytest.fixture
def lowered(monkeypatch):
    """Per module ``Pipeline.lower`` returns, weak references to the
    module and to its defined functions.  Nothing points back at a
    module, so reference counting frees it; a function and its blocks
    point at each other, so only the collector frees those."""
    refs = []
    original = Pipeline.lower

    def lower(self, src):
        module = original(self, src)
        functions = module.defined_functions()
        assert functions
        refs.append([weakref.ref(v) for v in [module, *functions]])
        return module

    monkeypatch.setattr(Pipeline, "lower", lower)
    return refs


def alive(refs):
    """How many of the referenced IR objects are still alive."""
    return sum(ref() is not None for group in refs for ref in group)


@pytest.fixture
def builds(monkeypatch):
    """The module names ``build_constraints`` is called on, wherever
    the function was imported."""
    calls = []
    original = frontend.build_constraints

    def counted(module, *args, **kwargs):
        calls.append(module.name)
        return original(module, *args, **kwargs)

    for module in list(sys.modules.values()):
        if (
            module is not None
            and module.__name__.startswith("repro")
            and getattr(module, "build_constraints", None) is original
        ):
            monkeypatch.setattr(module, "build_constraints", counted)
    return calls


@pytest.fixture
def artifacts(monkeypatch):
    """Every artifact ``Pipeline.constraints`` returns."""
    seen = []
    original = Pipeline.constraints

    def constraints(self, src):
        artifact = original(self, src)
        seen.append(artifact)
        return artifact

    monkeypatch.setattr(Pipeline, "constraints", constraints)
    return seen


@pytest.mark.parametrize("name", sorted(FILES))
@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
def test_default_pipeline_frees_the_ir_inside_the_build(
    name, profiled, lowered
):
    # A profiled pipeline samples the peak RSS at the stage boundary
    # right after the window, which allocates: the IR must be garbage
    # by then, or that collection promotes it.
    pipeline = Pipeline(registry=Registry() if profiled else None)
    artifact = pipeline.constraints(pipeline.source(name, FILES[name]))
    assert artifact.built is None
    # No gc.collect(): the young pass after the build window freed it.
    assert len(lowered) == 1 and alive(lowered) == 0
    assert artifact.program.name == name
    assert pipeline.stats["parse"].runs == 1
    assert pipeline.stats["lower"].runs == 1
    assert pipeline.stats["constraints"].runs == 1


@pytest.mark.parametrize("name", sorted(FILES))
def test_keep_ir_keeps_the_same_program_with_its_maps(name, lowered):
    kept = Pipeline(keep_ir=True)
    artifact = kept.constraints(kept.source(name, FILES[name]))
    assert artifact.built is not None
    assert artifact.built.program is artifact.program
    assert artifact.built.module is lowered[0][0]()
    assert alive(lowered) == len(lowered[0])
    default = Pipeline()
    plain = default.constraints(default.source(name, FILES[name]))
    assert artifact.program.to_dict() == plain.program.to_dict()


def test_bind_on_a_default_pipeline_builds_once(builds):
    pipeline = Pipeline()
    members = [
        pipeline.constraints(pipeline.source(name, text))
        for name, text in FILES.items()
    ]
    linked = pipeline.link(members).linked
    solution = pipeline.solve(
        linked.program, parse_name("IP+WL(FIFO)+PIP")
    ).solution
    assert sorted(builds) == sorted(FILES)
    assert all(member.built is None for member in members)
    builds.clear()
    first = {
        m.name: pipeline.bind(m, solution, linked.var_maps[m.name])
        for m in members
    }
    assert sorted(builds) == sorted(FILES)
    assert all(member.built is not None for member in members)
    builds.clear()
    for member in members:
        again = pipeline.bind(member, solution, linked.var_maps[member.name])
        assert again.built is first[member.name].built
    assert builds == []


class TestAuditKeepsIrOnlyForItsTier:
    def test_constraint_tier_keeps_no_ir(
        self, artifacts, lowered, builds, capsys
    ):
        assert main(["audit", "escape", *map(str, CORPUS)]) == 0
        capsys.readouterr()
        assert sorted(a.name for a in artifacts) == sorted(FILES)
        assert all(a.built is None for a in artifacts)
        assert len(lowered) == len(FILES) and alive(lowered) == 0
        assert sorted(builds) == sorted(FILES)

    def test_ir_tier_keeps_ir_and_builds_once(
        self, artifacts, builds, capsys
    ):
        assert main(["audit", "dangling", *map(str, CORPUS)]) == 0
        capsys.readouterr()
        assert sorted(a.name for a in artifacts) == sorted(FILES)
        assert all(a.built is not None for a in artifacts)
        assert sorted(builds) == sorted(FILES)
