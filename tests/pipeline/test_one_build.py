"""Each member's constraints are built once per process.

The pipeline's member memo keeps every artifact with the IR maps its
build made, so served bindings, later generations and IR-tier audits
read those maps instead of lowering and building the member again.  A
member that arrives without them (a disk-cache hit, a restored state)
is built once, at its first binding.
"""

import pathlib
import sys

import pytest

import repro.analysis.frontend as frontend
from repro.__main__ import main
from repro.driver import ResultCache
from repro.serve import Project
from repro.serve.state import load_project, save_project

CORPUS = sorted(
    (pathlib.Path(__file__).parents[2] / "examples" / "corpus").glob("*.c")
)
FILES = {path.name: path.read_text() for path in CORPUS}


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


def bind_all(snapshot):
    for name in snapshot.member_names():
        snapshot.binding(name)


class TestServedBindings:
    def test_open_builds_once_and_bindings_reuse_it(self, builds):
        project = Project()
        first = project.open(FILES)
        assert sorted(builds) == sorted(FILES)
        builds.clear()
        bind_all(first)
        bind_all(project.update({}))
        assert builds == []
        # An edit builds the edited member, and only at the update.
        edited = project.update({"arena.c": FILES["arena.c"] + "int z;\n"})
        assert builds == ["arena.c"]
        bind_all(edited)
        assert builds == ["arena.c"]

    def test_restored_members_build_once_at_first_binding(
        self, builds, tmp_path
    ):
        project = Project()
        project.open(FILES)
        path = save_project(tmp_path, "p", project)
        _, restored = load_project(path)
        builds.clear()
        bind_all(restored.snapshot)
        assert sorted(builds) == sorted(FILES)
        builds.clear()
        bind_all(restored.update({}))
        assert builds == []

    def test_cache_warm_open_builds_once_at_first_binding(
        self, builds, tmp_path
    ):
        Project(cache=ResultCache(tmp_path)).open(FILES)
        builds.clear()
        project = Project(cache=ResultCache(tmp_path))
        bind_all(project.open(FILES))
        assert sorted(builds) == sorted(FILES)
        builds.clear()
        bind_all(project.update({}))
        assert builds == []


def test_ir_tier_audit_builds_each_member_once(builds, capsys):
    assert main(["audit", "dangling", *map(str, CORPUS)]) == 0
    capsys.readouterr()
    assert sorted(builds) == sorted(FILES)
