"""Snapshot persistence tests: roundtrip fidelity, digest validation,
tamper rejection, and server warm-start behaviour."""

import json

import pytest

from repro.analysis.config import parse_name
from repro.driver import ResultCache
from repro.link import LinkOptions
from repro.obs import Registry
from repro.serve import (
    AnalysisServer,
    InProcessClient,
    Project,
    StateError,
    list_state_files,
    load_project,
    save_project,
    state_path,
)

A = """
int *gp;
int x;
void set(int *p) { gp = p; }
int main(void) { set(&x); return *gp; }
"""

B = """
extern int *gp;
int y;
void other(void) { gp = &y; }
"""


def built_project(files=None, **kwargs):
    project = Project(**kwargs)
    project.open(files or {"a.c": A, "b.c": B})
    return project


def rewrite(path, mutate):
    """Apply ``mutate`` to the decoded payload and write it back
    canonically (without re-computing the digest)."""
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


class TestRoundtrip:
    def test_restore_preserves_everything(self, tmp_path):
        project = built_project()
        project.update({"b.c": B + "\nint z;\n"})
        path = save_project(tmp_path, "p1", project)
        assert path == state_path(tmp_path, "p1")
        project_id, restored = load_project(path)
        assert project_id == "p1"
        assert restored.generation == 2
        original = project.snapshot
        snapshot = restored.snapshot
        assert snapshot.member_names() == original.member_names()
        assert snapshot.named_solution() == original.named_solution()
        assert snapshot.summary() == original.summary()
        assert snapshot.config.name == original.config.name

    def test_restored_update_is_incremental(self, tmp_path):
        project = built_project()
        path = save_project(tmp_path, "p1", project)
        _, restored = load_project(path)
        restored.update({"b.c": B + "\nint z;\n"})
        report = restored.stage_report(timings=False)
        # Only the edited member went through the frontend: the member
        # memo was re-seeded from the persisted constraint programs.
        assert report["parse"]["runs"] == 1
        assert report["constraints"]["runs"] == 1
        assert restored.generation == 2

    def test_queries_identical_after_restore(self, tmp_path):
        project = built_project()
        server = AnalysisServer(project)
        client = InProcessClient(server)
        want = [
            client.request("points_to", {"var": "gp"}),
            client.request("classify"),
        ]
        save_project(tmp_path, "p1", project)
        _, restored = load_project(state_path(tmp_path, "p1"))
        restored_server = AnalysisServer(restored)
        restored_client = InProcessClient(restored_server)
        got = [
            restored_client.request("points_to", {"var": "gp"}),
            restored_client.request("classify"),
        ]
        assert got == want

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        project = built_project()
        save_project(tmp_path, "p1", project)
        save_project(tmp_path, "p1", project)  # overwrite in place
        assert [p.name for p in list_state_files(tmp_path)] == [
            "p1.project.json"
        ]

    def test_closed_project_refuses_to_save(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_project(tmp_path, "p1", Project())

    def test_bad_project_id_refused(self, tmp_path):
        with pytest.raises(StateError):
            state_path(tmp_path, "../escape")


class TestValidation:
    def test_flipped_byte_rejected(self, tmp_path):
        path = save_project(tmp_path, "p1", built_project())
        text = path.read_text()
        flipped = text.replace('"generation":1', '"generation":2', 1)
        assert flipped != text
        path.write_text(flipped)
        with pytest.raises(StateError, match="digest mismatch"):
            load_project(path)

    def test_tampered_solution_rejected(self, tmp_path):
        path = save_project(tmp_path, "p1", built_project())
        rewrite(path, lambda p: p["solution"]["points_to"].clear())
        with pytest.raises(StateError, match="digest mismatch"):
            load_project(path)

    def test_tampered_source_rejected_even_with_fixed_digest(
        self, tmp_path
    ):
        # Re-digest the whole payload after editing a source, but leave
        # the per-source digest stale: the second line of defence fires.
        from repro.serve.state import _payload_digest

        path = save_project(tmp_path, "p1", built_project())

        def mutate(payload):
            payload["sources"][0]["text"] += "\nint sneaky;\n"
            payload["digest"] = _payload_digest(payload)

        rewrite(path, mutate)
        with pytest.raises(StateError, match="source .* digest mismatch"):
            load_project(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = save_project(tmp_path, "p1", built_project())
        path.write_text(path.read_text()[:100])
        with pytest.raises(StateError, match="unreadable"):
            load_project(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = save_project(tmp_path, "p1", built_project())
        rewrite(path, lambda p: p.update(schema=99))
        with pytest.raises(StateError, match="schema"):
            load_project(path)

    def test_renamed_file_rejected(self, tmp_path):
        path = save_project(tmp_path, "p1", built_project())
        moved = tmp_path / "p2.project.json"
        path.rename(moved)
        with pytest.raises(StateError, match="does not match"):
            load_project(moved)

    def test_config_mismatch_rejected(self, tmp_path):
        path = save_project(tmp_path, "p1", built_project())
        with pytest.raises(StateError, match="configuration"):
            load_project(path, config=parse_name("EP+WL(FIFO)"))

    def test_repeated_axis_config_rejected(self, tmp_path):
        from repro.serve.state import _payload_digest

        path = save_project(tmp_path, "p1", built_project())

        def mutate(payload):
            payload["config"] += "+PIP"
            payload["digest"] = _payload_digest(payload)

        rewrite(path, mutate)
        with pytest.raises(StateError, match="sets the PIP flag twice"):
            load_project(path)

    def test_options_mismatch_rejected(self, tmp_path):
        path = save_project(tmp_path, "p1", built_project())
        with pytest.raises(StateError, match="link options"):
            load_project(path, options=LinkOptions(internalize=True))


class TestServerWarmStart:
    def test_server_restores_all_projects(self, tmp_path):
        save_project(tmp_path, "alpha", built_project())
        save_project(tmp_path, "beta", built_project({"a.c": A}))
        registry = Registry()
        server = AnalysisServer(
            Project(), registry=registry, state_dir=tmp_path
        )
        assert server.project_ids() == ["alpha", "beta", "default"]
        assert server.state_counts["loads"] == 2
        assert registry.counter("serve.state.loads") == 2
        client = InProcessClient(server, project="alpha")
        response = client.request("points_to", {"var": "gp"})
        assert response["ok"] and response["generation"] == 1
        status = client.call("status")
        assert status["state"]["loads"] == 2
        assert status["state"]["dir"] == str(tmp_path)

    def test_invalid_state_starts_cold(self, tmp_path, capsys):
        path = save_project(tmp_path, "alpha", built_project())
        path.write_text(path.read_text().replace("gp", "qq"))
        registry = Registry()
        server = AnalysisServer(
            Project(), registry=registry, state_dir=tmp_path
        )
        assert server.project_ids() == ["default"]  # alpha was refused
        assert server.state_counts["invalid"] == 1
        assert registry.counter("serve.state.invalid") == 1
        assert "ignoring state" in capsys.readouterr().err

    def test_commits_persist_and_survive_restart(self, tmp_path):
        server = AnalysisServer(Project(), state_dir=tmp_path)
        client = InProcessClient(server, project="p1")
        client.call("open", {"files": {"a.c": A, "b.c": B}})
        client.call("update", {"files": {"b.c": B + "\nint z;\n"}})
        assert server.state_counts["saves"] == 2
        want = client.call("classify")

        reborn = AnalysisServer(Project(), state_dir=tmp_path)
        client2 = InProcessClient(reborn, project="p1")
        assert client2.request("ping")["generation"] == 2
        assert client2.call("classify") == want

    def test_default_project_persists_too(self, tmp_path):
        server = AnalysisServer(Project(), state_dir=tmp_path)
        InProcessClient(server).call("open", {"files": {"a.c": A}})
        reborn = AnalysisServer(Project(), state_dir=tmp_path)
        assert reborn.project.is_open
        assert reborn.project.generation == 1


class TestTenantsShareTheStageCache:
    """Every tenant, restored or opened, builds through the default
    project's stage cache."""

    def test_restored_project_updates_through_the_cache(self, tmp_path):
        state_dir = tmp_path / "state"
        server = AnalysisServer(
            Project(cache=ResultCache(tmp_path / "cache")), state_dir=state_dir
        )
        InProcessClient(server).call("open", {"files": {"a.c": A, "b.c": B}})

        cache = ResultCache(tmp_path / "cache")
        reborn = AnalysisServer(Project(cache=cache), state_dir=state_dir)
        assert reborn.state_counts["loads"] == 1
        InProcessClient(reborn).call(
            "update", {"files": {"b.c": B + "\nint z;\n"}}
        )
        assert cache.stats_for("constraints").misses == 1

    def test_second_project_hits_the_first_ones_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        server = AnalysisServer(Project(cache=cache))
        files = {"a.c": A, "b.c": B}
        InProcessClient(server).call("open", {"files": files})
        hits = cache.stats_for("constraints").hits
        InProcessClient(server, project="second").call("open", {"files": files})
        assert cache.stats_for("constraints").hits - hits == len(files)
