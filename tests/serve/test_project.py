"""Project/Snapshot tests: incremental rebuilds, transactionality,
and the stage-counter proof that an update re-runs exactly the edited
members through the frontend."""

import itertools
import sys
import threading

import pytest

from repro.alias import AndersenAA, memory_accesses
from repro.driver import ResultCache
from repro.frontend import ParseError
from repro.link import LinkError
from repro.obs import Registry
from repro.serve import Project

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

C = """
extern int x;
int *reader(void) { return &x; }
"""


D = """
extern int *gp;
int w;
int *pick(int c) { int *q = &w; if (c) q = gp; return q; }
"""


def fresh_project(**kwargs):
    registry = Registry()
    return Project(registry=registry, **kwargs), registry


def stage_runs(project):
    return {
        stage: counts["runs"]
        for stage, counts in project.stage_report(timings=False).items()
    }


class TestOpen:
    def test_open_builds_generation_one(self):
        project, _ = fresh_project()
        snapshot = project.open({"a.c": A, "b.c": B})
        assert snapshot.generation == 1
        assert snapshot.member_names() == ["a.c", "b.c"]
        assert project.is_open

    def test_open_empty_rejected(self):
        project, _ = fresh_project()
        with pytest.raises(ValueError):
            project.open({})

    def test_snapshot_before_open_rejected(self):
        project, _ = fresh_project()
        with pytest.raises(RuntimeError):
            project.snapshot
        with pytest.raises(RuntimeError):
            project.update({"a.c": A})

    def test_reopen_replaces_membership(self):
        project, _ = fresh_project()
        project.open({"a.c": A, "b.c": B})
        snapshot = project.open({"c.c": C})
        assert snapshot.generation == 2
        assert snapshot.member_names() == ["c.c"]


class TestIncrementalUpdate:
    def test_one_file_edit_reruns_frontend_exactly_once(self):
        project, _ = fresh_project()
        project.open({"a.c": A, "b.c": B, "c.c": C})
        before = stage_runs(project)
        assert before["parse"] == 3 and before["constraints"] == 3
        memo_hits = lambda: project.stage_report()["constraints"]["memo_hits"]
        hits = memo_hits()

        project.update({"b.c": B + "\nint z;\n"})

        after = stage_runs(project)
        # The two members the edit left alone are member-memo hits.
        assert memo_hits() - hits == 2
        # The acceptance criterion: exactly the one edited member went
        # back through parse/lower/constraints; link and solve re-ran
        # once on the joint program.
        assert after["parse"] - before["parse"] == 1
        assert after["lower"] - before["lower"] == 1
        assert after["constraints"] - before["constraints"] == 1
        assert after["link"] - before["link"] == 1
        assert after["solve"] - before["solve"] == 1

    def test_noop_update_replays_from_memos(self):
        project, _ = fresh_project()
        project.open({"a.c": A, "b.c": B})
        before = stage_runs(project)
        snapshot = project.update({})
        after = stage_runs(project)
        assert snapshot.generation == 2
        assert after["parse"] == before["parse"]
        assert after["constraints"] == before["constraints"]

    def test_revert_edit_replays_from_stage_cache(self, tmp_path):
        project, _ = fresh_project(cache=ResultCache(tmp_path / "cache"))
        project.open({"a.c": A, "b.c": B})
        project.update({"b.c": B + "\nint z;\n"})
        before = stage_runs(project)
        # The commit pruned b.c's old text from the in-memory memos;
        # round-tripping back to it replays its stages/ disk entry.
        project.update({"b.c": B})
        after = stage_runs(project)
        assert after["parse"] == before["parse"]
        assert after["constraints"] == before["constraints"]

    def test_update_answers_match_cold_rebuild(self):
        edited = B.replace("&y", "&y") + "\nint *qq; void t(void){ qq = gp; }\n"
        project, _ = fresh_project()
        project.open({"a.c": A, "b.c": B})
        incremental = project.update({"b.c": edited}).named_solution()

        cold, _ = fresh_project()
        cold_solution = cold.open({"a.c": A, "b.c": edited}).named_solution()
        assert incremental == cold_solution

    def test_add_and_remove_members(self):
        project, _ = fresh_project()
        project.open({"a.c": A})
        snapshot = project.update({"b.c": B})
        assert snapshot.member_names() == ["a.c", "b.c"]
        snapshot = project.update(removed=["b.c"])
        assert snapshot.member_names() == ["a.c"]
        with pytest.raises(KeyError):
            project.update(removed=["nope.c"])
        with pytest.raises(ValueError):
            project.update(removed=["a.c"])

    def test_generations_counter_mirrors_registry(self):
        project, registry = fresh_project()
        project.open({"a.c": A})
        project.update({})
        assert registry.counter("serve.generations") == 2


def alias_answers(binding):
    """Andersen may_alias over every access pair of every function."""
    aa = AndersenAA(binding)
    answers = []
    for fn in sorted(binding.module.defined_functions(), key=lambda f: f.name):
        accesses = list(memory_accesses(fn))
        for (_, pa, sa), (_, pb, sb) in itertools.product(accesses, repeat=2):
            answers.append((fn.name, str(aa.alias(pa, sa, pb, sb))))
    return answers


def memo_size(project):
    return len(project.pipeline._members)


class TestMemosStayBounded:
    """Each commit prunes the pipeline's member memo to the committed
    snapshot's members."""

    def test_edits_keep_every_memo_at_member_count(self):
        project, registry = fresh_project()
        old = project.open({"a.c": A, "b.c": B, "c.c": C, "d.c": D})
        before = alias_answers(old.binding("a.c"))
        assert {"NoAlias", "MayAlias"} <= {r for _, r in before}
        # Same members, a later generation that has not bound a.c yet.
        twin = project.update({})
        assert memo_size(project) == 4
        for i in range(50):
            project.update({"a.c": A + f"\nint edit{i};\n"})
            assert memo_size(project) == 4
        # Readers holding an old snapshot still answer as before.
        assert alias_answers(old.binding("a.c")) == before
        # a.c's original artifact left the memo, but the twin holds it,
        # IR maps included: binding it lowers nothing.
        runs = registry.counter("pipeline.lower.runs")
        assert alias_answers(twin.binding("a.c")) == before
        assert registry.counter("pipeline.lower.runs") == runs

    def test_restore_and_reopen_prune(self):
        project, _ = fresh_project()
        first = project.open({"a.c": A, "b.c": B, "c.c": C})
        project.open({"a.c": A, "d.c": D})
        assert memo_size(project) == 2
        project.restore(
            first.sources, first.members, first.linked, first.solution, 9
        )
        assert memo_size(project) == 3

    def test_readers_relower_while_the_writer_prunes(self):
        """Readers lowering and building an evicted member race the
        writer's pruning commits; the memo stays consistent and
        bounded."""
        project, _ = fresh_project()
        old = project.open({"a.c": A, "b.c": B, "c.c": C, "d.c": D})
        evicted = old.member("a.c").source
        errors, stop = [], threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    member = project.pipeline.constraints(evicted)
                    assert member.name == "a.c"
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            for i in range(200):
                project.update({"a.c": A + f"\nint edit{i};\n"})
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        project.update({})
        assert memo_size(project) == 4

    def test_failed_rebuild_prunes_nothing(self):
        project, _ = fresh_project()
        project.open({"a.c": A, "b.c": B})
        with pytest.raises(LinkError):
            project.update({"dup.c": "int x;\n"})  # x already defined
        # The failed build's member stays memoised until the next commit.
        assert memo_size(project) == 3
        project.update({})
        assert memo_size(project) == 2


class TestTransactionality:
    def test_failed_update_keeps_previous_generation(self):
        project, _ = fresh_project()
        project.open({"a.c": A, "b.c": B})
        generation = project.snapshot.generation
        solution = project.snapshot.named_solution()

        with pytest.raises(ParseError) as exc:
            project.update({"b.c": "int broken( {"})
        assert exc.value.source_name == "b.c"

        assert project.snapshot.generation == generation
        assert project.snapshot.named_solution() == solution
        # The project still accepts good updates afterwards.
        snapshot = project.update({"b.c": B + "\nint z;\n"})
        assert snapshot.generation == generation + 1

    def test_failed_link_keeps_previous_generation(self):
        project, _ = fresh_project()
        project.open({"a.c": A})
        with pytest.raises(LinkError):
            project.update({"dup.c": "int x;\n"})  # x already defined
        assert project.snapshot.member_names() == ["a.c"]


class TestSnapshotQueriesSurface:
    def test_bindings_are_lazy_and_consistent(self):
        project, _ = fresh_project()
        snapshot = project.open({"a.c": A, "b.c": B})
        binding = snapshot.binding("a.c")
        assert binding is snapshot.binding("a.c")  # memoised
        values = binding.externally_accessible_values()
        assert values  # x, gp... escape via the linkage
        with pytest.raises(KeyError):
            snapshot.binding("nope.c")

    def test_old_snapshot_survives_update(self):
        project, _ = fresh_project()
        old = project.open({"a.c": A, "b.c": B})
        old_solution = old.named_solution()
        project.update({"b.c": B + "\nint z;\n"})
        assert old.generation == 1
        assert old.named_solution() == old_solution

    def test_classification_names(self):
        project, _ = fresh_project()
        snapshot = project.open({"a.c": A, "b.c": B})
        assert "gp" in snapshot.omega_pointers()
        assert snapshot.imp_funcs() == []
        summary = snapshot.summary()
        assert summary["members"] == ["a.c", "b.c"]
        assert summary["link"]["members"] == 2
