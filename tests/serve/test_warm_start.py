"""The served warm start: every update answers exactly as a cold open.

:meth:`Project.update` seeds the solve with the previous generation's
fixpoint when the new joint program contains the previous one
(:func:`repro.link.contain`, internals §3).  The oracle here drives
hypothesis edit sequences through a served project on small generated
multi-unit programs and, after every update, opens the same files cold
in a fresh project: the served ``solution`` frames must be
byte-identical and the two :class:`Solution` objects equal (stored sets
and E).  Edits that only add constraints take the warm path; the
others (a removed member, a vanished or renumbered variable, a shrunk
row, a flipped ``ImpFunc``) must fall back cold, and both paths must
occur.  Reduce and EP configurations never keep a fixpoint.

Two seeded defects show that the oracle has teeth: seeding onto raw
variable indexes instead of union-find representatives, and a queue
that omits mapped variables whose rows grew.

The last tests pin the warm start's work exactly on a generated
557.xz program.
"""

import dataclasses
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.link.linker as linker
from repro.analysis import parse_name, run_configuration
from repro.analysis.constraints import ConstraintProgram
from repro.analysis.solvers.base import SolverState, WarmStart
from repro.analysis.solvers.ovs import compute_ovs_groups
from repro.analysis.solvers.worklist import WorklistSolver
from repro.bench.corpus import (
    PROFILES,
    ProgramSpec,
    generate_c_source,
    plan_profile_program,
    plan_program,
)
from repro.serve import AnalysisServer, InProcessClient, Project, encode_frame

WARM_CONFIGS = [
    "IP+WL(FIFO)+PIP",
    "IP+WL(LRF)+HCD+LCD+DP+PIP+PTS(bitset)",
    "IP+OVS+WL(FIFO)+OCD",
]
COLD_CONFIGS = ["IP+Reduce+WL(FIFO)+PIP", "EP+WL(FIFO)"]

# ----------------------------------------------------------------------
# Edits
# ----------------------------------------------------------------------

#: a global pointer declaration at the start of a line
GLOBAL_POINTER = re.compile(
    r"^(?:static |extern )?int\s*\*\s*(\w+)\s*(?:;|=)", re.M
)
#: a header-surface function the unit imports
IMPORTED_FUNCTION = re.compile(r"^extern (int\*?|void) ((?:api|ext)_\w+)\((.*)\);$", re.M)
#: a statement line inside a function body that declares nothing
STATEMENT = re.compile(
    r"^    +(?!int\b|struct\b|char\b|unsigned\b|return\b|for\b|if\b)[^;{}]+;$",
    re.M,
)
KINDS = (
    "append_global",
    "init_global",
    "append_copy",
    "delete_appended",
    "insert_before",
    "drop_statement",
    "define_imported",
    "add_member",
    "remove_member",
)


@dataclass
class Member:
    prefix: str
    head: List[str]  # lines inserted before the generated text
    body: str  # the generated text, minus dropped statements
    tail: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)

    def text(self) -> str:
        lines = [*self.head, self.body, *(line for line, _ in self.tail)]
        return "\n".join(lines) + "\n"


class Editor:
    """The edited files of one session; each edit changes one member
    (or removes one) and returns the ``update`` parameters."""

    def __init__(self, units) -> None:
        self.members: Dict[str, Member] = {
            Path(u.name).name: Member(u.prefix, [], generate_c_source(u))
            for u in units
        }
        self.fresh = 0
        self.defined: set = set()

    def files(self) -> Dict[str, str]:
        return {name: m.text() for name, m in self.members.items()}

    def _next(self) -> int:
        self.fresh += 1
        return self.fresh

    def apply(self, kind: str, pick: int, aux: int) -> Optional[Dict]:
        names = list(self.members)
        name = names[pick % len(names)]
        member = self.members[name]
        p, k = member.prefix, self._next()
        if kind == "append_global":
            member.tail.append((f"int *{p}w{k};", (f"{p}w{k}",)))
        elif kind == "init_global":
            plain = [
                i for i, (line, _) in enumerate(member.tail)
                if re.fullmatch(r"int \*\w+;", line)
            ]
            if not plain:
                return None
            i = plain[aux % len(plain)]
            var = member.tail[i][1][0]
            member.tail[i] = (
                f"int {p}t{k}; int *{var} = &{p}t{k};",
                (var, f"{p}t{k}"),
            )
        elif kind == "append_copy":
            pointers = GLOBAL_POINTER.findall(member.text())
            if not pointers:
                return None
            dst = pointers[aux % len(pointers)]
            src = pointers[(aux // 7) % len(pointers)]
            member.tail.append(
                (f"void {p}cp{k}(void) {{ {dst} = {src}; }}", (f"{p}cp{k}",))
            )
        elif kind == "delete_appended":
            # A line no later line uses, so the unit still compiles.
            free = [
                i for i, (_, names_) in enumerate(member.tail)
                if not any(
                    re.search(rf"\b{n}\b", later)
                    for n in names_
                    for later, _ in member.tail[i + 1:]
                )
            ]
            if not free:
                return None
            del member.tail[free[aux % len(free)]]
        elif kind == "insert_before":
            member.head.append(f"int *{p}pre{k};")
        elif kind == "drop_statement":
            lines = STATEMENT.findall(member.body)
            if not lines:
                return None
            line = lines[aux % len(lines)]
            member.body = member.body.replace(line + "\n", "", 1)
        elif kind == "define_imported":
            found = [
                f for f in IMPORTED_FUNCTION.findall(member.text())
                if f[1] not in self.defined
            ]
            if not found:
                return None
            ret, fn, params = found[aux % len(found)]
            self.defined.add(fn)
            body = "{ }" if ret == "void" else "{ return 0; }"
            member.tail.append((f"{ret} {fn}({params}) {body}", (fn,)))
        elif kind == "add_member":
            target = GLOBAL_POINTER.findall(self.members[name].body)
            share = f"extern int *{target[aux % len(target)]};" if target else ""
            use = f"{target[aux % len(target)]} = x{k}_g;" if target else ""
            new = Member(f"x{k}_", [], (
                f"{share}\nint x{k}_v;\nint *x{k}_g = &x{k}_v;\n"
                f"void x{k}_f(void) {{ {use} }}"
            ))
            self.members[f"extra{k}.c"] = new
            return {"files": {f"extra{k}.c": new.text()}}
        elif kind == "remove_member":
            if len(names) < 2:
                return None
            del self.members[name]
            return {"removed": [name]}
        return {"files": {name: member.text()}}


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    updates: int = 0
    mismatches: List[str] = field(default_factory=list)
    solves: Dict = field(default_factory=dict)


def served(project: Project) -> Tuple[InProcessClient, AnalysisServer]:
    server = AnalysisServer(project)
    return InProcessClient(server), server


def run_session(config_name, spec, edits) -> Outcome:
    """Open ``spec``'s units served, apply ``edits`` one update each,
    and compare every generation with a cold open of the same files."""
    import copy

    config = parse_name(config_name)
    editor = Editor(plan_program(spec))
    project = Project(config=config)
    client, _ = served(project)
    client.call("open", {"files": editor.files()})
    outcome = Outcome()
    for kind, pick, aux in edits:
        trial = copy.deepcopy(editor)
        params = trial.apply(kind, pick, aux)
        if params is None:
            continue
        response = client.request("update", params)
        if not response["ok"]:
            continue  # e.g. a definition that clashes: nothing committed
        editor = trial
        outcome.updates += 1
        snapshot = project.snapshot
        cold = Project(config=config)
        cold.open({src.name: src.text for src in snapshot.sources})
        cold_client, _ = served(cold)
        frames = [
            encode_frame(c.request("solution", {})["result"])
            for c in (client, cold_client)
        ]
        if frames[0] != frames[1] or snapshot.solution != cold.snapshot.solution:
            outcome.mismatches.append(f"{kind} (update {outcome.updates})")
    outcome.solves = project.solve_counts()
    return outcome


SPECS = st.builds(
    lambda seed, units: ProgramSpec(
        name=f"w{seed}", seed=seed, n_units=units, unit_size=6, n_functions=3
    ),
    st.integers(0, 10_000),
    st.integers(2, 4),
)
EDITS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 99), st.integers(0, 999)),
    min_size=3,
    max_size=8,
)

@pytest.mark.parametrize("config_name", WARM_CONFIGS)
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=SPECS, edits=EDITS)
def test_warm_updates_answer_as_cold_opens(config_name, spec, edits):
    outcome = run_session(config_name, spec, edits)
    assert not outcome.mismatches, outcome.mismatches


@pytest.mark.parametrize("config_name", COLD_CONFIGS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(spec=SPECS, edits=EDITS)
def test_reduce_and_ep_always_solve_cold(config_name, spec, edits):
    outcome = run_session(config_name, spec, edits)
    assert not outcome.mismatches, outcome.mismatches
    assert outcome.solves["warm"] == 0
    if outcome.updates:
        assert outcome.solves["last_cold_reason"] == "configuration"


#: a fixed script with every kind of edit, run on several programs
SCRIPT = [
    ("append_global", 0, 0),
    ("init_global", 0, 0),
    ("append_copy", 1, 3),
    ("append_global", 1, 0),
    ("init_global", 1, 0),
    ("insert_before", 0, 0),
    ("append_copy", 0, 11),
    ("delete_appended", 0, 5),
    ("append_global", 0, 0),
    ("init_global", 0, 1),
    ("add_member", 1, 2),
    ("append_copy", 2, 5),
    ("drop_statement", 1, 4),
    ("define_imported", 2, 0),
    ("append_copy", 1, 8),
    ("remove_member", 3, 0),
]


#: a cycle of copies between statics (unified by OCD and LCD) that
#: feeds ``c`` and, through ``get``, another member ...
CYCLE = """static int x;
static int *a;
static int *b;
static int *c;
void f(void) { a = b; b = a; }
void g(void) { c = a; }
int *get(void) { return c; }
"""
CYCLE_USER = "extern int *get(void);\nint *d;\nvoid h(void) { d = get(); }\n"
#: ... and the edit that grows ``a``'s base row
CYCLE_EDITED = CYCLE.replace("static int *a;", "static int *a = &x;")


def cycle_session(config_name) -> Outcome:
    config = parse_name(config_name)
    project = Project(config=config)
    project.open({"a.c": CYCLE, "b.c": CYCLE_USER})
    files = {"a.c": CYCLE_EDITED, "b.c": CYCLE_USER}
    snapshot = project.update({"a.c": CYCLE_EDITED})
    cold = Project(config=config)
    cold.open(files)
    outcome = Outcome(updates=1, solves=project.solve_counts())
    if snapshot.solution != cold.snapshot.solution:
        outcome.mismatches.append("cycle edit")
    return outcome


def run_script(until_mismatch: bool = False) -> Outcome:
    """The cycle edit, then :data:`SCRIPT` on two generated programs,
    under every warm-capable configuration (stopping at the first
    mismatch if asked)."""
    total = Outcome(solves={"warm": 0, "cold": 0})
    sessions = [lambda config_name: cycle_session(config_name)]
    for seed in range(2):
        spec = ProgramSpec(
            name=f"d{seed}", seed=seed, n_units=3, unit_size=6, n_functions=3
        )
        sessions.append(
            lambda config_name, spec=spec: run_session(config_name, spec, SCRIPT)
        )
    for session in sessions:
        for config_name in WARM_CONFIGS:
            outcome = session(config_name)
            total.updates += outcome.updates
            total.mismatches += outcome.mismatches
            for path in ("warm", "cold"):
                total.solves[path] += outcome.solves[path]
            if until_mismatch and total.mismatches:
                return total
    return total


def test_the_script_takes_both_paths_and_stays_right():
    outcome = run_script()
    assert not outcome.mismatches, outcome.mismatches
    opens = len(WARM_CONFIGS) * 3
    assert outcome.solves["warm"] > 0
    assert outcome.solves["cold"] > opens  # some updates fell back


def test_seeding_onto_raw_indexes_is_caught(monkeypatch):
    monkeypatch.setattr(
        SolverState, "_seed_targets", lambda self, var_map: list(var_map)
    )
    assert run_script(until_mismatch=True).mismatches


def test_a_queue_without_grown_rows_is_caught(monkeypatch):
    monkeypatch.setattr(linker, "_grown", lambda *args: [])
    assert run_script(until_mismatch=True).mismatches


def _copies(grown: bool):
    """p ⊇ {x}, a ⊇ p, b ⊇ p: OVS makes p, a and b one group, until
    ``grown`` gives a a base of its own."""
    program = ConstraintProgram("copies")
    x = program.add_memory("x", pointer_compatible=False)
    y = program.add_memory("y", pointer_compatible=False)
    p, a, b = (program.add_register(n) for n in "pab")
    program.add_base(p, x)
    program.add_simple(a, p)
    program.add_simple(b, p)
    if grown:
        program.add_base(a, y)
    return program, a


def test_offline_groups_the_new_program_splits_solve_cold(monkeypatch):
    old, _ = _copies(grown=False)
    solver = WorklistSolver(old, presolve_unions=compute_ovs_groups(old), keep=True)
    start = WarmStart(
        solver.solve(), solver.fixpoint, list(range(old.num_vars)), []
    )
    new, a = _copies(grown=True)
    start = dataclasses.replace(start, queue=[a])
    expected = WorklistSolver(new).solve()
    warm = WorklistSolver(new, presolve_unions=compute_ovs_groups(new), warm=start)
    assert not warm.warm_started
    assert warm.solve() == expected
    # Replaying the split group would hand a's new pointee to p and b.
    monkeypatch.setattr(WarmStart, "covers", lambda self, groups: True)
    warm = WorklistSolver(new, presolve_unions=compute_ovs_groups(new), warm=start)
    assert warm.warm_started and warm.solve() != expected


# ----------------------------------------------------------------------
# Paths and counts
# ----------------------------------------------------------------------

A = "int *gp; int x;\nvoid set(int *p) { gp = p; }\n"
B = "extern int *gp; int y;\nvoid other(void) { gp = &y; }\n"


def test_status_reports_each_solve_path():
    server = AnalysisServer(Project(config=parse_name("IP+WL(FIFO)+PIP")))
    client = InProcessClient(server)
    assert client.call("status")["solves"] == {
        "warm": 0, "cold": 0, "last_cold_reason": None
    }
    client.call("open", {"files": {"a.c": A, "b.c": B}})
    client.call("update", {"files": {"b.c": B + "int *snap;\n"}})
    assert client.call("status")["solves"] == {
        "warm": 1, "cold": 1, "last_cold_reason": "open"
    }
    client.call("update", {"files": {"b.c": B}})  # a variable vanished
    client.call("update", {"removed": ["b.c"]})
    assert client.call("status")["solves"] == {
        "warm": 1, "cold": 3, "last_cold_reason": "member removed"
    }


@pytest.mark.parametrize(
    "config_name", ["IP+Naive", "IP+Reduce+WL(FIFO)+PIP", "EP+WL(FIFO)"]
)
def test_configurations_without_a_warm_start_keep_nothing(config_name):
    project = Project(config=parse_name(config_name))
    project.open({"a.c": A, "b.c": B})
    project.update({"b.c": B + "int *snap;\n"})
    assert project.snapshot._fixpoint is None
    assert project.solve_counts() == {
        "warm": 0, "cold": 2, "last_cold_reason": "configuration"
    }


def test_a_restored_project_solves_its_first_update_cold():
    project = Project()
    project.open({"a.c": A, "b.c": B})
    snapshot = project.snapshot
    restored = Project()
    restored.restore(
        snapshot.sources, snapshot.members, snapshot.linked,
        snapshot.solution, snapshot.generation,
    )
    restored.update({"b.c": B + "int *snap;\n"})
    assert restored.solve_counts()["last_cold_reason"] == "no previous fixpoint"
    restored.update({"b.c": B + "int *snap;\nint *snap2;\n"})
    assert restored.solve_counts()["warm"] == 1


def test_a_warm_solve_is_not_written_to_the_stage_cache(tmp_path):
    from repro.driver import ResultCache

    project = Project(cache=ResultCache(tmp_path))
    project.open({"a.c": A, "b.c": B})
    project.update({"b.c": B + "int *snap;\n"})
    assert project.solve_counts()["warm"] == 1
    assert project.stage_report(timings=False)["solve"]["misses"] == 2
    # A fresh process over the same files misses the warm generation.
    fresh = Project(cache=ResultCache(tmp_path))
    fresh.open({"a.c": A, "b.c": B + "int *snap;\n"})
    assert fresh.stage_report(timings=False)["solve"]["hits"] == 0


def test_only_the_served_project_keeps_a_fixpoint():
    from repro.pipeline import Pipeline

    pipeline = Pipeline()
    members = [
        pipeline.constraints(pipeline.source(n, t))
        for n, t in (("a.c", A), ("b.c", B))
    ]
    program = pipeline.link(members).linked.program
    solution = pipeline.solve(program, parse_name("IP+WL(FIFO)+PIP")).solution
    assert not any("fixpoint" in name.lower() for name in vars(solution))


# ----------------------------------------------------------------------
# The warm start's work, pinned exactly
# ----------------------------------------------------------------------


def test_warm_work_on_a_generated_xz_program():
    specs = plan_profile_program(
        PROFILES["557.xz"], files_scale=0.2, size_scale=0.01, seed=3
    )
    files = {Path(s.name).name: generate_c_source(s) for s in specs}
    unit = specs[len(specs) // 2]
    name = Path(unit.name).name
    config = parse_name("IP+WL(FIFO)+PIP")
    project = Project(config=config)
    project.open(files)

    edited = files[name] + f"\nint *{unit.prefix}edit0;\n"
    previous = project.snapshot
    members = {m.name: m.program for m in previous.members}
    snapshot = project.update({name: edited})
    assert project.solve_counts()["warm"] == 1
    contained = linker.contain(
        previous.linked,
        members,
        snapshot.linked,
        {m.name: m.program for m in snapshot.members},
    )
    assert len(contained.queue) == 1
    stats = snapshot.solution.stats
    assert (stats.visits, stats.propagations, stats.edges_added) == (1, 0, 0)

    snapshot = project.update({name: files[name]})
    assert project.solve_counts() == {
        "warm": 1, "cold": 2, "last_cold_reason": "variable map"
    }
    cold = run_configuration(snapshot.linked.program, config)
    assert snapshot.solution.stats.visits == cold.stats.visits
    assert snapshot.solution == cold
