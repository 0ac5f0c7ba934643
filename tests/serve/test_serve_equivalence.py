"""Serve/analyze equivalence: a scripted server session (build →
queries → edit → update → queries) answers byte-identically to one-shot
canonical solutions computed cold at each generation.

"Byte-identical" is literal: the comparison is on encoded frames, so any
drift in canonical ordering, rounding, or key sets fails loudly.
"""

import json

from repro.analysis import parse_name
from repro.link import LinkOptions
from repro.pipeline import Pipeline
from repro.serve import (
    AnalysisServer,
    InProcessClient,
    Project,
    encode_frame,
)

CONFIG = parse_name("IP+WL(FIFO)+PIP")

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

B_EDITED = B + """
int *snap;
void take(void) { snap = gp; }
"""

QUERIES = [
    {"method": "solution", "params": {}},
    {"method": "classify", "params": {}},
    {"method": "points_to", "params": {"var": "gp"}},
    {"method": "callgraph", "params": {"member": "a.c"}},
    {"method": "conflict_rate", "params": {"member": "b.c"}},
    {
        "method": "may_alias",
        "params": {"member": "a.c", "function": "set", "a": 0, "b": 1},
    },
]


def cold_answers(files):
    """One-shot answers over ``files``, via a fresh in-process server.

    ``repro query`` takes exactly this path, so the equivalence below
    also covers the CLI's one-shot mode.
    """
    project = Project(config=CONFIG, options=LinkOptions())
    server = AnalysisServer(project)
    client = InProcessClient(server)
    project.open(files)
    return [encode_frame(client.request(q["method"], q["params"]))
            for q in QUERIES]


def strip_ids(frames):
    """Frames modulo request ids (sessions number requests differently)."""
    out = []
    for frame in frames:
        obj = json.loads(frame)
        obj.pop("id")
        out.append(encode_frame(obj))
    return out


class TestServeEquivalence:
    def test_scripted_session_matches_cold_rebuilds(self):
        project = Project(config=CONFIG, options=LinkOptions())
        server = AnalysisServer(project)
        client = InProcessClient(server)

        client.call("open", {"files": {"a.c": A, "b.c": B}})
        gen1 = [encode_frame(client.request(q["method"], q["params"]))
                for q in QUERIES]

        client.call("update", {"files": {"b.c": B_EDITED}})
        gen2 = [encode_frame(client.request(q["method"], q["params"]))
                for q in QUERIES]

        cold1 = cold_answers({"a.c": A, "b.c": B})
        cold2 = cold_answers({"a.c": A, "b.c": B_EDITED})

        # Same generation number on both sides at generation 1, so the
        # full frames (minus ids) are byte-equal...
        assert strip_ids(gen1) == strip_ids(cold1)
        # ...at generation 2 the incremental session reports
        # generation 2 while the cold rebuild reports 1; the *answers*
        # must still be byte-equal.
        for warm_frame, cold_frame in zip(gen2, cold2):
            warm = json.loads(warm_frame)
            cold = json.loads(cold_frame)
            assert warm["generation"] == 2 and cold["generation"] == 1
            assert encode_frame(warm["result"]) == encode_frame(
                cold["result"]
            )
        # The edit actually changed the answers.
        assert strip_ids(gen1) != strip_ids(gen2)
        # The edit only added constraints, so the update started from
        # generation 1's fixpoint and visited 6 nodes.
        assert project.solve_counts()["warm"] == 1
        assert project.snapshot.solution.stats.visits == 6

    def test_solution_matches_pipeline_directly(self):
        # Against the staged pipeline itself, not another server.
        pipeline = Pipeline()
        sources = [pipeline.source("a.c", A), pipeline.source("b.c", B)]
        members = [pipeline.constraints(src) for src in sources]
        linked = pipeline.link(members, LinkOptions()).linked
        solution = pipeline.solve(linked.program, CONFIG).solution
        expected = solution.to_named_canonical()

        project = Project(config=CONFIG, options=LinkOptions())
        server = AnalysisServer(project)
        client = InProcessClient(server)
        client.call("open", {"files": {"a.c": A, "b.c": B}})
        served = client.call("solution")
        assert encode_frame(served) == encode_frame(expected)
