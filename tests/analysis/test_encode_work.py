"""Encoding work, pinned exactly.

The named canonical form leaves E implicit in every set holding Ω, so
its size tracks the answer, not |E| times the number of widened
pointers.  Three numbers per program are pinned: the named entries, the
pointee names they list (``"Ω"`` included) and the byte length of the
form as canonical JSON — the figure ``perfbench`` reports as
``encode.report_bytes``.  The expanded form these replaced listed
2,657,823 names in 35,886,630 bytes for 557.xz, and 1,341 names in
18,220 bytes for the linked corpus.
"""

import json
import pathlib

from repro.__main__ import main

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "corpus"


def encoding_work(named):
    blob = json.dumps(named, sort_keys=True, separators=(",", ":")).encode()
    listed = sum(len(pointees) for pointees in named["points_to"].values())
    return len(named["points_to"]), listed, len(blob)


def test_xz_named_form(xz_solution):
    assert encoding_work(xz_solution.to_named_canonical()) == (3775, 3591, 143314)


def test_corpus_link_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    files = sorted(str(path) for path in CORPUS.glob("*.c"))
    assert main(["link", *files, "--no-cache", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 2
    assert encoding_work(report["solution"]) == (47, 54, 1957)
