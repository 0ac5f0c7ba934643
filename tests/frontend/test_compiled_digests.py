"""``repro compile``'s output, frozen byte for byte.

``compiled_digests.json`` holds the sha256 of ``repro compile FILE``'s
stdout for the four ``examples/corpus/*.c`` files and the three C audit
fixtures, recorded at commit 3279a88.  Nothing reads the printed IR
back, so these digests are the one check on the printer and on the
frontend output it renders.
"""

import hashlib
import json
import pathlib

import pytest

from repro.__main__ import main

ROOT = pathlib.Path(__file__).resolve().parents[2]
FROZEN = json.loads((pathlib.Path(__file__).parent / "compiled_digests.json").read_text())
PINNED = sorted(
    [str(p.relative_to(ROOT)) for p in (ROOT / "examples" / "corpus").glob("*.c")]
    + [f"tests/audit/fixtures/{name}.c" for name in ("dangling", "leak", "race")]
)


def test_every_pinned_file_is_frozen():
    assert PINNED == sorted(FROZEN)


@pytest.mark.parametrize("path", PINNED)
def test_compile_output_is_frozen(path, capsys):
    assert main(["compile", str(ROOT / path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN[path]
