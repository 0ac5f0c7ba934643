"""Mutation fuzzing of the C front door.

Each mutant of an ``examples/corpus/`` program deletes, replaces or
inserts a few tokens.  Compiling it and building its constraints must
either succeed or raise one of ``FRONTEND_ERRORS`` with a ``file:line``
diagnostic; any other exception is a frontend bug.  The mutants are a
fixed pseudo-random sample per file, so a failure reproduces.
"""

import pathlib
import random
import re

import pytest

from repro.analysis import build_constraints
from repro.frontend import FRONTEND_ERRORS, compile_c, describe_error

ROOT = pathlib.Path(__file__).resolve().parents[2]
CORPUS = sorted((ROOT / "examples" / "corpus").glob("*.c"))
MUTANTS_PER_FILE = 60

#: whitespace, words, literals and single characters: mutation units
_CHUNK = re.compile(r"""\s+|\w+|"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'|[\s\S]""")
#: tokens worth inserting besides the program's own
_EXTRA = ["08", "0644", "0x", "1e", "goto", "sizeof", "void", "struct", "...", "&", "*"]


def mutants(path, count):
    rng = random.Random(path.name)
    chunks = _CHUNK.findall(path.read_text())
    tokens = [i for i, chunk in enumerate(chunks) if not chunk.isspace()]
    pool = [chunks[i] for i in tokens] + _EXTRA
    for _ in range(count):
        mutant = list(chunks)
        for _ in range(rng.randint(1, 3)):
            i = rng.choice(tokens)
            op = rng.randrange(3)
            if op == 0:
                mutant[i] = ""
            elif op == 1:
                mutant[i] = rng.choice(pool)
            else:
                mutant[i] += " " + rng.choice(pool)
        yield "".join(mutant)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_mutants_compile_or_diagnose(path):
    diagnosed = 0
    for source in mutants(path, MUTANTS_PER_FILE):
        try:
            build_constraints(compile_c(source, path.name))
        except FRONTEND_ERRORS as exc:
            diagnosed += 1
            assert describe_error(exc, path.name).startswith(f"{path.name}:"), source
    # Most mutants break the program; the sample must exercise diagnostics.
    assert diagnosed > MUTANTS_PER_FILE // 3
