"""The linker's output, frozen byte for byte.

``linked_digests.json`` holds the sha256 of the canonical JSON of
``LinkedProgram.to_dict()`` for each case, recorded at commit c1b2aa7
with the linker that built every joint program one ``add_var`` call at
a time.  The linker must reproduce every digest: the re-link matrix
compares two outputs of the same linker, so a defect both share passes
it, and this file is what pins the bytes.

Cases, each under ``LinkOptions()`` and ``LinkOptions(internalize=True)``:
the four ``examples/corpus/*.c`` linked; ``plan_profile_program`` of
505.mcf and 557.xz at files 0.2 / size 0.01 / seed 3; and the re-link of
an exported joint ``.lir`` (the first three ``rl31`` units) with the
other three units.  Plus the joint program of full-scale 557.xz
(``xz_solution``), by ``ConstraintProgram.digest()``.
"""

import hashlib
import json
import pathlib
from pathlib import Path

import pytest

from repro.bench.corpus import PROFILES, generate_c_source, plan_profile_program
from repro.link import LinkOptions, link_programs
from repro.pipeline import Pipeline
from tests.link.test_relink_matrix import MATRIX_SPEC, exported, members

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parents[1] / "examples" / "corpus"
FROZEN = json.loads((HERE / "linked_digests.json").read_text())
MODES = {
    "open": LinkOptions(),
    "internalize": LinkOptions(internalize=True),
}
PROGRAMS = ("corpus", "505.mcf", "557.xz", "rl31-relink")


def constraint_programs(pairs):
    pipeline = Pipeline()
    return [
        pipeline.constraints(pipeline.source(name, text)).program
        for name, text in pairs
    ]


def link_members(name):
    """The member programs of one case, in link order."""
    if name == "corpus":
        return constraint_programs(
            (path.name, path.read_text()) for path in sorted(CORPUS.glob("*.c"))
        )
    if name == "rl31-relink":
        units = members(MATRIX_SPEC)
        return [exported(units[:3]), *units[3:]]
    specs = plan_profile_program(
        PROFILES[name], files_scale=0.2, size_scale=0.01, seed=3
    )
    return constraint_programs(
        (Path(spec.name).name, generate_c_source(spec)) for spec in specs
    )


def linked_digest(programs, options) -> str:
    text = json.dumps(
        link_programs(programs, options).to_dict(),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", PROGRAMS)
def test_linked_program_bytes_are_frozen(name):
    programs = link_members(name)
    for mode, options in MODES.items():
        assert linked_digest(programs, options) == FROZEN[f"{name}|{mode}"], mode


def test_full_scale_xz_joint_program_is_frozen(xz_solution):
    assert xz_solution.program.digest() == FROZEN["557.xz-full"]


def test_every_frozen_case_is_checked():
    cases = {f"{name}|{mode}" for name in PROGRAMS for mode in MODES}
    assert set(FROZEN) == cases | {"557.xz-full"}
