"""Session fixtures shared across the test packages."""

from pathlib import Path

import pytest

from repro.analysis import parse_name, run_configuration
from repro.bench.corpus import PROFILES, generate_c_source, plan_profile_program
from repro.pipeline import Pipeline


@pytest.fixture(scope="session")
def xz_solution():
    """557.xz at full scale as ``perfbench`` generates it (generator
    seed 0, size scale 0.02), linked in generator order and solved
    under IP+WL(FIFO)+PIP.  Built once per session: the
    lossless-expansion oracle, the encoding-work pins and the escape
    audit's reference oracle share it."""
    specs = plan_profile_program(
        PROFILES["557.xz"], files_scale=1.0, size_scale=0.02, seed=0
    )
    pipeline = Pipeline()
    members = [
        pipeline.constraints(
            pipeline.source(Path(spec.name).name, generate_c_source(spec))
        )
        for spec in specs
    ]
    program = pipeline.link(members).linked.program
    return run_configuration(program, parse_name("IP+WL(FIFO)+PIP"))
