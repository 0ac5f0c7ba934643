"""Scale-1 exactness of the Table III corpus profiles.

``files_scale=1.0`` must reproduce the paper's file counts *exactly*
(no float rounding, no min-files clamp) and ``size_scale=1.0`` must cap
the instruction tail at exactly the profile's Max column — the
full-scale corpus pins the paper's shape by construction.
"""

import pytest

from repro.bench.corpus import (
    PROFILES,
    generate_c_source,
    plan_profile_program,
    specs_for_profile,
)
from repro.link import LinkOptions
from repro.pipeline import Pipeline

#: Table III file counts, pinned independently of corpus.py's table so a
#: silent edit to either side fails loudly here.
TABLE_III_FILES = {
    "500.perlbench": 68,
    "502.gcc": 372,
    "505.mcf": 12,
    "507.cactuBSSN": 345,
    "525.x264": 35,
    "526.blender": 996,
    "538.imagick": 97,
    "544.nab": 20,
    "557.xz": 89,
    "emacs-29.4": 143,
    "gdb-15.2": 251,
    "ghostscript-10.04": 1116,
    "sendmail-8.18.1": 115,
}


class TestScaleOneExactness:
    def test_profile_table_matches_pinned_counts(self):
        assert {
            name: profile.files for name, profile in PROFILES.items()
        } == TABLE_III_FILES

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_files_scale_one_is_exact(self, name):
        profile = PROFILES[name]
        specs = specs_for_profile(profile, files_scale=1.0)
        assert len(specs) == profile.files == TABLE_III_FILES[name]

    def test_files_scale_one_ignores_min_files_clamp(self):
        profile = PROFILES["505.mcf"]  # 12 files, below a large clamp
        specs = specs_for_profile(profile, files_scale=1.0, min_files=500)
        assert len(specs) == profile.files

    @pytest.mark.parametrize("name", ["505.mcf", "557.xz"])
    def test_size_scale_one_caps_at_max_insts(self, name):
        profile = PROFILES[name]
        specs = specs_for_profile(profile, files_scale=1.0, size_scale=1.0)
        assert max(s.size for s in specs) <= profile.max_insts

    def test_scaled_counts_below_one_still_clamped(self):
        profile = PROFILES["505.mcf"]
        specs = specs_for_profile(profile, files_scale=0.01, min_files=2)
        assert len(specs) == 2  # round(12 * 0.01) clamps up


class TestLinkableProfileProgram:
    def test_full_scale_count_is_exact(self):
        profile = PROFILES["544.nab"]
        units = plan_profile_program(profile, files_scale=1.0)
        assert len(units) == profile.files
        assert len({u.name for u in units}) == profile.files

    def test_deterministic(self):
        profile = PROFILES["557.xz"]
        a = plan_profile_program(profile, files_scale=0.1, seed=3)
        b = plan_profile_program(profile, files_scale=0.1, seed=3)
        assert [(u.name, generate_c_source(u)) for u in a] == [
            (u.name, generate_c_source(u)) for u in b
        ]
        c = plan_profile_program(profile, files_scale=0.1, seed=4)
        assert [generate_c_source(u) for u in a] != [
            generate_c_source(u) for u in c
        ]

    def test_units_link_without_clashes(self):
        """The planner's whole point: unlike specs_for_profile output,
        the program links without symbol clashes."""
        profile = PROFILES["505.mcf"]
        units = plan_profile_program(profile, files_scale=0.5)
        pipeline = Pipeline()
        members = [
            pipeline.constraints(
                pipeline.source(u.name, generate_c_source(u))
            )
            for u in units
        ]
        linked = pipeline.link(members, LinkOptions()).linked
        assert linked.summary()["members"] == len(units)
        assert linked.resolved_imports()

    def test_standalone_specs_do_not_link(self):
        """Regression guard for the gap this planner fills: standalone
        per-file specs collide on unprefixed exported symbols."""
        from repro.link import LinkError

        profile = PROFILES["505.mcf"]
        specs = specs_for_profile(profile, files_scale=0.3)
        pipeline = Pipeline()
        members = [
            pipeline.constraints(
                pipeline.source(s.name, generate_c_source(s))
            )
            for s in specs[:3]
        ]
        with pytest.raises(LinkError):
            pipeline.link(members, LinkOptions())
