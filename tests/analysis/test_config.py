"""Configuration names and the enumerated space (``repro.analysis.config``).

Names arrive from ``--config``, ``sweep``, ``run --configs``, a saved
project and the served ``solve_constraints``; each must name exactly one
configuration or be rejected with a :class:`ConfigurationError`.
"""

import pytest

from repro.analysis import ConfigurationError, enumerate_configurations, parse_name
from repro.analysis.config import Configuration


class TestRepeatedParts:
    @pytest.mark.parametrize(
        "name, message",
        [
            ("IP+EP+WL(FIFO)", "sets the representation twice ('IP', then 'EP')"),
            ("EP+EP+Naive", "sets the representation twice ('EP', then 'EP')"),
            ("IP+Naive+WL(LRF)", "sets the solver twice ('Naive', then 'WL(LRF)')"),
            ("IP+WL(FIFO)+WL(LIFO)", "sets the solver twice ('WL(FIFO)', then 'WL(LIFO)')"),
            ("EP+WL(TOPO)+Naive", "sets the solver twice ('WL(TOPO)', then 'Naive')"),
            (
                "IP+WL(FIFO)+PTS(set)+PTS(bitset)",
                "sets the points-to-set backend twice ('PTS(set)', then 'PTS(bitset)')",
            ),
            ("IP+OVS+OVS+WL(FIFO)", "sets the OVS flag twice"),
            ("IP+Reduce+WL(FIFO)+Reduce", "sets the Reduce flag twice"),
            ("IP+WL(FIFO)+PIP+PIP", "sets the PIP flag twice"),
            ("IP+WL(FIFO)+OCD+OCD", "sets the OCD flag twice"),
            ("IP+WL(FIFO)+HCD+HCD", "sets the HCD flag twice"),
            ("IP+WL(FIFO)+LCD+LCD", "sets the LCD flag twice"),
            ("EP+WL(FIFO)+DP+DP", "sets the DP flag twice"),
        ],
        ids=[
            "rep", "rep-same", "naive-then-wl", "wl-then-wl", "wl-then-naive",
            "pts", "ovs", "reduce", "pip", "ocd", "hcd", "lcd", "dp",
        ],
    )
    def test_rejected_not_overridden(self, name, message):
        with pytest.raises(ConfigurationError, match="configuration name") as exc:
            parse_name(name)
        assert message in str(exc.value)


class TestUnknownParts:
    @pytest.mark.parametrize(
        "name", ["IP+Wave", "EP+Wave", "IP+OVS+Wave", "EP+OVS+Wave", "IP+Wave+PIP"]
    )
    def test_wave_is_not_a_solver(self, name):
        with pytest.raises(
            ConfigurationError, match="cannot parse configuration part 'Wave'"
        ):
            parse_name(name)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("EP+PIP", "incomplete configuration name 'EP+PIP'"),
            ("WL(FIFO)", "incomplete configuration name 'WL(FIFO)'"),
            ("IP", "incomplete configuration name 'IP'"),
            ("", "cannot parse configuration part ''"),
            ("IP++WL(FIFO)", "cannot parse configuration part ''"),
        ],
        ids=["no-solver", "no-rep", "rep-only", "empty", "empty-part"],
    )
    def test_incomplete_or_empty(self, name, message):
        with pytest.raises(ConfigurationError) as exc:
            parse_name(name)
        assert message in str(exc.value)


class TestValidation:
    @pytest.mark.parametrize(
        "name, message",
        [
            ("IP+Naive+PIP", "online techniques require the WL solver"),
            ("EP+WL(FIFO)+PIP", "PIP requires implicit pointees (IP)"),
            ("IP+WL(FIFO)+OCD+LCD", "OCD already detects all cycles"),
            ("IP+WL(XYZ)", "unknown iteration order 'XYZ'"),
            ("IP+WL(FIFO)+PTS(tree)", "unknown points-to-set backend 'tree'"),
        ],
        ids=["naive-pip", "ep-pip", "ocd-lcd", "order", "pts"],
    )
    def test_invalid_combination(self, name, message):
        with pytest.raises(ConfigurationError) as exc:
            parse_name(name)
        assert message in str(exc.value)

    def test_parts_may_come_in_any_order(self):
        assert parse_name("PIP+WL(LRF)+IP") == parse_name("IP+WL(LRF)+PIP")

    def test_default_backend_is_left_out_of_the_name(self):
        config = parse_name("IP+WL(FIFO)+PTS(set)")
        assert config == Configuration()
        assert config.name == "IP+WL(FIFO)"


class TestEnumeration:
    def test_the_space_has_304_distinct_configurations(self):
        configs = enumerate_configurations()
        assert len(configs) == 304
        assert len({c.name for c in configs}) == 304
        assert len({c.cache_key for c in configs}) == 304

    def test_every_name_parses_back_to_its_configuration(self):
        for config in enumerate_configurations():
            assert parse_name(config.name) == config, config.name

    def test_solver_families(self):
        configs = enumerate_configurations()
        assert {c.solver for c in configs} == {"Naive", "WL"}
        assert sum(c.solver == "Naive" for c in configs) == 4
