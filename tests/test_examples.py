"""Every example script must run clean (they assert their own claims)."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

SCRIPTS = [
    "quickstart.py",
    "alias_client.py",
    "escape_audit.py",
]


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # printed something


def test_config_sweep_small(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["config_sweep.py", "40"])
    runpy.run_path(str(EXAMPLES / "config_sweep.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "identical solution" in out
