"""The demo scripts run end to end in-process."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["noise_levels.py", "demo_roundtrip.py"])
def test_script_runs(script, capsys):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert "budget" in out
