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


def test_code_lines_counts_every_module_and_the_total(capsys):
    """``scripts/code_lines.py`` prints one row per module of ``src/aces``
    and their sum, counting neither comments, blank lines nor docstrings."""
    script = runpy.run_path(str(SCRIPTS / "code_lines.py"))
    source = '"""Module\ndocstring."""\n\n# a comment\ndef f(x):\n    """Doc."""\n    return (x +\n            1)  # two lines\n'
    assert script["code_lines"](source) == 3
    assert script["main"]([]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    package = SCRIPTS.parent / "src" / "aces"
    assert set(rows) == {path.stem for path in package.glob("*.py")} | {"total"}
    assert int(rows.pop("total")) == sum(map(int, rows.values())) > 0


def test_ops_builds_and_runs_every_desk_row(tmp_path, monkeypatch):
    """``scripts/ops.py`` builds each of its rows at the desk channel, and
    each row runs once, so the script keeps up with the package's API."""
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "bench"))
    script = runpy.run_path(str(SCRIPTS / "ops.py"))
    from workloads import DESK

    ops, sizes = script["_operations"](DESK, tmp_path)
    assert len(ops) == 27 and set(sizes) == {"public.json", "ciphertext"}
    for row in ops.values():
        row()
