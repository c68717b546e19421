"""The demo scripts run end to end in-process."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


# What each demo script prints, line for line: keys, draws and levels are
# fixed by their seeds, so any change here is a change of behaviour.
DEMO_OUTPUT = {
    "demo_roundtrip.py": """\
channel: p=2 q=15015 degree=4 n=3 N=2
noise budget: levels up to 7506
repartition: primes (3, 5, 7, 11, 13), assignment (5, 3, 2)

encrypted two bits at level 4
1 + 1 -> 0 (level 8)
1 * 1 -> 1 (level 48)

refreshed the product: level 48 -> 60, still decrypts to 1
refreshable index of the fresh ciphertext: 8531
""",
    "noise_levels.py": """\
budget 7506, post-refresh level 60

squaring chain without refresh:
  depth 0: level 4
  depth 1: level 48
  depth 2: level 4800
  depth 3: overflow

depth-6 chain with auto refresh:
  refreshed t2: 4800 -> 60
  refreshed t3: 7440 -> 60
  refreshed t4: 7440 -> 60
  refreshed t5: 7440 -> 60
  wire a: final level 4
  wire t1: final level 48
  wire t2: final level 60
  wire t3: final level 60
  wire t4: final level 60
  wire t5: final level 60
  wire t6: final level 7440
""",
}


@pytest.mark.parametrize("script", ["noise_levels.py", "demo_roundtrip.py"])
def test_script_runs(script, capsys):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert "budget" in out
    assert out.splitlines() == DEMO_OUTPUT[script].splitlines()


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
    assert len(ops) == 29 and set(sizes) == {"public.json", "ciphertext"}
    for row in ops.values():
        row()
