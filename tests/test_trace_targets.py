"""The benchmark's per-layer tracer (``bench/tracing.py``) finds its targets
by attribute name: every one must exist, be wrapped while the tracer is
installed, and be restored when it leaves."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_is_wrapped_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    targets = [pair for pairs in tracing._targets().values() for pair in pairs]
    # The tracer also replaces each wrapped function wherever a module holds it.
    owners = [m for name, m in sys.modules.items() if name == "aces" or name.startswith("aces.")]
    owners += [owner for owner, _ in targets if isinstance(owner, type)]
    before = [dict(vars(owner)) for owner in owners]
    with tracing.installed(tracing.Tracer()):
        for owner, attr in targets:
            assert vars(owner)[attr] is not before[owners.index(owner)][attr], (owner, attr)
    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys(), owner
        assert all(after[name] is value for name, value in saved.items()), owner
