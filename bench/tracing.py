"""Per-layer timing of ``aces``, installed from outside the package.

Each layer's public functions are replaced by timing wrappers for the length
of a ``with installed(tracer):`` block.  Modules import names directly
(``from .homo import hom_mul``), so a function is replaced in every loaded
``aces`` module, and in the benchmark's own modules, wherever that module
holds it under any name; methods are replaced on their class.

A wrapper records calls and self time: the span's duration minus the time
spent in traced callees.  Spans are aggregated per layer as they close, not
kept, because a desk job makes thousands of ring calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict


def _module(name):
    # ``aces.keygen`` is also the name of a function re-exported by the
    # package, so modules are taken from the import system, not attributes.
    return importlib.import_module(name)


def _targets():
    """Layer name -> list of (owner, attribute) to wrap."""
    rings, channel, cipher, homo = (_module(f"aces.{m}") for m in ("rings", "channel", "cipher", "homo"))
    refresh, circuit, serial, cli, keygen = (
        _module(f"aces.{m}") for m in ("refresh", "circuit", "serial", "cli", "keygen")
    )
    poly, chan = rings.RingPoly, channel.ArithmeticChannel
    return {
        "rings.mul": [(poly, "__mul__")],
        "rings.make": [(poly, "make")],
        "rings.add": [(poly, "__add__"), (poly, "__sub__"), (poly, "__neg__"), (poly, "scale")],
        "channel.sample": [(channel, "sample_noise"), (channel, "sample_message_carrier"),
                           (chan, "random_poly")],
        "channel.eval": [(chan, "eval")],
        "cipher.encrypt": [(cipher, "encrypt")],
        "cipher.decrypt": [(cipher, "decrypt")],
        "homo.hom_mul": [(homo, "hom_mul")],
        "homo.tensor_contract": [(homo, "tensor_contract")],
        "homo.hom_add": [(homo, "hom_add")],
        "refresh.refresh_ct": [(refresh, "refresh_ct")],
        # The checker a policy uses: the public test, or the predicate that
        # ``secret_refresh_checker`` builds (wrapped as it is returned).
        "refresh.check": [(refresh, "publicly_refreshable")],
        "circuit.evaluate": [(circuit, "evaluate")],
        "serial.load": [(serial, "load")],
        "serial.dump": [(serial, "dump")],
        "serial.decode": [(serial, f"{kind}_from_dict")
                          for kind in ("channel", "ciphertext", "public", "secret")],
        "serial.encode": [(serial, f"{kind}_to_dict")
                          for kind in ("channel", "ciphertext", "public", "secret")],
        "cli.main": [(cli, "main")],
        "keygen.keygen": [(keygen, "keygen")],
        "keygen.secret": [(keygen, "gen_secret")],
        "keygen.tensor": [(keygen, "gen_tensor")],
        "keygen.locators": [(refresh, "sample_locator_db")],
    }


class Tracer:
    """Calls, self seconds and extra counts per layer."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._inner = [0.0]  # traced-callee time of each open span

    def wrap(self, name, fn, after=None):
        calls, self_s, inner, clock = self.calls, self.self_s, self._inner, time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                callees = inner.pop()
                inner[-1] += spent
                calls[name] += 1
                self_s[name] += spent - callees
            if after is not None:
                after(counts, args, result)
            return result

        return traced


def _count_hit(counts, args, result):
    counts["refresh.check.hits"] += bool(result)


def _count_circuit(counts, args, result):
    counts["circuit.gates"] += len(args[0].gates)
    counts["circuit.refresh_events"] += len(result[1].refresh_events)


def _count_load(counts, args, result):
    counts["serial.load.bytes"] += os.path.getsize(args[0])


def _count_dump(counts, args, result):
    counts["serial.dump.bytes"] += os.path.getsize(args[1])


_AFTER = {
    "refresh.check": _count_hit,
    "circuit.evaluate": _count_circuit,
    "serial.load": _count_load,
    "serial.dump": _count_dump,
}


@contextlib.contextmanager
def installed(tracer: Tracer, extra_modules=()):
    """Wrap every layer for the duration of the block, then restore."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "aces" or name.startswith("aces.")]
    modules += [sys.modules[name] for name in extra_modules]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer, targets in _targets().items():
        after = _AFTER.get(layer)
        for owner, attr in targets:
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(original, staticmethod):
                    replace(owner, attr, staticmethod(tracer.wrap(layer, original.__func__, after)))
                else:
                    replace(owner, attr, tracer.wrap(layer, original, after))
                continue
            wrapper = tracer.wrap(layer, original, after)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        replace(module, name, wrapper)

    refresh = _module("aces.refresh")
    make_checker = refresh.secret_refresh_checker

    def traced_checker(sk, ch):
        return tracer.wrap("refresh.check", make_checker(sk, ch), _count_hit)

    for module in modules:
        for name, value in list(vars(module).items()):
            if value is make_checker:
                replace(module, name, traced_checker)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
