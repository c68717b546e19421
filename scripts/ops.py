"""Per-operation timings of ``aces`` at the benchmark's three channels.

    python3 scripts/ops.py --out BENCH_29.json
    python3 scripts/ops.py --out BENCH_29.json --base OTHER/src --rounds 3

At desk, mid and large (``bench/workloads.py``) it times ``Layout.unpack``
of 11 outputs at the layouts of ``hom_mul``'s last pass and of its first
pass, ``Ring.layout(n*n*(q-1))`` (between them every slot width the
benchmark's workloads read), ``Layout.pack`` of the ``2n + 3`` operands of
``hom_mul``'s last pass (two ciphertexts and one layer's sum) at its layout,
``PackedRows.combine`` (the public-key rows by a mask),
``encrypt``, ``decrypt``, ``hom_mul`` of two ciphertexts and of one by
itself, ``public_from_dict`` of the public file alone and followed by one
``hom_mul`` with the loaded tensor (what each ``aces eval`` process pays
before its circuit), the first read of ``PublicKey.f0`` and of
``Refresher.rho`` on keys loaded from the public file (the expansion of
each seed; on a fresh copy of the loaded key per call, so a tree that
reads the parts in full from the file times a copy and an attribute
read), ``ciphertext_from_dict``, ``serial.dump`` of a
ciphertext over an existing file, ``RingPoly.__mul__``, ``RingPoly.make``
of ``2d - 1`` drawn coefficients (a reduction by ``u``), ``sample_mask``,
``keygen``, the one-time build of ``EvalKeys.refresh_rows`` (on a fresh
``EvalKeys`` per call), ``refresh_certified`` with the public checker on a
ciphertext it never certifies (every attempt of ``make_refreshable`` spent)
and with the key owner's exact checker on a ``hom_mul`` product (what each
refresh of the ``chain-desk`` workload runs), ``evaluate`` of the workloads'
10-gate power chain with the key owner's checker (the refresh matrix built
before timing), and one whole in-process ``aces encrypt``, ``aces
decrypt``, ``aces eval`` of one product with no refresh due, ``aces
refresh`` without ``--secret`` on that miss, which exits 2, and ``aces
refresh --secret``, which builds the matrix and refreshes
(``aces.cli.main`` on files in a temporary directory, standard output and
error captured; the rows call nothing but ``main``, so any base checkout is
timed the same way).  Calls
run in batches of about ``--batch-ms``; each batch is one span scaled to the
reference host by ``bench/hostspeed.py``, and a figure is the median over
batches of the scaled time per call, in microseconds.  The file also holds
the bytes of the ``public.json`` and of the ciphertext file that ``aces
keygen`` and ``aces encrypt`` write at each channel.

With ``--base`` (the ``src`` directory of another checkout) every round
times this checkout's ``src`` and the base, each in a fresh process, and
alternates which goes first; the file then holds both, ``ratio``, the
median of the per-round ratios (one round's median for this checkout over
the same round's median for the base), and ``ratio_range``, the least and
the greatest of them.  A row whose range straddles 1 is unresolved: its
rounds disagree on which tree is faster.  A base whose ``Ring`` has no
``layout`` (``Ring.width``, ``Ring.pack`` and ``Ring.unpack`` taking the
layout tuple) is timed through those, so the rows compare.  The script is
not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = 11


def _operations(channel, work: Path):
    """Name -> zero-argument callable, for one channel's fixed inputs (the
    command rows read and write files under ``work``), and the bytes of the
    public and ciphertext files the commands write."""
    from aces import cli, serial
    from aces.channel import RandomSource
    from aces.cipher import decrypt, encrypt, sample_mask
    from aces.circuit import RefreshPolicy, evaluate, parse_circuit
    from aces.homo import hom_mul
    from aces.keygen import keygen
    from aces.refresh import refresh_certified, secret_refresh_checker
    from aces.rings import RingPoly
    from workloads import WORKLOADS

    ch = channel.build()
    seed = f"ops/{channel.degree}".encode()
    bundle = keygen(ch, RandomSource(seed))
    rng = RandomSource(seed + b"/run")
    ring = ch.ring
    a, b = encrypt(bundle.public, ch, 1, rng), encrypt(bundle.public, ch, 0, rng)
    x, y = ch.random_poly(rng), ch.random_poly(rng)
    long = x.coeffs + y.coeffs[1:]
    mask = sample_mask(ch, rng)
    product, owner = hom_mul(ch, bundle.tensor, a, b), secret_refresh_checker(bundle.secret, ch)
    chain = parse_circuit(WORKLOADS["chain-desk"].circuit.text())
    policy = RefreshPolicy(checker=owner)
    bundle.eval_keys.refresh_rows  # built once per key, before timing

    def codec(terms):
        """The ``pack`` and ``unpack`` of the layout for ``terms``, also in a
        tree from before ``Ring.layout``, whose ``Ring`` methods take it."""
        if hasattr(ring, "layout"):
            layout = ring.layout(terms)
            return layout.pack, layout.unpack
        layout = ring.width(terms)
        return lambda polys: ring.pack(polys, layout), lambda sums: ring.unpack(sums, layout)

    last, pack_last = (*a.c, a.cprime, *b.c, b.cprime, x), codec(3)[0]

    def unpack(terms):
        """``Layout.unpack`` of OUTPUTS products at the layout for ``terms``."""
        pack, unpack = codec(terms)
        packed = pack([ch.random_poly(rng) for _ in range(2 * OUTPUTS)])
        sums = [[s * t for s, t in zip(p[:OUTPUTS], p[OUTPUTS:])] for p in packed]
        return lambda: unpack(sums)

    public = json.loads(json.dumps(serial.public_to_dict(bundle)))
    loaded = serial.public_from_dict(ch, public)
    ciphertext = json.loads(json.dumps(serial.ciphertext_to_dict(a)))

    def aces(*argv, expect=0):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(arg) for arg in argv])
        if code != expect:
            raise RuntimeError(f"aces {argv[0]} exited {code}")

    keys, ct = work / f"keys-{channel.degree}", work / f"ct-{channel.degree}.json"
    aces("keygen", *channel.keygen_args(), "--seed", seed.hex(), "--out", keys)
    files = ("--channel", keys / "channel.json")
    encrypt_argv = ("encrypt", "--pub", keys / "public.json", *files, "--message", "1",
                    "--seed", "0a", "--out", ct)
    aces(*encrypt_argv)
    refresh_argv = ("refresh", "--pub", keys / "public.json", *files, "--ct", ct,
                    "--out", work / "fresh.json")
    (work / "circuit.txt").write_text("in a b\nt = mul a b\nout t\n")
    eval_argv = ("eval", "--pub", keys / "public.json", *files, "--circuit", work / "circuit.txt",
                 "--input", f"a={ct}", "--input", f"b={ct}", "--out", work / "eval")
    sizes = {"public.json": (keys / "public.json").stat().st_size, "ciphertext": ct.stat().st_size}
    dumped = work / "dumped.json"
    serial.dump(ciphertext, dumped)
    return {
        f"Layout.unpack ({OUTPUTS} outputs)": unpack(3),
        f"Layout.unpack ({OUTPUTS} outputs, pass-1 layout)": unpack(ch.n * ch.n * (ch.q - 1)),
        "Layout.pack (hom_mul's last pass)": lambda: pack_last(last),
        "PackedRows.combine": lambda: bundle.public.rows.combine(mask),
        "encrypt": lambda: encrypt(bundle.public, ch, 1, rng),
        "decrypt": lambda: decrypt(bundle.secret, ch, a),
        "hom_mul": lambda: hom_mul(ch, bundle.tensor, a, b),
        "hom_mul(ct, ct)": lambda: hom_mul(ch, bundle.tensor, a, a),
        "public_from_dict": lambda: serial.public_from_dict(ch, public),
        "public_from_dict + hom_mul": lambda: hom_mul(
            ch, serial.public_from_dict(ch, public).tensor, a, b),
        "PublicKey.f0 expansion": lambda: dataclasses.replace(loaded.public).f0,
        "Refresher.rho expansion": lambda: dataclasses.replace(loaded.refresher).rho,
        "ciphertext_from_dict": lambda: serial.ciphertext_from_dict(ch, ciphertext),
        "serial.dump (ciphertext, over a file)": lambda: serial.dump(ciphertext, dumped),
        "RingPoly.__mul__": lambda: x * y,
        "RingPoly.make (2d - 1 coefficients)": lambda: RingPoly.make(ch.q, ch.u, long),
        "sample_mask": lambda: sample_mask(ch, rng),
        "keygen": lambda: keygen(ch, RandomSource(seed)),
        "EvalKeys.refresh_rows (build)": lambda: dataclasses.replace(bundle.eval_keys).refresh_rows,
        "refresh_certified (public miss)": lambda: refresh_certified(bundle.eval_keys, a, None, rng),
        "refresh_certified (key owner, hom_mul product)": lambda: refresh_certified(
            bundle.eval_keys, product, owner, rng),
        "evaluate (power chain, key owner)": lambda: evaluate(
            chain, {"a": a}, bundle.eval_keys, policy, rng),
        "aces encrypt": lambda: aces(*encrypt_argv),
        "aces decrypt": lambda: aces("decrypt", "--secret", keys / "secret.json", *files, "--ct", ct),
        "aces eval": lambda: aces(*eval_argv),
        "aces refresh (public miss, exit 2)": lambda: aces(*refresh_argv, expect=2),
        "aces refresh --secret": lambda: aces(*refresh_argv, "--secret", keys / "secret.json"),
    }, sizes


def _worker(src: str, batch_s: float, batches: int) -> dict:
    """Per channel and operation, the scaled seconds per call of each batch."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    from hostspeed import HostClock
    from workloads import DESK, LARGE, MID

    clock = HostClock()
    out = {"bytes": {}}
    with tempfile.TemporaryDirectory() as work:
        for name, channel in (("desk", DESK), ("mid", MID), ("large", LARGE)):
            out[name] = {}
            ops, out["bytes"][name] = _operations(channel, Path(work))
            for op, fn in ops.items():
                clock.calibrate()
                spans = []
                clock.span(spans, fn)  # warm-up, and the size of a batch
                calls = max(1, round(batch_s / (spans[0][1] - spans[0][0])))
                spans = []
                for _ in range(batches):
                    clock.span(spans, lambda: [fn() for _ in range(calls)])
                out[name][op] = [clock.seconds([span]) / calls for span in spans]
    out["calibration_ms"] = 1e3 * statistics.median(clock.samples)
    return out


def _run(src: Path, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
           "--batch-ms", str(args.batch_ms), "--batches", str(args.batches)]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--base", type=Path, help="src directory of the checkout to compare with")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--batch-ms", type=float, default=40.0)
    parser.add_argument("--batches", type=int, default=7)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.worker, args.batch_ms / 1e3, args.batches)))
        return 0
    trees = {"change": ROOT / "src"} | ({"base": args.base} if args.base else {})
    samples = {label: [] for label in trees}
    for round_ in range(args.rounds):
        order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
        for label in order:
            samples[label].append(_run(trees[label], args))
    ops, sizes = {}, {}
    for channel in ("desk", "mid", "large"):
        ops[channel], sizes[channel] = {}, {}
        for op in samples["change"][0][channel]:
            row = {label: round(1e6 * statistics.median(
                       [t for run in runs for t in run[channel][op]]), 2)
                   for label, runs in samples.items()}
            if "base" in row:
                rounds = [statistics.median(c[channel][op]) / statistics.median(b[channel][op])
                          for c, b in zip(samples["change"], samples["base"])]
                row["ratio"] = round(statistics.median(rounds), 3)
                row["ratio_range"] = [round(min(rounds), 3), round(max(rounds), 3)]
            ops[channel][op] = row
        for kind in samples["change"][0]["bytes"][channel]:  # the same in every run
            row = {label: runs[0]["bytes"][channel][kind] for label, runs in samples.items()}
            if "base" in row:
                row["ratio"] = round(row["change"] / row["base"], 3)
            sizes[channel][kind] = row
    result = {
        "unit": "us per call on the reference host (bench/hostspeed.py), median over batches",
        "python": platform.python_version(),
        "rounds": args.rounds,
        "batches_per_round": args.batches,
        "calibration_ms": {label: round(statistics.median(r["calibration_ms"] for r in runs), 3)
                           for label, runs in samples.items()},
        "ops": ops,
        "bytes": sizes,
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
