"""Command-line interface.

Subcommands: keygen, encrypt, decrypt, eval, refresh, inspect.  Exit codes:
0 on success, 1 on usage errors, 2 when a cryptographic guard refuses the
operation (noise budget, invalid parameters, unverifiable refresh).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import serial
from .channel import ArithmeticChannel, RandomSource
from .cipher import decrypt, encrypt, evals, within_budget
from .circuit import EvalKeys, RefreshPolicy, evaluate, parse_circuit
from .errors import AcesError, CircuitError, NoiseBudgetError, ParameterError
from .keygen import keygen
from .refresh import make_refreshable, refresh_ct, secret_refresh_checker


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser(argv) -> _Parser:
    """The ``aces`` parser; only the command ``argv[0]`` names gets its flags,
    since a subparser costs more to build than a parse.  Any other ``argv``
    (help, empty, unknown) gets every command by name and help alone."""
    parser = _Parser(prog="aces", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (_, summary, add_arguments) in _COMMANDS.items():
        if chosen is None:
            sub.add_parser(name, help=summary)
        elif name == chosen:
            add_arguments(sub.add_parser(name, help=summary))
    return parser


def _load_channel(path) -> ArithmeticChannel:
    return serial.channel_from_dict(serial.load(path)).require_valid()


def _load_keys(args) -> EvalKeys:
    """The evaluation keys of ``--pub`` over the channel of ``--channel``."""
    return serial.public_from_dict(_load_channel(args.channel), serial.load(args.pub))


def _coefficients(text: str) -> tuple[int, ...]:
    """``--u``: integers separated by commas alone, low to high."""
    if not re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", text):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return tuple(map(int, text.split(",")))


def _seed(text: str) -> RandomSource:
    """``--seed``: the random source seeded by a hex string, two digits a byte."""
    try:
        return RandomSource.from_hex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected hex digits in pairs, got {text!r}") from None


def _keygen_arguments(p) -> None:
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bigN", type=int, required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True, help="hex seed for deterministic output")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--omega", type=int, default=1)
    p.add_argument("--u", type=_coefficients, default=None,
                   help="comma-separated coefficients, low to high, no blanks; write a "
                        "leading minus as --u=-1,0,...,1 (default X^degree - 1)")


def _cmd_keygen(args) -> int:
    if args.u is not None and len(args.u) - 1 != args.degree:
        raise _UsageError(f"--u has degree {len(args.u) - 1}, --degree is {args.degree}")
    u = args.u or tuple([-1] + [0] * (args.degree - 1) + [1])
    ch = ArithmeticChannel(
        p=args.p, q=args.q, omega=args.omega, u=u,
        n=args.n, big_n=args.bigN, k0=args.k0,
    ).require_valid()
    bundle = keygen(ch, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serial.dump(serial.channel_to_dict(ch), out / "channel.json")
    serial.dump(serial.public_to_dict(bundle), out / "public.json")
    serial.dump(serial.secret_to_dict(bundle.secret), out / "secret.json")
    print(f"wrote channel.json, public.json, secret.json to {out}")
    return 0


def _encrypt_arguments(p) -> None:
    p.add_argument("--pub", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)


def _cmd_encrypt(args) -> int:
    keys = _load_keys(args)
    ct = encrypt(keys.public, keys.channel, args.message, args.seed)
    serial.dump(serial.ciphertext_to_dict(ct), args.out)
    print(f"wrote {args.out} (level {ct.level})")
    return 0


def _decrypt_arguments(p) -> None:
    p.add_argument("--secret", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--ct", required=True)


def _cmd_decrypt(args) -> int:
    ch = _load_channel(args.channel)
    sk = serial.secret_from_dict(ch, serial.load(args.secret))
    ct = serial.ciphertext_from_dict(ch, serial.load(args.ct))
    print(decrypt(sk, ch, ct))
    return 0


def _eval_arguments(p) -> None:
    p.add_argument("--pub", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--lambda-in-pub", action="store_true",
                   help="read the multiplication tensor from the public file (the default and only layout)")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", action="append", default=[], metavar="NAME=FILE")
    p.add_argument("--refresh", choices=("auto", "off"), default="auto")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default="00", help="hex seed for refresh randomness")


def _cmd_eval(args) -> int:
    keys = _load_keys(args)
    circuit = parse_circuit(Path(args.circuit).read_text(encoding="utf-8"))
    for name in circuit.outputs:
        # Each output is written to <out>/<name>.json, beside report.json.
        if not name.isidentifier() or name == "report":
            raise _UsageError(f"output {name!r}: must be an identifier other than 'report'")
    env = {}
    for item in args.input:
        name, _, path = item.partition("=")
        if not path:
            raise _UsageError(f"--input expects NAME=FILE, got {item!r}")
        if name not in circuit.inputs:
            raise _UsageError(f"--input {name!r}: the circuit declares no such input")
        if name in env:
            raise _UsageError(f"--input {name!r} is given more than once")
        env[name] = serial.ciphertext_from_dict(keys.channel, serial.load(path))
    policy = RefreshPolicy(mode=args.refresh)
    outputs, report = evaluate(circuit, env, keys, policy, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, ct in outputs.items():
        serial.dump(serial.ciphertext_to_dict(ct), out / f"{name}.json")
    serial.dump(
        {
            "levels": report.levels,
            "refresh_events": [
                {"wire": w, "pre": pre, "post": post}
                for w, pre, post in report.refresh_events
            ],
        },
        out / "report.json",
    )
    print(f"wrote {len(outputs)} output(s) and report.json to {out}")
    return 0


def _refresh_arguments(p) -> None:
    p.add_argument("--pub", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default="00")
    p.add_argument("--secret", default=None,
                   help="the key owner's secret.json: certify refreshability exactly")


def _cmd_refresh(args) -> int:
    keys = _load_keys(args)
    ch = keys.channel
    ct = serial.ciphertext_from_dict(ch, serial.load(args.ct))
    checker = (RefreshPolicy().resolve_checker(keys) if args.secret is None else
               secret_refresh_checker(serial.secret_from_dict(ch, serial.load(args.secret)), ch))
    rng = args.seed
    ct = make_refreshable(ct, checker, keys.public, ch, rng)
    if ct is None:
        raise NoiseBudgetError(
            "could not publicly verify refreshability (the public test rarely certifies a "
            "ciphertext); the key owner can pass --secret to check it exactly"
            if args.secret is None else "no re-randomization within the budget was refreshable")
    fresh = refresh_ct(keys, ct, rng)
    serial.dump(serial.ciphertext_to_dict(fresh), args.out)
    print(f"wrote {args.out} (level {fresh.level})")
    return 0


def _inspect_arguments(p) -> None:
    p.add_argument("--ct", required=True)
    p.add_argument("--channel", default=None)
    p.add_argument("--pub", default=None)


def _cmd_inspect(args) -> int:
    if (args.channel is None) != (args.pub is None):
        raise _UsageError("--channel and --pub must be given together")
    data = serial.load(args.ct)
    if args.channel is None:
        serial._format(data, "ciphertext")
        if type(data["c"]) is not list:
            raise TypeError("ciphertext vector: expected a list")
        print(f"level: {serial._ints(data['level'], 'ciphertext level')}")
        print(f"vector parts: {len(data['c'])}")
        return 0
    keys = _load_keys(args)
    ch, rep = keys.channel, keys.repartition
    ct = serial.ciphertext_from_dict(ch, data)
    print(f"level: {ct.level}")
    print(f"vector parts: {len(ct.c)}")
    budget = ch.max_noise_level()
    print(f"decryptable: {'yes' if within_budget(ch, ct.level) else 'no'} (budget {budget})")
    for j, value in enumerate(evals(ch, ct.c)):
        prime = rep.prime_of(j)
        ok = "ok" if value % prime == 0 else "VIOLATED"
        print(f"slot {j}: eval {value}, factor {prime}: {ok}")
    return 0


# name -> (handler, help, add_arguments): the one list of subcommands.
_COMMANDS = {
    "keygen": (_cmd_keygen, "generate channel, public, and secret files", _keygen_arguments),
    "encrypt": (_cmd_encrypt, "encrypt one plaintext residue", _encrypt_arguments),
    "decrypt": (_cmd_decrypt, "decrypt a ciphertext and print the residue", _decrypt_arguments),
    "eval": (_cmd_eval, "evaluate a circuit over ciphertexts", _eval_arguments),
    "refresh": (_cmd_refresh, "refresh a ciphertext to the fixed post-refresh level", _refresh_arguments),
    "inspect": (_cmd_inspect, "print level and divisibility diagnostics", _inspect_arguments),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command][0](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed input file: {exc!r}", file=sys.stderr)
        return 1
    except (NoiseBudgetError, ParameterError) as exc:
        print(f"guard failure: {exc}", file=sys.stderr)
        return 2
    except CircuitError as exc:
        print(f"circuit error: {exc}", file=sys.stderr)
        return 1
    except AcesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
