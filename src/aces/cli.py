"""Command-line interface.

Subcommands: keygen, encrypt, decrypt, eval, refresh, inspect.  Exit codes:
0 on success, 1 on usage errors, 2 when a cryptographic guard refuses the
operation (noise budget, invalid parameters, unverifiable refresh).

A flag is written ``--flag value`` or ``--flag=value``, spelled in full (no
prefix abbreviations), and given at most once, except ``eval --input``.  A
separate value may start with ``-`` only as a negative integer, so
``u = X^4 - 1`` is ``--u=-1,0,0,0,1``.  ``eval --secret`` and ``refresh
--secret`` take the key owner's secret file, refuse a public file it does
not own, and certify refreshability exactly instead of by the public test.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import serial
from .channel import ArithmeticChannel, RandomSource
from .cipher import decrypt, encrypt, evals, within_budget
from .circuit import RefreshPolicy, evaluate, parse_circuit
from .errors import AcesError, CircuitError, NoiseBudgetError, ParameterError
from .keygen import keygen, owns
from .refresh import EvalKeys, refresh_certified, secret_refresh_checker


class _UsageError(Exception):
    pass


_REQUIRED = object()  # the default of a flag that must be given


def _parse(argv) -> SimpleNamespace:
    """``argv`` read in one pass against its command's row of ``_COMMANDS``:
    the command's name as ``command`` and each flag's value, or its default,
    as the attribute ``--lambda-in-pub`` -> ``lambda_in_pub``."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command = argv[0]
    if command in ("-h", "--help"):
        _help()
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    flags = _COMMANDS[command][2]
    values = {}
    rest = iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            _help(command)
        flag, eq, text = arg.partition("=")
        if flag not in flags:
            raise _UsageError(f"unrecognized arguments: {arg}")
        convert, default, _ = flags[flag]
        if convert is None:
            if eq:
                raise _UsageError(f"argument {flag}: ignored explicit argument {text!r}")
            value = True
        else:
            if not eq:
                text = next(rest, None)
                if text is None or text.startswith("-") and not text[1:].isdecimal():
                    raise _UsageError(f"argument {flag}: expected one argument")
            try:
                value = convert(text)
            except ValueError:
                raise _UsageError(
                    f"argument {flag}: invalid {convert.__name__} value: {text!r}") from None
            except _UsageError as exc:
                raise _UsageError(f"argument {flag}: {exc}") from None
        if type(default) is tuple:
            value = values.get(flag, ()) + (value,)
        elif flag in values:
            raise _UsageError(f"argument {flag}: given more than once")
        values[flag] = value
    missing = [flag for flag, (_, default, _) in flags.items()
               if default is _REQUIRED and flag not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): values[flag] if flag in values
        else convert(default) if type(default) is str else default
        for flag, (convert, default, _) in flags.items()})


def _help(command=None):
    """Print ``aces -h`` or ``aces COMMAND -h`` from ``_COMMANDS`` and exit 0."""
    if command is None:
        lines = [f"usage: aces {{{','.join(_COMMANDS)}}} ...", "", __doc__.strip(), "", "commands:"]
        lines += [f"  {name:<8} {summary}" for name, (_, summary, _) in _COMMANDS.items()]
    else:
        _, summary, flags = _COMMANDS[command]
        lines = [f"usage: aces {command} [flags]", "", summary, "", "flags:",
                 f"  {'-h, --help':<20} print this help and exit"]
        for flag, (convert, default, text) in flags.items():
            spec = flag if convert is None else f"{flag} {flag[2:].upper()}"
            note = ("required" if default is _REQUIRED else "repeatable" if type(default) is tuple
                    else None if default in (None, False) else f"default {default}")
            if note:
                text = f"{text} ({note})"
            lines.append(f"  {spec:<20} {text}")
    print("\n".join(lines))
    raise SystemExit(0)


def _load_channel(path) -> ArithmeticChannel:
    return serial.channel_from_dict(serial.load(path)).require_valid()


def _load_keys(args) -> EvalKeys:
    """The evaluation keys of ``--pub`` over the channel of ``--channel``."""
    return serial.public_from_dict(_load_channel(args.channel), serial.load(args.pub))


def _coefficients(text: str) -> tuple[int, ...]:
    """``--u``: integers separated by commas alone, low to high."""
    if not re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", text):
        raise _UsageError(f"expected comma-separated integers, got {text!r}")
    return tuple(map(int, text.split(",")))


def _mode(text: str) -> str:
    """``--refresh``: auto or off."""
    if text not in ("auto", "off"):
        raise _UsageError(f"invalid choice: {text!r} (choose from 'auto', 'off')")
    return text


def _seed(text: str) -> RandomSource:
    """``--seed``: the random source seeded by a hex string, two digits a byte."""
    try:
        return RandomSource.from_hex(text)
    except ValueError:
        raise _UsageError(f"expected hex digits in pairs, got {text!r}") from None


def _dump_all(files) -> None:
    """``serial.dump`` each ``(data, path)`` of ``files`` in order, after
    refusing any path that is an existing directory with the error opening
    it would raise, so a command writes all of its files or none."""
    for _, path in files:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for data, path in files:
        serial.dump(data, path)


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
    _dump_all([(serial.channel_to_dict(ch), out / "channel.json"),
               (serial.public_to_dict(bundle), out / "public.json"),
               (serial.secret_to_dict(bundle.secret), out / "secret.json")])
    print(f"wrote channel.json, public.json, secret.json to {out}")
    return 0


def _cmd_encrypt(args) -> int:
    keys = _load_keys(args)
    ct = encrypt(keys.public, keys.channel, args.message, args.seed)
    serial.dump(serial.ciphertext_to_dict(ct), args.out)
    print(f"wrote {args.out} (level {ct.level})")
    return 0


def _cmd_decrypt(args) -> int:
    ch = _load_channel(args.channel)
    sk = serial.secret_from_dict(ch, serial.load(args.secret))
    ct = serial.ciphertext_from_dict(ch, serial.load(args.ct))
    print(decrypt(sk, ch, ct))
    return 0


def _checker(args, keys: EvalKeys):
    """The key owner's exact refreshability checker when ``--secret`` is
    given, else None: the public test.  The secret must own the public
    material (``keygen.owns``); another key's public file, or one with a
    word changed, is refused before any arithmetic on it."""
    if args.secret is None:
        return None
    ch = keys.channel
    sk = serial.secret_from_dict(ch, serial.load(args.secret))
    if not owns(sk, keys):
        raise ParameterError("the public file is not the secret file's key")
    return secret_refresh_checker(sk, ch)


def _cmd_eval(args) -> int:
    if args.secret is not None and args.refresh == "off":
        raise _UsageError("--secret checks refreshes, which --refresh off disables")
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
    policy = RefreshPolicy(mode=args.refresh, checker=_checker(args, keys))
    outputs, report = evaluate(circuit, env, keys, policy, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    events = [{"wire": w, "pre": pre, "post": post} for w, pre, post in report.refresh_events]
    files = [(serial.ciphertext_to_dict(ct), out / f"{name}.json") for name, ct in outputs.items()]
    files.append(({"levels": report.levels, "refresh_events": events}, out / "report.json"))
    _dump_all(files)
    print(f"wrote {len(outputs)} output(s) and report.json to {out}")
    return 0


def _cmd_refresh(args) -> int:
    keys = _load_keys(args)
    ch = keys.channel
    ct = serial.ciphertext_from_dict(ch, serial.load(args.ct))
    fresh = refresh_certified(keys, ct, _checker(args, keys), args.seed)
    if fresh is None:
        raise NoiseBudgetError(
            "could not publicly verify refreshability (the public test rarely certifies a "
            "ciphertext); the key owner can pass --secret to check it exactly"
            if args.secret is None else "no re-randomization within the budget was refreshable")
    serial.dump(serial.ciphertext_to_dict(fresh), args.out)
    print(f"wrote {args.out} (level {fresh.level})")
    return 0


def _cmd_inspect(args) -> int:
    if (args.channel is None) != (args.pub is None):
        raise _UsageError("--channel and --pub must be given together")
    data = serial.load(args.ct)
    if args.channel is None:
        level, parts = serial.ciphertext_shape(data)
        print(f"level: {level}")
        print(f"vector parts: {parts}")
        return 0
    keys = _load_keys(args)
    ch, rep = keys.channel, keys.public.repartition
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


# Flags: flag -> (convert, default, help).  ``convert`` reads the flag's one
# value; None makes the flag a switch that takes none.  A str default is
# converted on each call that omits the flag, and a tuple default makes the
# flag repeatable, its values collected in order.  Any other flag may be
# given at most once.
_KEYS = {
    "--pub": (str, _REQUIRED, "public.json from keygen"),
    "--channel": (str, _REQUIRED, "channel.json from keygen"),
}

# name -> (handler, help, flags): the one list of subcommands.
_COMMANDS = {
    "keygen": (_cmd_keygen, "generate channel, public, and secret files", {
        "--p": (int, _REQUIRED, "plaintext modulus"),
        "--q": (int, _REQUIRED, "ciphertext modulus"),
        "--degree": (int, _REQUIRED, "degree of u"),
        "--n": (int, _REQUIRED, "secret-key length"),
        "--bigN": (int, _REQUIRED, "public-key rows"),
        "--k0": (int, _REQUIRED, "slack in q >= k0 p^2 N + 1"),
        "--seed": (_seed, _REQUIRED, "hex seed for deterministic output"),
        "--out": (str, _REQUIRED, "output directory"),
        "--omega": (int, 1, "evaluation point, a root of u mod q"),
        "--u": (_coefficients, None,
                "comma-separated coefficients, low to high, no blanks; write a "
                "leading minus as --u=-1,0,...,1 (default X^degree - 1)"),
    }),
    "encrypt": (_cmd_encrypt, "encrypt one plaintext residue", {
        **_KEYS,
        "--message": (int, _REQUIRED, "residue mod p"),
        "--seed": (_seed, _REQUIRED, "hex seed for the encryption randomness"),
        "--out": (str, _REQUIRED, "ciphertext file to write"),
    }),
    "decrypt": (_cmd_decrypt, "decrypt a ciphertext and print the residue", {
        "--secret": (str, _REQUIRED, "secret.json from keygen"),
        "--channel": _KEYS["--channel"],
        "--ct": (str, _REQUIRED, "ciphertext file"),
    }),
    "eval": (_cmd_eval, "evaluate a circuit over ciphertexts", {
        **_KEYS,
        "--lambda-in-pub": (None, False,
                            "read the multiplication tensor from the public file "
                            "(the default and only layout)"),
        "--circuit": (str, _REQUIRED, "circuit file"),
        "--input": (str, (), "NAME=FILE, one per circuit input"),
        "--refresh": (_mode, "auto", "auto or off"),
        "--out": (str, _REQUIRED, "output directory"),
        "--seed": (_seed, "00", "hex seed for refresh randomness"),
        "--secret": (str, None, "the key owner's secret.json: certify refreshability exactly"),
    }),
    "refresh": (_cmd_refresh, "refresh a ciphertext to the fixed post-refresh level", {
        **_KEYS,
        "--ct": (str, _REQUIRED, "ciphertext file"),
        "--out": (str, _REQUIRED, "ciphertext file to write"),
        "--seed": (_seed, "00", "hex seed for refresh randomness"),
        "--secret": (str, None, "the key owner's secret.json: certify refreshability exactly"),
    }),
    "inspect": (_cmd_inspect, "print level and divisibility diagnostics", {
        "--ct": (str, _REQUIRED, "ciphertext file"),
        "--channel": (str, None, "channel.json, given with --pub"),
        "--pub": (str, None, "public.json, given with --channel"),
    }),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        return _COMMANDS[args.command][0](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing file, a directory, a path under a file
        print(f"file error: {exc}", file=sys.stderr)
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
