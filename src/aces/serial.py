"""JSON wire formats.

All residue-sized integers are rendered as decimal strings so files stay
width-agnostic; structural integers (levels, indices, dimensions) stay
plain, and one reader (``_ints``) reads them all back exactly or refuses.
Field order is fixed, which makes output files byte-stable under a fixed
seed.  The secret key always lives in its own file and is never written by
the public-material exporters.
"""

from __future__ import annotations

import json
from itertools import chain

from .channel import ArithmeticChannel
from .cipher import Ciphertext
from .errors import ParameterError
from .keygen import ProductTensor, PublicKey, Refresher, SecretKey
from .refresh import EvalKeys, LocatorEntry
from .rings import Repartition, RingPoly, _wrap

__all__ = [
    "channel_to_dict",
    "channel_from_dict",
    "ciphertext_to_dict",
    "ciphertext_from_dict",
    "public_to_dict",
    "public_from_dict",
    "secret_to_dict",
    "secret_from_dict",
    "dump",
    "load",
]


def _ints(data, what: str, shape=(), below: int | None = None, signed: bool = False):
    """The integers of ``data``: one, or nested lists of ``shape``.

    ``shape`` gives each nesting level's length; the outermost may be
    ``None``, which leaves it free.  An integer is a JSON integer (not a
    boolean) or a decimal string, with a leading minus only when ``signed``;
    residues mod ``below`` are ASCII decimal strings in ``[0, below)``.
    Anything else (a float, a boolean, a value out of range) or a wrong
    length is refused with ParameterError, never truncated or reduced; a
    container of the wrong type is a TypeError.  Each check covers a whole
    level in C, not with a Python call per value.
    """
    items = [data]
    for count in shape:
        if not set(map(type, items)) <= {list}:
            raise TypeError(f"{what}: expected nested lists of shape {shape}")
        if count is not None and not set(map(len, items)) <= {count}:
            raise ParameterError(f"{what}: expected nested lists of shape {shape}")
        items = list(chain.from_iterable(items))
    ok, values = False, ()
    if items and type(items[0]) is int:  # JSON integers; a boolean is not one
        ok = below is None and set(map(type, items)) == {int} and (signed or min(items) >= 0)
        values = tuple(items)
    else:
        try:  # non-empty strings of ASCII digits; int() refuses a misplaced minus
            text = "".join(items)
            ok = not items or all(items) and (
                text.replace("-", "") if signed else text).encode("ascii").isdigit()
            values = tuple(map(int, items)) if ok else ()
        except (TypeError, ValueError):  # a float, a boolean, None, not ASCII, "1-"
            ok = False
    if not ok or below is not None and max(values, default=0) >= below:
        raise ParameterError(f"{what}: expected " + (
            f"decimal strings in [0, {below})" if below is not None
            else "integers" if signed else "non-negative integers"))
    for count in reversed(shape[1:]):
        values = tuple(values[i:i + count] for i in range(0, len(values), count))
    return values if shape else values[0]


def _polys(ch: ArithmeticChannel, data, what: str, count: int) -> tuple[RingPoly, ...]:
    """``count`` polynomials of exactly ``deg(u)`` canonical residues mod q;
    nothing is reduced."""
    return tuple(_wrap(ch.ring, c) for c in _ints(data, what, (count, ch.degree), ch.q))


def _poly_out(poly: RingPoly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def channel_to_dict(ch: ArithmeticChannel) -> dict:
    return {
        "p": str(ch.p),
        "q": str(ch.q),
        "omega": str(ch.omega),
        "u": [str(c) for c in ch.u],
        "n": str(ch.n),
        "N": str(ch.big_n),
        "k0": str(ch.k0),
    }


def channel_from_dict(data: dict) -> ArithmeticChannel:
    p, q, n, big_n, k0 = _ints([data[k] for k in ("p", "q", "n", "N", "k0")], "channel", (5,))
    return ArithmeticChannel(
        p=p, q=q, n=n, big_n=big_n, k0=k0,
        omega=_ints(data["omega"], "omega", signed=True),
        u=_ints(data["u"], "u", (None,), signed=True),
    )


def ciphertext_to_dict(ct: Ciphertext) -> dict:
    return {
        "c": [_poly_out(part) for part in ct.c],
        "cprime": _poly_out(ct.cprime),
        "level": ct.level,
    }


def ciphertext_from_dict(ch: ArithmeticChannel, data: dict) -> Ciphertext:
    return Ciphertext(
        _polys(ch, data["c"], "ciphertext vector", ch.n),
        _wrap(ch.ring, _ints(data["cprime"], "ciphertext scalar part", (ch.degree,), ch.q)),
        _ints(data["level"], "ciphertext level"),
    )


def _locator_to_dict(entry: LocatorEntry) -> dict:
    return {
        "vec": [str(v) for v in entry.vec],
        "kind": entry.kind,
        "k": entry.k,
        "margin_num": str(entry.margin_num),
    }


def public_to_dict(keys) -> dict:
    """Everything publishable from a key bundle or its ``EvalKeys``; never
    the secret."""
    rep = keys.repartition
    return {
        "f0": [[_poly_out(p) for p in row] for row in keys.public.f0],
        "fprime": [_poly_out(p) for p in keys.public.fprime],
        "sigma": {
            "map": list(rep.assignment),
            "primes": [str(p) for p in rep.primes],
        },
        "lambda": [
            [[str(v) for v in row] for row in plane] for plane in keys.tensor.coeffs
        ],
        "refresher": {
            "kappa": list(keys.refresher.kappa),
            "rho": [ciphertext_to_dict(ct) for ct in keys.refresher.rho],
        },
        "locators": [_locator_to_dict(e) for e in keys.locators],
    }


def public_from_dict(ch: ArithmeticChannel, data: dict) -> EvalKeys:
    """The public file as the evaluation keys it publishes."""
    n, sigma, fresh = ch.n, data["sigma"], data["refresher"]
    f0 = _ints(data["f0"], "f0", (ch.big_n, n, ch.degree), ch.q)
    public = PublicKey(tuple(tuple(_wrap(ch.ring, c) for c in row) for row in f0),
                       _polys(ch, data["fprime"], "fprime", ch.big_n))
    # Repartition itself rejects primes other than the prime factors of q.
    rep = Repartition(ch.q, _ints(sigma["primes"], "sigma primes", (None,)),
                      _ints(sigma["map"], "sigma map", (n,)))
    # ProductTensor itself rejects a tensor that is not symmetric.
    tensor = ProductTensor(_ints(data["lambda"], "lambda", (n, n, n), ch.q))
    if len(fresh["rho"]) != n:
        raise ParameterError(f"refresher: expected {n} ciphertexts, got {len(fresh['rho'])}")
    kappa = _ints(fresh["kappa"], "refresher levels", (n,))
    refresher = Refresher(tuple(ciphertext_from_dict(ch, d) for d in fresh["rho"]))
    if kappa != refresher.kappa:
        raise ParameterError(f"refresher: kappa {kappa} is not the rho levels {refresher.kappa}")
    entries = data["locators"]
    kinds = [e["kind"] for e in entries]
    if not set(kinds) <= {"locator", "director"}:
        raise ParameterError(f"locator kinds must be locator or director, got {kinds}")
    locators = map(
        LocatorEntry,
        _ints([e["vec"] for e in entries], "locator vec", (None, n), ch.q),
        kinds,
        _ints([e["k"] for e in entries], "locator k", (None,)),
        _ints([e["margin_num"] for e in entries], "locator margin", (None,), ch.q),
    )
    return EvalKeys(ch, public, tensor, refresher, tuple(locators), rep)


def secret_to_dict(sk: SecretKey) -> dict:
    return {"secret": [_poly_out(p) for p in sk.polys]}


def secret_from_dict(ch: ArithmeticChannel, data: dict) -> SecretKey:
    return SecretKey(_polys(ch, data["secret"], "secret", ch.n))


def dump(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: not valid JSON ({exc})") from exc
