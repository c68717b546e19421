"""JSON wire formats.

All residue-sized integers are rendered as decimal strings so files stay
width-agnostic; structural integers (levels, indices, dimensions) stay
plain.  Field order is fixed, which makes output files byte-stable under a
fixed seed.  The secret key always lives in its own file and is never
written by the public-material exporters.
"""

from __future__ import annotations

import json

from .channel import ArithmeticChannel
from .cipher import Ciphertext
from .errors import ParameterError
from .keygen import KeyBundle, ProductTensor, PublicKey, Refresher, SecretKey
from .refresh import LocatorEntry
from .rings import Repartition, RingPoly, factorize

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


def _poly_out(poly: RingPoly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _poly_in(ch: ArithmeticChannel, coeffs) -> RingPoly:
    """Exactly ``deg(u)`` canonical residues mod q; nothing is reduced."""
    return RingPoly(ch.q, ch.u, [int(c) for c in coeffs])


def _polys_in(ch: ArithmeticChannel, items, count: int, what: str) -> tuple[RingPoly, ...]:
    if len(items) != count:
        raise ParameterError(f"{what}: expected {count} polynomials, got {len(items)}")
    return tuple(_poly_in(ch, p) for p in items)


def _tensor_in(ch: ArithmeticChannel, planes) -> ProductTensor:
    """An ``n x n x n`` symmetric tensor of canonical residues mod q."""
    if len(planes) != ch.n:
        raise ParameterError(f"lambda: expected {ch.n} planes, got {len(planes)}")
    # ProductTensor itself rejects a tensor that is not a symmetric cube.
    tensor = ProductTensor(
        tuple(tuple(tuple(int(v) for v in row) for row in plane) for plane in planes)
    )
    if any(not 0 <= v < ch.q for plane in tensor.coeffs for row in plane for v in row):
        raise ParameterError(f"lambda: entries must be canonical residues mod {ch.q}")
    return tensor


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
    return ArithmeticChannel(
        p=int(data["p"]),
        q=int(data["q"]),
        omega=int(data["omega"]),
        u=tuple(int(c) for c in data["u"]),
        n=int(data["n"]),
        big_n=int(data["N"]),
        k0=int(data["k0"]),
    )


def ciphertext_to_dict(ct: Ciphertext) -> dict:
    return {
        "c": [_poly_out(part) for part in ct.c],
        "cprime": _poly_out(ct.cprime),
        "level": ct.level,
    }


def ciphertext_from_dict(ch: ArithmeticChannel, data: dict) -> Ciphertext:
    return Ciphertext(
        _polys_in(ch, data["c"], ch.n, "ciphertext vector"),
        _poly_in(ch, data["cprime"]),
        int(data["level"]),
    )


def _locator_to_dict(entry: LocatorEntry) -> dict:
    return {
        "vec": [str(v) for v in entry.vec],
        "kind": entry.kind,
        "k": entry.k,
        "margin_num": str(entry.margin_num),
    }


def _locator_from_dict(ch: ArithmeticChannel, data: dict) -> LocatorEntry:
    vec = tuple(int(v) for v in data["vec"])
    if len(vec) != ch.n or any(not 0 <= v < ch.q for v in vec):
        raise ParameterError(f"locator vec: expected {ch.n} canonical residues mod {ch.q}")
    if data["kind"] not in ("locator", "director"):
        raise ParameterError(f"locator kind must be locator or director, got {data['kind']!r}")
    return LocatorEntry(vec, data["kind"], int(data["k"]), int(data["margin_num"]))


def _repartition_in(ch: ArithmeticChannel, data: dict) -> Repartition:
    """The prime factors of q, in order, and one assignment per slot."""
    primes, factors = tuple(int(p) for p in data["primes"]), factorize(ch.q)
    if list(primes) != factors:
        raise ParameterError(f"sigma: primes must be the prime factors of q, {factors}")
    assignment = tuple(int(v) for v in data["map"])
    if len(assignment) != ch.n:
        raise ParameterError(f"sigma: expected {ch.n} map entries, got {len(assignment)}")
    return Repartition(ch.q, primes, assignment)


def _refresher_in(ch: ArithmeticChannel, data: dict) -> Refresher:
    """One non-negative level and one ciphertext per secret slot."""
    kappa = tuple(int(k) for k in data["kappa"])
    if len(kappa) != ch.n or len(data["rho"]) != ch.n:
        raise ParameterError(
            f"refresher: expected {ch.n} levels and ciphertexts, "
            f"got {len(kappa)} and {len(data['rho'])}"
        )
    if min(kappa) < 0:
        raise ParameterError("refresher: levels cannot be negative")
    return Refresher(kappa, tuple(ciphertext_from_dict(ch, d) for d in data["rho"]))


def public_to_dict(bundle: KeyBundle) -> dict:
    """Everything publishable from a key bundle; never the secret."""
    rep = bundle.repartition
    return {
        "f0": [[_poly_out(p) for p in row] for row in bundle.public.f0],
        "fprime": [_poly_out(p) for p in bundle.public.fprime],
        "sigma": {
            "map": list(rep.assignment),
            "primes": [str(p) for p in rep.primes],
        },
        "lambda": [
            [[str(v) for v in row] for row in plane] for plane in bundle.tensor.coeffs
        ],
        "refresher": {
            "kappa": list(bundle.refresher.kappa),
            "rho": [ciphertext_to_dict(ct) for ct in bundle.refresher.rho],
        },
        "locators": [_locator_to_dict(e) for e in bundle.locators],
    }


def public_from_dict(ch: ArithmeticChannel, data: dict):
    """Returns (PublicKey, Repartition, ProductTensor, Refresher, locators)."""
    f0 = data["f0"]
    if len(f0) != ch.big_n:
        raise ParameterError(f"f0: expected {ch.big_n} rows, got {len(f0)}")
    pk = PublicKey(
        tuple(_polys_in(ch, row, ch.n, "f0 row") for row in f0),
        _polys_in(ch, data["fprime"], ch.big_n, "fprime"),
    )
    rep = _repartition_in(ch, data["sigma"])
    tensor = _tensor_in(ch, data["lambda"])
    refresher = _refresher_in(ch, data["refresher"])
    locators = tuple(_locator_from_dict(ch, d) for d in data.get("locators", []))
    return pk, rep, tensor, refresher, locators


def secret_to_dict(sk: SecretKey) -> dict:
    return {"secret": [_poly_out(p) for p in sk.polys]}


def secret_from_dict(ch: ArithmeticChannel, data: dict) -> SecretKey:
    return SecretKey(_polys_in(ch, data["secret"], ch.n, "secret"))


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
