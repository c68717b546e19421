"""JSON wire formats, file format 7.

Every file but ``report.json`` starts with ``"format": 7``; a file without
it, or with any other value, is refused, with a message to regenerate the
keys.  There is one reader per kind of value and no reader of older files.
``dump`` writes every file, ``report.json`` included, as compact JSON
(no spaces, no indentation) with a final newline.

* A polynomial in ``Z_q[X]/(u)`` is one word string of its ``deg(u)``
  canonical coefficients: each residue a field of ``b = Ring.bits`` bits,
  the bit length of ``q - 1``, field ``i`` at bits ``b*i`` to ``b*i + b -
  1`` of a little-endian integer of ``ceil(b * count / 8)`` bytes whose
  bits past the last field are zero, as ML-KEM's ``ByteEncode`` writes its
  coefficients (NIST FIPS 203).  ``Ring(q, u)`` refuses a ``q`` above
  ``2**64``, so ``b`` is at most 64.  The bytes are written in standard,
  padded base64 (RFC 4648, section 4).  The multiplication tensor is a
  list of layers, each ``alpha`` (one string of ``n`` residues) and
  ``beta`` (``n`` strings of ``n`` residues, a symmetric matrix); the
  locator vectors and the locator margins are word strings in the same
  way.  ``_words`` reads them all back or refuses.
* The public file holds nothing the reader can work out.  ``f0`` is the
  seed of the initializer (``PublicKey``) and the refresher's ``c`` the
  seed of its ciphertexts' vector parts (``Refresher``), each
  ``SEED_BYTES`` bytes in the same base64, so 24 characters; any bytes are
  a seed.  ``_seed`` reads them back or refuses.  ``PublicKey.f0`` and
  ``EvalKeys.rho`` expand each seed on first use, over the file's
  ``sigma``, which the loaded public key alone holds.  ``sigma`` is the
  repartition map alone, since its primes are the prime factors of the
  channel's q, and the refresher holds its seed and its ``n`` scalar parts
  alone, since every refresher ciphertext sits at
  ``cipher.REFRESHER_LEVEL``.
* Structural integers (levels, the repartition map, locator indices) are
  JSON integers; channel parameters are decimal strings, so they stay
  exact at any width.  ``_ints`` reads either kind wherever an integer
  belongs, or refuses.

Field order is fixed, which makes output files byte-stable under a fixed
seed.  The secret key always lives in its own file and is never written by
the public-material exporters.
"""

from __future__ import annotations

import json
from binascii import a2b_base64, b2a_base64
from functools import lru_cache, partial
from itertools import chain
from operator import itemgetter
from struct import Struct
from typing import NamedTuple

from .channel import ArithmeticChannel
from .cipher import SEED_BYTES, Ciphertext
from .errors import ParameterError
from .keygen import ProductTensor, PublicKey, Refresher, SecretKey
from .refresh import EvalKeys, LocatorEntry
from .rings import Repartition, Ring, RingPoly, _wrap

__all__ = [
    "channel_to_dict",
    "channel_from_dict",
    "ciphertext_to_dict",
    "ciphertext_from_dict",
    "ciphertext_shape",
    "public_to_dict",
    "public_from_dict",
    "secret_to_dict",
    "secret_from_dict",
    "dump",
    "load",
]

FORMAT = 7

# The top-level fields of each kind of file.
_CHANNEL = frozenset({"format", "p", "q", "omega", "u", "n", "N", "k0"})
_CIPHERTEXT = frozenset({"format", "c", "cprime", "level"})
_PUBLIC = frozenset({"format", "f0", "fprime", "sigma", "lambda", "refresher", "locators"})
_SECRET = frozenset({"format", "secret"})


def _format(data, what: str, fields: frozenset) -> None:
    """Refuse a file that is not format 7 (an older file, or not a file of
    this package), and one whose top-level fields are not ``fields``."""
    if type(data) is not dict:
        raise TypeError(f"{what}: expected a JSON object")
    found = data.get("format")
    if type(found) is not int or found != FORMAT:  # 7.0 is not 7
        raise ParameterError(
            f"{what}: file format {found!r}, expected {FORMAT}; "
            "regenerate the keys (and re-encrypt) with this version of aces")
    _fields([data], what, fields)


def _fields(objects, what: str, fields) -> None:
    """Refuse JSON objects that lack a field of the set ``fields`` (KeyError)
    or have one outside it (ParameterError); a non-object is a TypeError."""
    if not set(map(type, objects)) <= {dict}:
        raise TypeError(f"{what}: expected JSON objects")
    found = set(map(frozenset, objects))
    if missing := fields - fields.intersection(*found):
        raise KeyError(f"{what}: missing field {', '.join(sorted(map(repr, missing)))}")
    if unknown := fields.union(*found) - fields:
        raise ParameterError(f"{what}: unknown field {', '.join(sorted(map(repr, unknown)))}")


def _leaves(data, what: str, shape) -> list:
    """The leaves of nested lists of ``shape``: each entry is one nesting
    level's length, the outermost may be ``None`` (free).  A container of
    the wrong type is a TypeError, a wrong length a ParameterError; each
    level is checked whole in C."""
    items = [data]
    for count in shape:
        if not set(map(type, items)) <= {list}:
            raise TypeError(f"{what}: expected nested lists of shape {shape}")
        if count is not None and not set(map(len, items)) <= {count}:
            raise ParameterError(f"{what}: expected nested lists of shape {shape}")
        items = list(chain.from_iterable(items))
    return items


def _nest(values: tuple, shape) -> tuple:
    """``values`` regrouped by every length of ``shape`` but the outermost."""
    for count in reversed(shape[1:]):
        values = tuple(zip(*[iter(values)] * count))  # lengths are checked: no group is short
    return values


def _ints(data, what: str, shape=(), signed: bool = False):
    """The structural integers of ``data``: one, or nested lists of ``shape``.

    Each integer is a JSON integer (not a boolean) or a decimal string, with
    a leading minus only when ``signed``; one list may hold both kinds.
    Anything else (a float, a boolean, a negative value where none belongs)
    is refused with ParameterError, never truncated.
    """
    items = _leaves(data, what, shape)
    texts = [x for x in items if type(x) is not int]  # a boolean is not an int
    try:  # non-empty strings of ASCII digits; int() refuses a misplaced minus
        text = "".join(texts)
        ok = all(texts) and (not texts or (
            text.replace("-", "") if signed else text).encode("ascii").isdigit())
        values = tuple(x if type(x) is int else int(x) for x in items) if ok else ()
    except (TypeError, ValueError):  # a float, a boolean, None, not ASCII, "1-"
        ok = False
    if not ok or not signed and min(values, default=0) < 0:
        raise ParameterError(f"{what}: expected " + (
            "integers" if signed else "non-negative integers"))
    return _nest(values, shape) if shape else values[0]


# One word string's bytes from and to base64.  ``_decode`` takes the standard
# alphabet and its padding alone: no other character, no missing or excess
# padding.  The last data character of a string padded with ``=`` carries two
# pad bits, and of one padded with ``==`` four; ``_encode`` writes them zero,
# which leaves these characters.
_decode = partial(a2b_base64, strict_mode=True)
_encode = partial(b2a_base64, newline=False)
_PAD_ENDS = {1: frozenset("AEIMQUYcgkosw048"), 2: frozenset("AQgw")}


def _base64(items: list, what: str, size: int, noun: str) -> list[bytes]:
    """The bytes of each leaf of ``items``, which must be the canonical
    base64 of exactly ``size`` bytes, the string ``_encode`` writes for
    them: its length is ``4 * ceil(size / 3)``, it decodes in strict mode
    (the standard alphabet only, no whitespace) to ``size`` bytes, so its
    padding is exactly the canonical one, and its pad bits are zero.
    Anything else is a ParameterError naming ``noun``, the bytes of one
    leaf, except that a list where a string belongs is a TypeError, as a
    wrong container is.  Each leaf is decoded on its own, since each carries
    its own padding; every other check covers all of them at once.
    """
    kinds = set(map(type, items))
    if not kinds <= {str}:
        error = TypeError if kinds & {list, dict} else ParameterError
        raise error(f"{what}: expected base64 strings of {noun}")
    pad = -size % 3
    if not set(map(len, items)) <= {4 * -(-size // 3)}:
        raise ParameterError(f"{what}: expected strings of {noun}")
    try:
        raws = list(map(_decode, items))
    except ValueError:  # binascii.Error, or a character that is not ASCII
        raws = None
    if raws is None or not set(map(len, raws)) <= {size} or pad and not set(
            map(itemgetter(-1 - pad), items)) <= _PAD_ENDS[pad]:
        raise ParameterError(f"{what}: expected canonical base64 of {noun}")
    return raws


class _Layout(NamedTuple):
    """How ``_words`` and ``_words_out`` move ``strings`` word strings of
    ``count`` fields of ``bits`` bits at once (``_layout``)."""

    slots: Struct  # every string's residues in 8-byte slots, zero slots to whole chunks
    chunks: Struct  # cuts the chunks of ``bits`` bytes out of the padded strings
    heads: Struct  # the first ``bits`` bytes of every 64
    pads: int  # the slots past each string's ``count``
    rounds: tuple  # the (mask, shift) rounds between 8 fields packed and in slots


@lru_cache(maxsize=64)
def _layout(bits: int, count: int, strings: int) -> _Layout:
    """The layout of ``strings`` word strings of ``count`` fields of
    ``bits`` bits.  Eight fields fill exactly ``bits`` bytes, a chunk, so
    each string padded with zero bytes to whole chunks is a sequence of
    chunks that ``struct`` cuts apart and moves to 64 bytes each.  Within
    every 64 bytes, three rounds move the chunk's fields between packed,
    ``bits`` apart, and 8-byte slots, 64 bits apart: the round of ``half``
    splits every group of ``2 * half`` fields in two, its mask keeps the
    lower half and its shift is how far the upper half moves.  Each round
    is four operations on one integer, so no field costs Python work of its
    own and the cost is linear in the length of the strings."""
    per = -(-count // 8)
    total = per * strings
    return _Layout(
        Struct("<" + f"{count}Q{64 * per - 8 * count}x" * strings),
        Struct(f"{bits}s" * total),
        Struct(f"{bits}s{64 - bits}x" * total),
        int.from_bytes((bytes(8 * count) + b"\xff" * (64 * per - 8 * count)) * strings, "little"),
        tuple((int.from_bytes(((1 << half * bits) - 1).to_bytes(16 * half, "little")
                              * (4 * total // half), "little"), half * (64 - bits))
              for half in (1, 2, 4)))


def _words(ring: Ring, data, what: str, shape, count: int) -> tuple:
    """The residues mod ``q`` of ``ring`` in ``data``: nested lists of
    ``shape`` whose leaves are word strings of ``count`` fields of
    ``Ring.bits`` bits each, as nested tuples whose innermost tuples hold
    one string's residues.  A leaf must be canonical base64 (``_base64``)
    of exactly ``ceil(bits * count / 8)`` bytes, its bits past the last
    field zero and every field below ``q``; anything else is refused, never
    reduced or truncated.  All strings are read at once (``_layout``).
    """
    q, bits = ring.q, ring.bits
    items = _leaves(data, what, shape)
    noun = f"{count} residues of {bits} bits"
    size = -(-count * bits // 8)
    raws = _base64(items, what, size, noun)
    layout = _layout(bits, count, len(raws))
    fill = bytes(-size % bits)  # pads a string to whole chunks
    x = int.from_bytes(bytes(64 - bits).join(layout.chunks.unpack(fill.join([*raws, b""]))),
                       "little")
    for mask, shift in reversed(layout.rounds):
        low = x & mask
        x = low | (x ^ low) << shift
    if x & layout.pads:
        raise ParameterError(f"{what}: expected {noun} and zero bits past them")
    values = layout.slots.unpack(x.to_bytes(layout.slots.size, "little"))
    if max(values, default=0) >= q:
        raise ParameterError(f"{what}: expected residues below q = {q}")
    return _nest(values, (*shape, count))


def _seed(data, what: str) -> bytes:
    """A seed: the canonical base64 (``_base64``) of exactly ``SEED_BYTES``
    bytes, each of any value."""
    return _base64([data], what, SEED_BYTES, f"{SEED_BYTES} bytes")[0]


def _words_out(ring: Ring, rows) -> list[str]:
    """One word string per row of ``rows`` (equal-length rows of residues
    mod ``q`` of ``ring``), all packed at once, the way ``_words`` reads
    them in reverse."""
    rows = list(rows)
    if not rows:
        return []
    bits, count = ring.bits, len(rows[0])
    layout = _layout(bits, count, len(rows))
    x = int.from_bytes(layout.slots.pack(*chain.from_iterable(rows)), "little")
    for mask, shift in layout.rounds:
        low = x & mask
        x = low | (x ^ low) >> shift
    raw = b"".join(layout.heads.unpack(x.to_bytes(layout.slots.size, "little")))
    size, step = -(-count * bits // 8), -(-count // 8) * bits
    return [_encode(raw[i:i + size]).decode("ascii") for i in range(0, len(raw), step)]


def _polys(ch: ArithmeticChannel, data, what: str, count: int) -> tuple[RingPoly, ...]:
    """``count`` polynomials; nothing is reduced."""
    return tuple(_wrap(ch.ring, c) for c in _words(ch.ring, data, what, (count,), ch.degree))


def _polys_out(polys) -> list[str]:
    """One word string per polynomial of the non-empty ``polys``."""
    return _words_out(polys[0].ring, [p.coeffs for p in polys])


def _rows(items: list, count: int) -> list[list]:
    """``items`` in lists of ``count``."""
    return [items[i:i + count] for i in range(0, len(items), count)]


def channel_to_dict(ch: ArithmeticChannel) -> dict:
    return {
        "format": FORMAT,
        "p": str(ch.p),
        "q": str(ch.q),
        "omega": str(ch.omega),
        "u": [str(c) for c in ch.u],
        "n": str(ch.n),
        "N": str(ch.big_n),
        "k0": str(ch.k0),
    }


def channel_from_dict(data: dict) -> ArithmeticChannel:
    _format(data, "channel", _CHANNEL)
    p, q, n, big_n, k0 = _ints([data[k] for k in ("p", "q", "n", "N", "k0")], "channel", (5,))
    return ArithmeticChannel(
        p=p, q=q, n=n, big_n=big_n, k0=k0,
        omega=_ints(data["omega"], "omega", signed=True),
        u=_ints(data["u"], "u", (None,), signed=True),
    )


def ciphertext_to_dict(ct: Ciphertext) -> dict:
    return {"format": FORMAT, "c": _polys_out(ct.c), "cprime": _polys_out([ct.cprime])[0],
            "level": ct.level}


def ciphertext_shape(data: dict) -> tuple[int, int]:
    """The level and the number of vector parts of a ciphertext file, read
    with no channel: its format, fields and level are checked, and that
    ``c`` is a list, but no word string is read."""
    _format(data, "ciphertext", _CIPHERTEXT)
    if type(data["c"]) is not list:
        raise TypeError("ciphertext vector: expected a list")
    return _ints(data["level"], "ciphertext level"), len(data["c"])


def ciphertext_from_dict(ch: ArithmeticChannel, data: dict) -> Ciphertext:
    level, _ = ciphertext_shape(data)
    return Ciphertext(_polys(ch, data["c"], "ciphertext vector", ch.n),
                      _polys(ch, [data["cprime"]], "ciphertext scalar part", 1)[0], level)


def public_to_dict(keys) -> dict:
    """Everything publishable from an ``EvalKeys``, a key bundle among them,
    read field by field; never the secret."""
    ch, public, locators = keys.channel, keys.public, keys.locators
    ring, n, layers, refresher = ch.ring, ch.n, keys.tensor.layers, keys.refresher
    return {
        "format": FORMAT,
        "f0": _encode(public.seed).decode("ascii"),
        "fprime": _polys_out(public.fprime),
        "sigma": list(public.repartition.assignment),
        "lambda": [{"alpha": a, "beta": b} for a, b in zip(
            _words_out(ring, (a for a, _ in layers)),
            _rows(_words_out(ring, chain.from_iterable(b for _, b in layers)), n))],
        "refresher": {
            "c": _encode(refresher.seed).decode("ascii"),
            "cprime": _polys_out(refresher.cprime),
        },
        "locators": [
            {"vec": vec, "kind": e.kind, "k": e.k, "margin_num": margin}
            for e, vec, margin in zip(locators, _words_out(ring, (e.vec for e in locators)),
                                      _words_out(ring, ((e.margin_num,) for e in locators)))
        ],
    }


def public_from_dict(ch: ArithmeticChannel, data: dict) -> EvalKeys:
    """The public file as the evaluation keys it publishes."""
    _format(data, "public key", _PUBLIC)
    n, sigma, fresh = ch.n, data["sigma"], data["refresher"]
    if type(sigma) is dict:  # format 5's {"map", "primes"} in a file that says 7
        raise ParameterError("sigma: expected the repartition map alone, as format 7 writes it")
    # Repartition itself rejects a map entry past the prime factors of q.
    rep = Repartition(ch.q, _ints(sigma, "sigma map", (n,)))
    public = PublicKey(_seed(data["f0"], "f0"), _polys(ch, data["fprime"], "fprime", ch.big_n),
                       ch, rep)
    # ProductTensor itself refuses an empty layer list and a beta that is not symmetric.
    layers = data["lambda"]
    _fields(layers, "lambda layer", {"alpha", "beta"})
    tensor = ProductTensor(ch.q, tuple(zip(
        _words(ch.ring, [e["alpha"] for e in layers], "lambda alpha", (None,), n),
        _words(ch.ring, [e["beta"] for e in layers], "lambda beta", (None, n), n))))
    if not tensor.fits(rep):
        raise ParameterError("lambda beta: a 2x2 minor is not 0 modulo its slot pair's weight")
    _fields([fresh], "refresher", {"c", "cprime"})
    refresher = Refresher(_seed(fresh["c"], "refresher vector seed"),
                          _polys(ch, fresh["cprime"], "refresher scalar part", n))
    entries = data["locators"]
    _fields(entries, "locator", {"vec", "kind", "k", "margin_num"})
    kinds = [e["kind"] for e in entries]
    if not set(kinds) <= {"locator", "director"}:
        raise ParameterError(f"locator kinds must be locator or director, got {kinds}")
    locators = map(
        LocatorEntry,
        _words(ch.ring, [e["vec"] for e in entries], "locator vec", (None,), n),
        kinds,
        _ints([e["k"] for e in entries], "locator k", (None,)),
        chain.from_iterable(_words(ch.ring, [e["margin_num"] for e in entries],
                                   "locator margin", (None,), 1)),
    )
    return EvalKeys(public, tensor, refresher, tuple(locators))


def secret_to_dict(sk: SecretKey) -> dict:
    return {"format": FORMAT, "secret": _polys_out(sk.polys)}


def secret_from_dict(ch: ArithmeticChannel, data: dict) -> SecretKey:
    _format(data, "secret key", _SECRET)
    return SecretKey(_polys(ch, data["secret"], "secret", ch.n))


def dump(data: dict, path) -> None:
    """Write ``data`` as compact JSON and a final newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, separators=(",", ":")) + "\n")


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: not valid JSON ({exc})") from exc
