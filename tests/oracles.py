"""Independent reference implementations used as test oracles.

Everything here is written against the definitions directly, with plain
integer lists and a monomial-substitution reduction, deliberately not
sharing code or algorithm shape with the package under test.  The one
exception is ``refresh_reference``, which composes public encryptions with
explicit masks and carriers (``encryption``) and the package's own
homomorphic operations (each checked against the oracles above) into the
refresh as it is defined, ``make_refreshable_reference``, the
re-randomization on whole ciphertexts with ``encryption`` and the
package's ``hom_add``, and ``evaluate_reference``, the auto-refresh
evaluator with its refresh rule written inline, on the package's level
rules and gates and the two references above.  ``render_v6`` renders a
file of the current wire format as file format 6 wrote it, ``render_v5`` a
file of format 6 as format 5 wrote it, ``render_v4`` a
file of format 5 as format 4 wrote it, ``render_v3`` a file of format 4 as
format 3 wrote it, ``render_v2`` a file of format 3 in the layout of
format 2, and ``render_v1`` a file of format 2 in that of format 1, so
digests recorded under any of them still pin every value.  ``render_v4``
expands the public file's seeds with the package's own ``PublicKey.f0``
and ``cipher.expand_seed``, as ``refresh_reference`` composes the
package's operations.
"""

from __future__ import annotations

import base64
import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement, product

from aces.channel import RandomSource, sample_message_carrier
from aces.cipher import (
    REFRESHER_LEVEL, Ciphertext, checked_refresh_level, expand_seed, fresh_level, level_after,
    post_refresh_level, shadow,
)
from aces.errors import NoiseBudgetError
from aces.homo import hom_add, hom_mul, scalar_product
from aces.keygen import ProductTensor, PublicKey
from aces.refresh import REFRESH_ATTEMPTS, SEARCH_BUDGET
from aces.rings import Repartition, prime_factors


def conv_mul(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product over Z."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def kronecker(coeffs: list[int], width: int, sign: int = 1) -> int:
    """The value of a polynomial at ``x = sign * 2^(8 width)``, its
    coefficients written one at a time with ``int.to_bytes``, which refuses
    a coefficient wider than ``width`` bytes: the even-index ones at their
    slots, plus ``sign`` times the odd-index ones at theirs."""
    gap = bytes(width)
    even = b"".join(c.to_bytes(width, "little") + gap for c in coeffs[0::2])
    odd = b"".join(gap + c.to_bytes(width, "little") for c in coeffs[1::2])
    return int.from_bytes(even, "little") + sign * int.from_bytes(odd, "little")


def monomial_table(u: list[int], q: int, top: int) -> list[list[int]]:
    """X^k reduced by the monic u, for k = 0..top, via the substitution
    X^d -> -(u_0 + ... + u_{d-1} X^{d-1})."""
    d = len(u) - 1
    table = []
    for k in range(top + 1):
        if k < d:
            row = [0] * d
            row[k] = 1
        else:
            prev = table[k - 1]
            shifted = [0] + prev[:]
            overflow = shifted.pop()
            row = [(shifted[i] - overflow * u[i]) % q for i in range(d)]
        table.append(row)
    return table


def reduce_poly(coeffs: list[int], u: list[int], q: int) -> list[int]:
    """Reduce arbitrary integer coefficients into the quotient ring."""
    d = len(u) - 1
    top = max(len(coeffs) - 1, d - 1)
    table = monomial_table(u, q, top)
    out = [0] * d
    for k, c in enumerate(coeffs):
        for i in range(d):
            out[i] = (out[i] + c * table[k][i]) % q
    return out


def naive_contract(lam, v1, v2, u: list[int], q: int) -> list[list[int]]:
    """sum_{i,j} lam[i][j][k] * v1[i] * v2[j] for every k, one schoolbook
    product per (i, j) and no use of symmetry."""
    n = len(lam)
    products = [[reduce_poly(conv_mul(v1[i], v2[j]), u, q) for j in range(n)] for i in range(n)]
    out = []
    for k in range(n):
        acc = [0] * (len(u) - 1)
        for i in range(n):
            for j in range(n):
                acc = [(x + lam[i][j][k] * y) % q for x, y in zip(acc, products[i][j])]
        out.append(acc)
    return out


def poly_vector_dot(vec_a, vec_b):
    """sum_i vec_a[i] * vec_b[i] over RingPoly operands, one ring product
    per term (``RingPoly.__mul__`` is itself checked against ``conv_mul``)."""
    assert len(vec_a) == len(vec_b) and vec_a
    total = vec_a[0] * vec_b[0]
    for a, b in zip(vec_a[1:], vec_b[1:]):
        total = total + a * b
    return total


def ring_op(a: list[int], b: list[int], op: str, u: list[int], q: int) -> list[int]:
    if op == "add":
        raw = [x + y for x, y in zip(a, b)]
    elif op == "sub":
        raw = [x - y for x, y in zip(a, b)]
    elif op == "mul":
        raw = conv_mul(a, b)
    elif op == "neg":
        raw = [-x for x in a]
    else:
        raise ValueError(op)
    return reduce_poly(raw, u, q)


def trial_factorize(q: int) -> list[int]:
    """Distinct prime factors of ``q >= 2`` in increasing order, by trial
    division up to the square root of what is left."""
    primes = []
    rest = q
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        primes.append(rest)
    return primes


def rank_one(t, q: int):
    """The one layer ``(alpha, beta)`` of the cube ``t`` mod a squarefree
    ``q``, or None.  Per prime r a pivot entry that r does not divide gives
    ``alpha`` (its row over it) and ``beta`` (its plane) mod r; CRT joins
    them, checked at every entry."""
    primes = trial_factorize(q)
    if math.prod(primes) != q:
        return None
    n = len(t)
    cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    alpha, beta = [0] * n, [[0] * n for _ in range(n)]
    for r in primes:
        pivot = next(((i, j, k) for i, j, k in cells if t[i][j][k] % r), None)
        if pivot:  # else t is 0 mod r, and so are alpha and beta
            i, j, k = pivot
            unit = q // r * pow(q // r, -1, r)  # 1 mod r, 0 mod the other primes
            scale = unit * pow(t[i][j][k], -1, r)
            alpha = [a + x * scale for a, x in zip(alpha, t[i][j])]
            beta = [[b + x[k] * unit for b, x in zip(brow, row)] for brow, row in zip(beta, t)]
    alpha = tuple(a % q for a in alpha)
    beta = tuple(tuple(b % q for b in row) for row in beta)
    if any((alpha[k] * beta[i][j] - t[i][j][k]) % q for i, j, k in cells):
        return None
    return alpha, beta


def planes(t, q: int) -> ProductTensor:
    """The symmetric cube ``t`` (any integers) as a tensor mod ``q`` of one
    layer per plane, ``(e_k, t[.][.][k] mod q)``."""
    n = len(t)
    return ProductTensor(q, tuple((tuple(int(m == k) for m in range(n)),
                                   tuple(tuple(x[k] % q for x in row) for row in t))
                                  for k in range(n)))


def eval_nonneg(coeffs: list[int], omega: int, q: int) -> int:
    """Embed into the non-negative representatives, evaluate in N, reduce."""
    total = 0
    power = 1
    for c in coeffs:
        assert 0 <= c < q
        total += c * power
        power *= omega
    return total % q


def brute_residual(secret_coeff_vectors, ch, ct_c_vectors, ct_cprime_coeffs) -> int:
    """eval(c' - sum_i c_i * x_i) mod q, with every ring product a
    schoolbook product on raw coefficient lists."""
    u, q = list(ch.u), ch.q
    acc = [c % q for c in ct_cprime_coeffs]
    for c_vec, x_vec in zip(ct_c_vectors, secret_coeff_vectors):
        prod = reduce_poly(conv_mul(list(c_vec), list(x_vec)), u, q)
        acc = [(a - b) % q for a, b in zip(acc, prod)]
    return eval_nonneg(acc, ch.omega % q, q)


def brute_decrypt(secret_coeff_vectors, ch, ct_c_vectors, ct_cprime_coeffs) -> int:
    """Decryption recomputed from first principles on raw coefficient lists."""
    return brute_residual(secret_coeff_vectors, ch, ct_c_vectors, ct_cprime_coeffs) % ch.p


def margin_fraction(vec, secret_evals, q: int) -> Fraction:
    """Margin recomputed via exact rationals and a literal floor."""
    s = sum(int(a) * int(b) for a, b in zip(vec, secret_evals))
    ratio = Fraction(s, q)
    return ratio - (ratio.numerator // ratio.denominator)


def floor_dot_over_q(vec, secret_evals, q: int) -> int:
    s = sum(int(a) * int(b) for a, b in zip(vec, secret_evals))
    return s // q


def encryption(pk, ch, mask, carrier) -> Ciphertext:
    """The public encryption with the mask polynomials ``mask`` (one per
    public-key row) and the message carrier ``carrier``, by its definition:
    ``c = f0^T mask`` and ``c' = fprime^T mask + carrier``, one ring product
    per term (``poly_vector_dot``), at the fresh level."""
    c = tuple(poly_vector_dot(mask, [row[j] for row in pk.f0]) for j in range(ch.n))
    return Ciphertext(c, poly_vector_dot(mask, pk.fprime) + carrier, fresh_level(ch))


def refresh_reference(keys, ct, rng):
    """The refresh by its definition: a public encryption (``encryption``)
    of each mod-p digit of the shadow and then of its scalar digit, the
    digit encryptions folded against the refresher by ``scalar_product``,
    plus the scalar encryption.  From ``rng`` come the masks' values, ``N``
    per digit in [0, p], one at a time, and then a 16-byte seed; from the
    seed's stream come a carrier of each mask value, in the same order, and
    then one of each digit.  Returns the ciphertext at its accumulated
    level."""
    ch, big_n = keys.channel, keys.channel.big_n
    ps = shadow(ch, ct)
    digits = [v % ch.p for v in (*ps.v, ps.vprime)]
    values = [rng.below(ch.p + 1) for _ in range(len(digits) * big_n)]
    carriers = RandomSource(rng.below(2**128).to_bytes(16, "little"))
    masks = [sample_message_carrier(ch, v, carriers) for v in values]
    messages = [sample_message_carrier(ch, d, carriers) for d in digits]
    *encs, scalar = (encryption(keys.public, ch, masks[i * big_n:(i + 1) * big_n], m)
                     for i, m in enumerate(messages))
    return hom_add(ch, scalar, scalar_product(ch, keys.tensor, tuple(encs), keys.rho))


def make_refreshable_reference(ct, checker, pk, ch, rng):
    """The re-randomization on whole ciphertexts: ``checker`` reads a
    ``Ciphertext``, and between each two checks a public-key encryption of
    zero (``encryption``) is added with ``hom_add``, which refuses a sum
    past the budget after the encryption's draws.  Its mask's ``N`` values
    in [0, p] come from ``rng``, one at a time, and nothing else does: the
    mask's carriers and the message's come from a stream of their own.
    Returns the ciphertext that checks out, or None."""
    current, carriers = ct, RandomSource(b"make_refreshable_reference")
    for _ in range(REFRESH_ATTEMPTS - 1):
        if checker(current):
            return current
        mask = [sample_message_carrier(ch, rng.below(ch.p + 1), carriers) for _ in range(ch.big_n)]
        zero = encryption(pk, ch, mask, sample_message_carrier(ch, 0, carriers))
        try:
            current = hom_add(ch, current, zero)
        except NoiseBudgetError:
            return None
    return current if checker(current) else None


def evaluate_reference(circuit, env, keys, checker, rng):
    """The auto-refresh evaluator with its rule inline: before each gate,
    for each distinct operand in order, stop when the gate leaves at least
    the post-refresh level of headroom or overflows even at that level,
    skip an operand already at or below it, else refresh it: re-randomize
    it until ``checker`` certifies its shadow
    (``make_refreshable_reference``), then refuse a refresh past the budget
    (``checked_refresh_level``) or draw it (``refresh_reference``) at the
    post-refresh level.  Returns the outputs, the refresh events and every
    wire's level, or raises the gate's NoiseBudgetError as ``evaluate``
    words it."""
    ch = keys.channel
    values, events = dict(env), []
    refreshed = post_refresh_level(ch)
    threshold = ch.max_noise_level() - refreshed
    for gate in circuit.gates:
        for wire in dict.fromkeys((gate.left, gate.right)):
            k1, k2 = values[gate.left].level, values[gate.right].level
            out_level = level_after(gate.op, k1, k2, ch)
            if out_level is not None and out_level <= threshold:
                break
            if level_after(gate.op, min(k1, refreshed), min(k2, refreshed), ch) is None:
                break
            ct = values[wire]
            if ct.level <= refreshed:
                continue
            ready = make_refreshable_reference(ct, lambda c: checker(shadow(ch, c)),
                                               keys.public, ch, rng)
            if ready is not None:
                level = checked_refresh_level(ch, ready.level)
                fresh = refresh_reference(keys, ready, rng)
                events.append((wire, ct.level, level))
                values[wire] = Ciphertext(fresh.c, fresh.cprime, level)
        left, right = values[gate.left], values[gate.right]
        try:
            if gate.op == "add":
                values[gate.out] = hom_add(ch, left, right)
            else:
                values[gate.out] = hom_mul(ch, keys.tensor, left, right)
        except NoiseBudgetError as exc:
            raise NoiseBudgetError(
                f"gate {gate.out!r} ({gate.op} {gate.left} {gate.right}) "
                f"exceeds the noise budget at levels {left.level}, {right.level}"
            ) from exc
    levels = {name: ct.level for name, ct in values.items()}
    return {name: values[name] for name in circuit.outputs}, events, levels


def headroom_reference(ch, level: int, margin: Fraction) -> bool:
    """The margin inequality as first written, on rationals: a located
    ciphertext at ``level`` is refreshable when ``(p(level+1) - 1)/q < 1 -
    margin``."""
    return Fraction(ch.p * (level + 1) - 1, ch.q) < 1 - margin


def public_search_reference(db, ch, target):
    """The public locator search as first written: every candidate
    decomposition is combined and bounds-checked, its margin summed as exact
    rationals, and only then compared with the target.  Returns the first
    match's ``(k, margin)``, or None."""

    def combine(loc, dirs, signs):
        vec = list(loc.vec)
        for entry, sign in zip(dirs, signs):
            for idx, v in enumerate(entry.vec):
                vec[idx] += sign * v
        if any(not 0 <= v < ch.q for v in vec):
            return None
        margin_sum = Fraction(loc.margin_num, ch.q)
        index = loc.k
        for entry, sign in zip(dirs, signs):
            margin_sum += sign * Fraction(entry.margin_num, ch.q)
            index -= sign * entry.k
        if margin_sum < 0:
            return None
        whole = margin_sum.numerator // margin_sum.denominator
        if whole % ch.p != 0:
            return None
        index -= whole // ch.p
        if index < 0:
            return None
        return tuple(vec), index, margin_sum - whole

    locators = [e for e in db if e.kind == "locator"]
    directors = [e for e in db if e.kind == "director"]
    for loc in locators:
        if loc.vec == target:
            return loc.k, Fraction(loc.margin_num, ch.q)
    for r in range(1, SEARCH_BUDGET + 1):
        for loc in locators:
            for dirs in combinations_with_replacement(directors, r):
                for signs in product((1, -1), repeat=r):
                    combo = combine(loc, dirs, signs)
                    if combo is not None and combo[0] == target:
                        return combo[1:]
    return None


def _decimal_words(text: str, q: int) -> list[str]:
    """A word string as format 1 wrote it: one decimal string per word, the
    word being the fewest of 1, 2, 4 or 8 bytes that hold q - 1."""
    width = next(w for w in (1, 2, 4, 8) if q - 1 < 256**w)
    raw = bytes.fromhex(text)
    return [str(int.from_bytes(raw[i:i + width], "little")) for i in range(0, len(raw), width)]


def render_v2(data: dict, q: int) -> dict:
    """The format-2 document for the same values as the format-3 document
    ``data``: ``"format": 2`` where a format field is, and the tensor as its
    cube ``lambda[i][j][k] = sum_s alpha_s[k] * beta_s[i][j] mod q``, one
    word string per ``(i, j)``."""
    out = dict(data)
    if "format" in out:
        out["format"] = 2
    if "lambda" in out:
        width = next(w for w in (1, 2, 4, 8) if q - 1 < 256**w)

        def words(text):
            raw = bytes.fromhex(text)
            return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]

        layers = [(words(e["alpha"]), [words(row) for row in e["beta"]]) for e in out["lambda"]]
        n = len(layers[0][0])
        out["lambda"] = [[b"".join((sum(a[k] * b[i][j] for a, b in layers) % q).to_bytes(width, "little")
                                   for k in range(n)).hex() for j in range(n)] for i in range(n)]
    return out


def dumps(data: dict) -> bytes:
    """``data`` as file formats 1 to 3 were written: indented JSON, a final
    newline."""
    return (json.dumps(data, indent=2) + "\n").encode()


def render_v3(data: dict) -> bytes:
    """The bytes file format 3 held for the same values as the format-4
    document ``data`` (a channel, ciphertext, public, secret or report
    file): ``"format": 3`` where a format field is, every word string in
    lowercase hex instead of base64, and ``dumps``' indented layout."""

    def hexed(value):
        if isinstance(value, list):
            return [hexed(v) for v in value]
        return base64.b64decode(value, validate=True).hex()

    def v3(doc: dict) -> dict:
        out = dict(doc)
        if "format" in out:
            out["format"] = 3
        for key in ("c", "cprime", "f0", "fprime", "secret"):
            if key in out:
                out[key] = hexed(out[key])
        if "lambda" in out:
            out["lambda"] = [{"alpha": hexed(e["alpha"]), "beta": hexed(e["beta"])}
                             for e in out["lambda"]]
        if "refresher" in out:
            out["refresher"] = {**out["refresher"], "rho": [v3(ct) for ct in out["refresher"]["rho"]]}
        if "locators" in out:
            out["locators"] = [{**e, "vec": hexed(e["vec"]), "margin_num": hexed(e["margin_num"])}
                               for e in out["locators"]]
        return out

    return dumps(v3(data))


def _word_string(poly, q: int) -> str:
    """A polynomial's coefficients as one base64 string of little-endian
    words, each the fewest of 1, 2, 4 or 8 bytes that hold q - 1."""
    width = next(w for w in (1, 2, 4, 8) if q - 1 < 256**w)
    return base64.b64encode(b"".join(c.to_bytes(width, "little") for c in poly.coeffs)).decode()


def _bit_fields(text: str, b: int, count: int) -> list[int]:
    """The ``count`` residues of a format-7 word string of ``b``-bit
    fields, read from its bits written out least significant first."""
    stream = "".join(format(byte, "08b")[::-1] for byte in base64.b64decode(text, validate=True))
    assert len(stream) == 8 * math.ceil(b * count / 8) and "1" not in stream[b * count:]
    return [int(stream[i:i + b][::-1], 2) for i in range(0, b * count, b)]


def render_v6(data: dict, ch) -> dict:
    """The format-6 document for the same values as the format-7 document
    ``data`` (a channel, ciphertext, public, secret or report file over the
    channel ``ch``): ``"format": 6`` where a format field is, and every
    word string (polynomials of ``deg(u)`` residues, ``alpha``, ``beta``
    rows and locator vectors of ``n``, margins of one) as its residues in
    words of the fewest of 1, 2, 4 or 8 bytes that hold ``q - 1``, where
    format 7 packs each in the bit length of ``q - 1``."""
    q, d, n = ch.q, len(ch.u) - 1, ch.n
    b, width = (q - 1).bit_length(), next(w for w in (1, 2, 4, 8) if q - 1 < 256**w)

    def words(value, count):
        if isinstance(value, list):
            return [words(v, count) for v in value]
        return base64.b64encode(b"".join(
            x.to_bytes(width, "little") for x in _bit_fields(value, b, count))).decode()

    out = dict(data)
    if "format" in out:
        out["format"] = 6
    for key in ("c", "cprime", "fprime", "secret"):
        if key in out:
            out[key] = words(out[key], d)
    if "lambda" in out:
        out["lambda"] = [{"alpha": words(e["alpha"], n), "beta": words(e["beta"], n)}
                         for e in out["lambda"]]
    if "refresher" in out:
        out["refresher"] = {**out["refresher"], "cprime": words(out["refresher"]["cprime"], d)}
    if "locators" in out:
        out["locators"] = [{**e, "vec": words(e["vec"], n),
                            "margin_num": words(e["margin_num"], 1)} for e in out["locators"]]
    return out


def render_v5(data: dict, q: int) -> dict:
    """The format-5 document for the same values as the format-6 document
    ``data`` (a channel, ciphertext, public, secret or report file over the
    modulus ``q``): ``"format": 5`` where a format field is, and in a public
    file ``sigma`` as its map beside the decimal prime factors of q, and
    the refresher as its ``kappa``, its seed and one ``{cprime, level}`` per
    ciphertext, every level ``REFRESHER_LEVEL``, where format 5 held
    them."""
    out = dict(data)
    if "format" in out:
        out["format"] = 5
    if "refresher" in out:
        out["sigma"] = {"map": data["sigma"], "primes": [str(r) for r in trial_factorize(q)]}
        cprime = data["refresher"]["cprime"]
        out["refresher"] = {"kappa": [REFRESHER_LEVEL] * len(cprime), "c": data["refresher"]["c"],
                            "rho": [{"cprime": y, "level": REFRESHER_LEVEL} for y in cprime]}
    return out


def render_v4(data: dict, ch) -> dict:
    """The format-4 document for the same values as the format-5 document
    ``data`` (a channel, ciphertext, public, secret or report file over the
    channel ``ch``): ``"format": 4`` where a format field is, and in a
    public file ``f0`` and each refresher ciphertext's ``c`` as the word
    strings their seeds expand to (over the file's ``sigma``), where format
    4 held them."""
    out = dict(data)
    if "format" in out:
        out["format"] = 4
    if "refresher" in out:
        sigma, fresh = data["sigma"], data["refresher"]
        assert tuple(map(int, sigma["primes"])) == prime_factors(ch.q)
        rep = Repartition(ch.q, tuple(sigma["map"]))
        f0 = PublicKey(base64.b64decode(data["f0"]), (), ch, rep).f0
        vectors = expand_seed(ch, rep, base64.b64decode(fresh["c"]), len(fresh["rho"]))
        out["f0"] = [[_word_string(x, ch.q) for x in row] for row in f0]
        out["refresher"] = {"kappa": fresh["kappa"], "rho": [
            {"c": [_word_string(x, ch.q) for x in c], **e}
            for c, e in zip(vectors, fresh["rho"])]}
    return out


def dumps_compact(data: dict) -> bytes:
    """``data`` as file formats 4 to 7 are written: compact JSON, a final
    newline."""
    return (json.dumps(data, separators=(",", ":")) + "\n").encode()


def render_v1(data: dict, q: int) -> bytes:
    """The bytes file format 1 held for the same values as the format-2
    document ``data`` (a channel, ciphertext, public, secret or report
    file): no ``format`` field, every residue a decimal string of its own,
    ``json.dump(indent=2)`` and a final newline."""

    def v1(doc: dict) -> dict:
        out = {key: value for key, value in doc.items() if key != "format"}
        for key in ("c", "cprime", "f0", "fprime", "lambda", "secret"):
            if key in out:
                out[key] = polys(out[key])
        if "refresher" in out:
            out["refresher"] = {**out["refresher"], "rho": [v1(ct) for ct in out["refresher"]["rho"]]}
        if "locators" in out:
            out["locators"] = [{**e, "vec": _decimal_words(e["vec"], q),
                                "margin_num": _decimal_words(e["margin_num"], q)[0]}
                               for e in out["locators"]]
        return out

    def polys(value):
        return [polys(v) for v in value] if isinstance(value, list) else _decimal_words(value, q)

    return dumps(v1(data))
