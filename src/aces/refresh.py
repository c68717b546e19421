"""Refreshability testing and the noise-reset operation.

A ciphertext's integer shadow is the pair of evaluations
``(eval<-c>, eval(c'))`` with its level (``cipher.shadow``), and the whole
refresh layer reads nothing else: ``refresh_certified`` takes a ciphertext,
and the circuit evaluator passes a shadow it computed.  The shadow is
refreshable when the lifted dot product against the secret evaluations
differs from its reduced form by an exact non-negative multiple of p*q;
refreshable ciphertexts can have their noise rebuilt from scratch without
decrypting.  The secret key is read only through its evaluations
(``cipher.evals``), never through ring products.

A shadow that does not check out is re-randomized on the shadow too
(``make_refreshable``): the evaluation map is a ring homomorphism, so the
shadow of an encryption of zero is a combination of the public key's row
shadows (``PublicKey.shadows``) weighted by the evaluations of its mask.
An attempt draws what ``encrypt`` draws and multiplies no polynomials.

Two test routes exist.  With the secret key the defining identity is checked
exactly, and a sufficient margin condition gives a cheaper certificate.
Without the secret key, a published database of locator and director vectors
(with their exact margins) certifies the targets that bounded +/- director
combinations of a locator reach.  ``EvalKeys`` builds that table once
(``public_certificates``), and a public check is one lookup: it can verify
refreshability but never refute it.

The refresh itself encrypts the mod-p digits of the shadow with the public
key and contracts each against its refresher ciphertext, adding an
encryption of the scalar digit.  Encryption is linear in its mask and
carrier, and the contraction is bilinear, so all of it is one combination
of a fixed per-key matrix (``EvalKeys.refresh_rows``) with the freshly drawn
masks and carriers.  The matrix is built on the first refresh with a key,
and ``EvalKeys`` keeps it for every later one.

A refresh is drawn first (``draw_refresh``: the checks, then the masks and
carriers) and combined only when something reads its ciphertext
(``DrawnRefresh.ciphertext``).  Its shadow needs no combination: it is the
masks' and carriers' evaluations against the rows' shadows
(``EvalKeys.row_shadows``), so a refreshed wire that only feeds another
refresh costs no ring product.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement

from .channel import ArithmeticChannel, RandomSource, sample_message_carrier
from .cipher import (
    Ciphertext, Pseudociphertext, _lifted_sum, checked_refresh_level, evals, fresh_level,
    has_refresh_headroom, level_after, sample_mask, shadow, within_budget,
)
from .errors import ParameterError
from .homo import _product, _shadow_product
from .rings import PackedRows, RingPoly, _int_coeffs, lift

__all__ = [
    "LocatorEntry",
    "margin",
    "locator_index",
    "refreshable_index",
    "margin_test",
    "public_certificates",
    "publicly_refreshable",
    "sample_locator_db",
    "EvalKeys",
    "DrawnRefresh",
    "draw_refresh",
    "refresh_ct",
    "make_refreshable",
    "draw_certified",
    "refresh_certified",
    "secret_refresh_checker",
]

# Most directors the public search combines with one locator.
SEARCH_BUDGET = 2
# Locators and directors ``sample_locator_db`` certifies for publication.
DB_LOCATORS, DB_DIRECTORS = 4, 6
# Rejection draws allowed when sampling the locator database.
LOCATOR_DRAWS = 4096
# Checks ``make_refreshable`` makes before it gives up, with the shadow of one
# encryption of zero added between each two.
REFRESH_ATTEMPTS = 32


@dataclass(frozen=True)
class LocatorEntry:
    """A published vector with its secret-side certificate.

    ``kind`` is "locator" or "director", ``k`` the certified index, and
    ``margin_num`` the numerator of the exact margin over denominator q.
    """

    vec: tuple[int, ...]
    kind: str
    k: int
    margin_num: int


def _split(ch: ArithmeticChannel, secret: tuple[int, ...], vec: tuple[int, ...]):
    """Locator index, director index (None when ``vec`` is not one) and the
    fractional numerator over q of ``vec``'s lifted dot product with the
    secret evaluations.  ``vec`` locates when the evaluation total minus the
    whole part is a non-negative multiple of p, and directs when the whole
    part is a multiple of p."""
    if len(vec) != ch.n:
        raise ParameterError(f"vector has {len(vec)} entries, the secret key {ch.n}")
    whole, num = divmod(sum(lift(ch.q, v) * s for v, s in zip(vec, secret)), ch.q)
    diff = sum(secret) - whole
    loc = diff // ch.p if diff >= 0 and diff % ch.p == 0 else None
    return loc, (whole // ch.p if whole % ch.p == 0 else None), num


def margin(sk, ch: ArithmeticChannel, vec: tuple[int, ...]) -> Fraction:
    """Fractional part of the lifted dot product with the secret evaluations,
    as an exact rational with denominator q."""
    return Fraction(_split(ch, evals(ch, sk.polys), vec)[2], ch.q)


def locator_index(sk, ch: ArithmeticChannel, vec: tuple[int, ...]):
    """The locator index of ``vec``, or None if it is not a locator."""
    return _split(ch, evals(ch, sk.polys), vec)[0]


def director_index(sk, ch: ArithmeticChannel, vec: tuple[int, ...]):
    """The director index of ``vec``, or None."""
    return _split(ch, evals(ch, sk.polys), vec)[1]


def _vector(ch: ArithmeticChannel, ps: Pseudociphertext) -> tuple[int, ...]:
    """The evaluations of the vector part ``c`` that ``ps`` is the shadow of."""
    return tuple((-v) % ch.q for v in ps.v)


def _index(ch: ArithmeticChannel, secret: tuple[int, ...], ps: Pseudociphertext):
    """``refreshable_index`` on the secret evaluations ``secret``."""
    # The lifted sum minus its reduction is q times its whole part.
    whole = _lifted_sum(secret, ps) // ch.q
    return whole // ch.p if whole % ch.p == 0 else None


def refreshable_index(sk, ch: ArithmeticChannel, ps: Pseudociphertext):
    """Exact secret-side refreshability test of a shadow.

    Returns the index k for which the lifted dot-product identity holds with
    an exact offset of k*p*q, or None when no non-negative k works.
    """
    return _index(ch, evals(ch, sk.polys), ps)


def margin_test(sk, ch: ArithmeticChannel, ps: Pseudociphertext) -> bool:
    """Sufficient refreshability certificate from the margin inequality.

    True when the vector of evaluations of ``c`` is a locator and the
    shadow's level leaves enough headroom below the margin, decided on the
    margin's numerator over q.
    """
    loc, _, num = _split(ch, evals(ch, sk.polys), _vector(ch, ps))
    return loc is not None and has_refresh_headroom(ch, ps.level, num)


# -- public-side test -----------------------------------------------------


def public_certificates(db, ch: ArithmeticChannel) -> dict:
    """Every target the bounded public search certifies, mapped to its
    ``(k, margin_num)``, its margin being ``margin_num / q``: a canonical
    ``locator +/- d1 +/- ... +/- dr`` (r up to ``SEARCH_BUDGET``) whose
    combined margin falls in a window [p*k', p*k'+1) with k' >= 0.  Both
    values are fixed by the target's lifted dot product with the secret, so
    every certified decomposition gives the same pair; the first in search
    order is kept.

    The index needs no test of its own: ``k`` is the target's locator index
    ``(sum(s) - whole) / p``, with ``s`` the canonical secret evaluations and
    ``whole`` the target's lifted dot product over q, rounded down.  Every
    target entry lies in [0, q), so that product is at most
    ``(q - 1) * sum(s)`` and ``whole`` at most ``sum(s) - 1`` (0 when
    ``sum(s)`` is 0): ``k >= 0``."""
    signed = [(e, s) for e in db if e.kind == "director" for s in (1, -1)]
    locators = [e for e in db if e.kind == "locator"]
    table = {}
    for r in range(SEARCH_BUDGET + 1):
        for steps in combinations_with_replacement(signed, r):
            offset = [sum(s * e.vec[i] for e, s in steps) for i in range(ch.n)]
            num = sum(s * e.margin_num for e, s in steps)
            index = -sum(s * e.k for e, s in steps)
            for loc in locators:
                target = tuple(map(sum, zip(loc.vec, offset)))
                if target in table or not all(0 <= v < ch.q for v in target):
                    continue
                whole, rest = divmod(loc.margin_num + num, ch.q)
                k = loc.k + index - whole // ch.p
                if whole >= 0 and whole % ch.p == 0:
                    table[target] = (k, rest)
    return table


def publicly_refreshable(keys: EvalKeys, ps: Pseudociphertext) -> bool:
    """Best-effort public refreshability certificate for a shadow: its
    vector evaluations, ``(-v) mod q``, are a target of
    ``keys.public_certificates`` and its level leaves headroom below the
    certified margin.  A miss is never a negative claim."""
    found = keys.public_certificates.get(_vector(keys.channel, ps))
    return found is not None and has_refresh_headroom(keys.channel, ps.level, found[1])


def sample_locator_db(sk, ch: ArithmeticChannel, rng: RandomSource) -> list[LocatorEntry]:
    """Rejection-sample random vectors and certify them with the secret key:
    ``DB_LOCATORS`` locators and ``DB_DIRECTORS`` directors, or fewer once
    ``LOCATOR_DRAWS`` draws are spent.  Margins and indices are stored
    exactly."""
    entries: list[LocatorEntry] = []
    want_loc, want_dir = DB_LOCATORS, DB_DIRECTORS
    secret = evals(ch, sk.polys)
    draws = 0
    while (want_loc > 0 or want_dir > 0) and draws < LOCATOR_DRAWS:
        draws += 1
        vec = tuple(rng.draws(ch.q, ch.n))
        loc, dirk, num = _split(ch, secret, vec)
        if want_loc > 0 and loc is not None:
            entries.append(LocatorEntry(vec, "locator", loc, num))
            want_loc -= 1
        elif want_dir > 0 and dirk is not None:
            entries.append(LocatorEntry(vec, "director", dirk, num))
            want_dir -= 1
    return entries


# -- the refresh operation -------------------------------------------------


@dataclass(frozen=True)
class EvalKeys:
    """Evaluation-side material: everything public, nothing secret; what
    ``serial.public_from_dict`` loads.  The repartition is
    ``public.repartition``."""

    channel: ArithmeticChannel
    public: object
    tensor: object
    refresher: object
    locators: tuple = ()

    @staticmethod
    def from_bundle(bundle) -> "EvalKeys":
        """The bundle's own evaluation keys, shared by every caller."""
        return bundle.eval_keys

    @cached_property
    def refresh_rows(self) -> PackedRows:
        """The refresh as one fixed matrix, built on first use.

        With ``pk_r = (f0[r], fprime[r])`` and ``rho_i = (rho[i].c,
        rho[i].c')``, a digit encryption is ``sum_r b[i][r] * pk_r +
        carrier_i * e_n``, and the product of ``e_n`` with ``rho_i`` is
        ``rho_i`` itself.  So the rows are the products (``hom_mul``'s
        kernel) of ``pk_r`` and ``rho_i`` for every digit ``i`` and row
        ``r``, then the ``pk_r`` (the scalar digit's encryption), then the
        ``rho_i``: ``n*N + N + n`` rows of ``n + 1`` columns, weighted by the
        masks in draw order and then the digit carriers.
        """
        pk = self.public.extended_rows
        rho = tuple((*r.c, r.cprime) for r in self.refresher.rho)
        return PackedRows(
            (*(_product(self.tensor, row, r) for r in rho for row in pk), *pk, *rho)
        )

    @cached_property
    def row_shadows(self) -> tuple:
        """The shadows of ``refresh_rows``' rows, by column: ``n + 1``
        tuples, column ``j < n`` holding every row's ``v[j]`` and the last
        every row's ``v'``.  Built on first use from ``PublicKey.shadows``
        and the refresher ciphertexts' shadows, the product rows through
        ``homo._shadow_product``; no ring product."""
        ch = self.channel
        pk = [(*s.v, s.vprime) for s in self.public.shadows]
        rho = [(*s.v, s.vprime) for s in (shadow(ch, r) for r in self.refresher.rho)]
        rows = (*(_shadow_product(self.tensor, ch.q, row, r) for r in rho for row in pk),
                *pk, *rho)
        return tuple(zip(*rows))

    @cached_property
    def public_certificates(self) -> dict:
        """``public_certificates`` of the locator database, built on the
        first public check."""
        return public_certificates(self.locators, self.channel)


def _check_shadow(ch: ArithmeticChannel, ps: Pseudociphertext) -> None:
    """Refuse, with ParameterError, a shadow that no ciphertext over ``ch``
    has: one that does not hold ``n`` entries in ``v``, each of them and
    ``vprime`` an integer residue in [0, q), and an integer level of at
    least 0 (a bool is none of these).  Both ways into the refresh layer,
    ``refresh_ct`` and ``make_refreshable``, run it before any draw."""
    if len(ps.v) != ch.n:
        raise ParameterError(f"ciphertext has {len(ps.v)} vector parts, the channel {ch.n}")
    *entries, level = _int_coeffs((*ps.v, ps.vprime, ps.level), "shadow")
    if min(entries) < 0 or max(entries) >= ch.q or level < 0:
        raise ParameterError(f"shadow: expected residues in [0, {ch.q}) and a level of at least 0")


@dataclass(frozen=True)
class DrawnRefresh:
    """A refresh after its draws and before any ring product: the
    post-refresh ``level``; the ``weights`` of ``EvalKeys.refresh_rows``,
    the masks in draw order and then the carriers of the vector digits;
    and ``last``, the scalar digit's carrier, which the scalar part adds."""

    level: int
    weights: tuple[RingPoly, ...]
    last: RingPoly

    def shadow(self, keys: EvalKeys) -> Pseudociphertext:
        """``cipher.shadow`` of ``ciphertext(keys)``, on integers: the
        weights' evaluations against ``keys.row_shadows``, plus the last
        carrier's evaluation in the scalar part."""
        ch = keys.channel
        w = evals(ch, self.weights)
        *v, vprime = (sum(map(operator.mul, w, col)) for col in keys.row_shadows)
        return Pseudociphertext(tuple(x % ch.q for x in v),
                                (vprime + ch.eval(self.last)) % ch.q, self.level)

    def ciphertext(self, keys: EvalKeys) -> Ciphertext:
        """The refreshed ciphertext: one combination of the refresh matrix."""
        *c, cprime = keys.refresh_rows.combine(self.weights)
        return Ciphertext(tuple(c), cprime + self.last, self.level)


def draw_refresh(keys: EvalKeys, ps: Pseudociphertext, rng: RandomSource) -> DrawnRefresh:
    """The draws of a refresh of a refreshable shadow, at the fixed
    post-refresh level.

    Refreshability itself must have been verified (or is asserted) by the
    caller; this routine checks only the shadow itself (``_check_shadow``)
    and the level preconditions it can see without the secret key
    (``checked_refresh_level``).  The draws are those of encrypting each
    mod-p digit of the shadow and then its scalar digit: per digit, a mask
    and then a carrier.
    """
    ch = keys.channel
    _check_shadow(ch, ps)
    level = checked_refresh_level(ch, ps.level)
    masks, carriers = [], []
    for v in (*ps.v, ps.vprime):
        masks += sample_mask(ch, rng)
        carriers.append(sample_message_carrier(ch, v % ch.p, rng))
    return DrawnRefresh(level, (*masks, *carriers[:-1]), carriers[-1])


def refresh_ct(keys: EvalKeys, ps: Pseudociphertext, rng: RandomSource) -> Ciphertext:
    """Rebuild the ciphertext of a refreshable shadow at the fixed
    post-refresh level: ``draw_refresh``, then its ciphertext."""
    return draw_refresh(keys, ps, rng).ciphertext(keys)


def secret_refresh_checker(sk, ch: ArithmeticChannel):
    """Exact refreshability predicate on a shadow, for the key owner.

    Plaintext preservation under refresh needs the identity to hold and the
    level to sit inside the decryption budget; both are checked exactly.
    The secret is evaluated once, here.
    """
    secret = evals(ch, sk.polys)
    return lambda ps: within_budget(ch, ps.level) and _index(ch, secret, ps) is not None


def _plus_zero(ps: Pseudociphertext, pk, ch: ArithmeticChannel, rng: RandomSource):
    """``ps`` plus the shadow of the encryption of zero that ``encrypt(pk,
    ch, 0, rng)`` would draw: a mask ``b``, then a carrier of 0, which
    evaluates to 0, so the shadow is ``sum_r eval(b[r]) * pk.shadows[r]``
    mod q.  None when the sum's level passes the budget, decided after the
    draws, as ``hom_add`` refuses the sum of the encryption."""
    mask = evals(ch, sample_mask(ch, rng))
    sample_message_carrier(ch, 0, rng)
    level = level_after("add", ps.level, fresh_level(ch), ch)
    if level is None:
        return None
    q, rows = ch.q, pk.shadows

    def plus(x, parts):
        return (x + sum(map(operator.mul, mask, parts))) % q

    v = tuple(map(plus, ps.v, zip(*(row.v for row in rows))))
    return Pseudociphertext(v, plus(ps.vprime, [row.vprime for row in rows]), level)


def make_refreshable(ps: Pseudociphertext, checker, pk, ch: ArithmeticChannel,
                     rng: RandomSource):
    """Re-randomize a shadow with encryptions of zero until it checks out.

    ``checker`` is any refreshability predicate on a shadow (the
    secret-side exact test or the public database test).  Returns the
    refreshable shadow, or None once ``REFRESH_ATTEMPTS`` checks have
    failed or further randomization would overflow.  Each attempt adds the
    shadow of one encryption of zero (``_plus_zero``), one fresh level step,
    and none follows the last check.
    """
    _check_shadow(ch, ps)
    current = ps
    for _ in range(REFRESH_ATTEMPTS - 1):
        if checker(current):
            return current
        current = _plus_zero(current, pk, ch, rng)
        if current is None:
            return None
    return current if checker(current) else None


def draw_certified(keys: EvalKeys, ps: Pseudociphertext, checker, rng: RandomSource):
    """The shadow ``ps`` re-randomized until ``checker`` certifies it
    (``make_refreshable``) and then drawn (``draw_refresh``), or None when
    no attempt checks out.  A ``checker`` of None is the public test,
    ``publicly_refreshable`` on ``keys``."""
    if checker is None:
        checker = lambda ps: publicly_refreshable(keys, ps)
    ready = make_refreshable(ps, checker, keys.public, keys.channel, rng)
    return None if ready is None else draw_refresh(keys, ready, rng)


def refresh_certified(keys: EvalKeys, ct: Ciphertext, checker, rng: RandomSource):
    """``draw_certified`` on ``ct``'s shadow, then the refreshed
    ciphertext, or None when no attempt checks out."""
    drawn = draw_certified(keys, shadow(keys.channel, ct), checker, rng)
    return None if drawn is None else drawn.ciphertext(keys)
