"""Refreshability testing and the noise-reset operation.

A ciphertext's integer shadow is the pair of evaluations
``(eval<-c>, eval(c'))`` (``cipher.shadow``, re-exported here).  The shadow
is refreshable when the lifted dot product against the secret evaluations
differs from its reduced form by an exact non-negative multiple of p*q;
refreshable ciphertexts can have their noise rebuilt from scratch without
decrypting.  The secret key is read only through its evaluations
(``cipher.evals``), never through ring products.

Two test routes exist.  With the secret key the defining identity is checked
exactly, and a sufficient margin condition gives a cheaper certificate.
Without the secret key, a published database of locator and director vectors
(with their exact margins) supports a best-effort affine-decomposition test:
it can verify refreshability but never refute it.

The refresh itself re-encrypts the mod-p digits of the shadow with the
public key and contracts them against the published refresher ciphertexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .channel import ArithmeticChannel, RandomSource
from .cipher import Ciphertext, Pseudociphertext, encrypt, evals, post_refresh_level, shadow
from .cipher import _lifted_sum, checked_refresh_level, has_refresh_headroom, within_budget
from .errors import NoiseBudgetError
from .homo import hom_add, scalar_product
from .rings import lift

__all__ = [
    "Pseudociphertext",
    "LocatorEntry",
    "shadow",
    "margin",
    "locator_index",
    "refreshable_index",
    "margin_test",
    "public_locator_search",
    "publicly_refreshable",
    "sample_locator_db",
    "post_refresh_level",
    "refresh_ct",
    "make_refreshable",
    "secret_refresh_checker",
]

# Most directors the public search combines with one locator.
SEARCH_BUDGET = 2
# Rejection draws allowed when sampling the locator database.
LOCATOR_DRAWS = 4096
# Encryptions of zero ``make_refreshable`` adds before it gives up.
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


def refreshable_index(sk, ch: ArithmeticChannel, ct: Ciphertext):
    """Exact secret-side refreshability test.

    Returns the index k for which the lifted dot-product identity holds with
    an exact offset of k*p*q, or None when no non-negative k works.
    """
    # The lifted sum minus its reduction is q times its whole part.
    whole = _lifted_sum(sk, ch, ct) // ch.q
    return whole // ch.p if whole % ch.p == 0 else None


def margin_test(sk, ch: ArithmeticChannel, ct: Ciphertext) -> bool:
    """Sufficient refreshability certificate from the margin inequality.

    True when the vector of evaluations of ``c`` is a locator and the
    ciphertext's level leaves enough headroom below the margin, decided in
    exact rational arithmetic.
    """
    loc, _, num = _split(ch, evals(ch, sk.polys), evals(ch, ct.c))
    return loc is not None and has_refresh_headroom(ch, ct.level, Fraction(num, ch.q))


# -- public-side test -----------------------------------------------------


@dataclass(frozen=True)
class PublicVerdict:
    """Outcome of the affine-decomposition search.

    ``verified`` verdicts are sound certificates; an unverified outcome means
    only that the bounded search found nothing.
    """

    verified: bool
    k: int | None = None
    margin: Fraction | None = None


UNKNOWN = PublicVerdict(False)


def _combine(ch: ArithmeticChannel, loc: LocatorEntry, dirs, signs):
    """Apply the affine-combination rule to one candidate decomposition.

    Returns (vector, index, margin) or None when a side condition fails:
    the integer combination must stay componentwise inside [0, q) and the
    margin combination must fall into a window [p*k', p*k'+1).
    """
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


def public_locator_search(db, ch: ArithmeticChannel, target: tuple[int, ...]) -> PublicVerdict:
    """Search bounded +/- director combinations of published locators.

    Tries ``target = locator +/- d1 +/- ... +/- dr`` for r up to
    ``SEARCH_BUDGET``.  On a hit, the combination rule yields the located index and the exact
    combined margin.  Exhausting the search is not a negative claim.
    """
    locators = [e for e in db if e.kind == "locator"]
    directors = [e for e in db if e.kind == "director"]
    for loc in locators:
        if loc.vec == target:
            return PublicVerdict(True, loc.k, Fraction(loc.margin_num, ch.q))
    for r in range(1, SEARCH_BUDGET + 1):
        for loc in locators:
            for dirs in combinations_with_replacement(directors, r):
                for signs in product((1, -1), repeat=r):
                    combo = _combine(ch, loc, dirs, signs)
                    if combo is not None and combo[0] == target:
                        return PublicVerdict(True, combo[1], combo[2])
    return UNKNOWN


def publicly_refreshable(db, ch: ArithmeticChannel, ct: Ciphertext) -> bool:
    """Best-effort public refreshability certificate for a ciphertext."""
    verdict = public_locator_search(db, ch, evals(ch, ct.c))
    return verdict.verified and has_refresh_headroom(ch, ct.level, verdict.margin)


def sample_locator_db(
    sk,
    ch: ArithmeticChannel,
    rng: RandomSource,
    n_locators: int = 4,
    n_directors: int = 6,
) -> list[LocatorEntry]:
    """Rejection-sample random vectors and certify them with the secret key.

    Margins and indices are stored exactly; what to publish (and how much)
    is the key owner's deployment decision.
    """
    entries: list[LocatorEntry] = []
    want_loc, want_dir = n_locators, n_directors
    secret = evals(ch, sk.polys)
    draws = 0
    while (want_loc > 0 or want_dir > 0) and draws < LOCATOR_DRAWS:
        draws += 1
        vec = tuple(rng.below(ch.q) for _ in range(ch.n))
        loc, dirk, num = _split(ch, secret, vec)
        if want_loc > 0 and loc is not None:
            entries.append(LocatorEntry(vec, "locator", loc, num))
            want_loc -= 1
        elif want_dir > 0 and dirk is not None:
            entries.append(LocatorEntry(vec, "director", dirk, num))
            want_dir -= 1
    return entries


# -- the refresh operation -------------------------------------------------


def refresh_ct(
    pk,
    ch: ArithmeticChannel,
    lam,
    refresher,
    ct: Ciphertext,
    rng: RandomSource,
) -> Ciphertext:
    """Rebuild a refreshable ciphertext at the fixed post-refresh level.

    Refreshability itself must have been verified (or is asserted) by the
    caller; this routine checks only the level preconditions it can see
    without the secret key (``checked_refresh_level``).
    """
    level = checked_refresh_level(ch, refresher, ct.level)
    ps = shadow(ch, ct)
    digit_cts = tuple(encrypt(pk, ch, v % ch.p, rng) for v in ps.v)
    scalar_ct = encrypt(pk, ch, ps.vprime % ch.p, rng)
    rebuilt = hom_add(ch, scalar_ct, scalar_product(ch, lam, digit_cts, refresher.rho))
    return Ciphertext(rebuilt.c, rebuilt.cprime, level)


def secret_refresh_checker(sk, ch: ArithmeticChannel):
    """Exact refreshability predicate for the key owner.

    Plaintext preservation under refresh needs the identity to hold and the
    level to sit inside the decryption budget; both are checked exactly.
    """
    return lambda ct: within_budget(ch, ct.level) and refreshable_index(sk, ch, ct) is not None


def make_refreshable(ct: Ciphertext, checker, pk, ch: ArithmeticChannel, rng: RandomSource):
    """Randomize a ciphertext with encryptions of zero until it checks out.

    ``checker`` is any refreshability predicate (secret-side exact test or
    the public database test).  Returns the refreshable ciphertext, or None
    once ``REFRESH_ATTEMPTS`` attempts are spent or further randomization
    would overflow; each attempt adds one fresh level step.
    """
    current = ct
    for _ in range(REFRESH_ATTEMPTS):
        if checker(current):
            return current
        try:
            current = hom_add(ch, current, encrypt(pk, ch, 0, rng))
        except NoiseBudgetError:
            return None
    return None
