"""Key material generation.

The full bundle is: a secret vector of ring polynomials, the public
initializer matrix and masked key vector, the prime repartition, the
relinearization 3-tensor built from a Bezout identity over the secret
evaluations, the refresher (encryptions of the secret's mod-p digits), and
a published locator/director database for the public refreshability test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .channel import (
    ArithmeticChannel,
    RandomSource,
    sample_message_carrier,
    sample_noise,
)
from .cipher import Ciphertext, encrypt_with_secret
from .errors import GenerationError, ParameterError
from .refresh import LocatorEntry, sample_locator_db
from .rings import RingPoly, Repartition, lift, poly_vector_dot

__all__ = [
    "SecretKey",
    "PublicKey",
    "ProductTensor",
    "Refresher",
    "KeyBundle",
    "gen_secret",
    "gen_initializer",
    "gen_public",
    "gen_tensor",
    "gen_refresher",
    "keygen",
]

SECRET_ATTEMPTS = 256
REPARTITION_ATTEMPTS = 16
REFRESHER_LEVEL = 1


@dataclass(frozen=True)
class SecretKey:
    polys: tuple[RingPoly, ...]


@dataclass(frozen=True)
class PublicKey:
    f0: tuple[tuple[RingPoly, ...], ...]
    fprime: tuple[RingPoly, ...]


@dataclass(frozen=True)
class ProductTensor:
    """Symmetric 3-tensor relinearizing secret products, entries in Z_q.

    ``coeffs[i][j][k]`` must form an ``n x n x n`` cube with
    ``coeffs[i][j] == coeffs[j][i]``; both are checked on construction,
    because the contraction relies on them.
    """

    coeffs: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        t = self.coeffs
        n = len(t)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in t):
            raise ParameterError(f"tensor must be {n}x{n}x{n}")
        if any(t[i][j] != t[j][i] for i in range(n) for j in range(i)):
            raise ParameterError("tensor must be symmetric in its first two indices")

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The slot pairs ``(i, j)`` with ``i <= j``, in contraction order."""
        n = len(self.coeffs)
        return tuple((i, j) for i in range(n) for j in range(i, n))

    @cached_property
    def pair_weights(self) -> tuple[tuple[int, ...], ...]:
        """Per output slot ``k``, one integer weight per pair in ``pairs``.

        With ``D_i = a_i*b_i`` and ``M_ij = (a_i + a_j)*(b_i + b_j)``,
        symmetry gives ``sum_ij t[i][j][k] a_i b_j = sum_{i<j} t[i][j][k] M_ij
        + sum_i (t[i][i][k] - sum_{j != i} t[i][j][k]) D_i``: pair ``(i, j)``
        weighs ``t[i][j][k]`` and pair ``(i, i)`` the bracket.
        """
        t = self.coeffs
        n = len(t)
        return tuple(
            tuple(
                t[i][j][k] if i != j
                else t[i][i][k] - sum(t[i][m][k] for m in range(n) if m != i)
                for i, j in self.pairs
            )
            for k in range(n)
        )


@dataclass(frozen=True)
class Refresher:
    """Encryptions of the secret key's mod-p digits, with their levels."""

    kappa: tuple[int, ...]
    rho: tuple[Ciphertext, ...]


@dataclass(frozen=True)
class KeyBundle:
    channel: ArithmeticChannel
    secret: SecretKey
    public: PublicKey
    repartition: Repartition
    tensor: ProductTensor
    refresher: Refresher
    locators: tuple[LocatorEntry, ...]


def _weighted_evals(ch: ArithmeticChannel, rep: Repartition, sk: SecretKey) -> list[int]:
    return [
        rep.prime_of(i) * lift(ch.q, ch.eval(x)) for i, x in enumerate(sk.polys)
    ]


def _bezout(values: list[int]) -> tuple[int, list[int]]:
    """gcd of the values along with one set of Bezout coefficients."""
    g, coeffs = values[0], [1]
    for v in values[1:]:
        # Solve a*g + b*v = gcd(g, v) via the two-term extended algorithm.
        g, a, b = _ext_gcd_pair(g, v)
        coeffs = [c * a for c in coeffs]
        coeffs.append(b)
    return g, coeffs


def _ext_gcd_pair(a: int, b: int) -> tuple[int, int, int]:
    """``(gcd(a, b), s, t)`` with ``s*a + t*b == gcd(a, b)``, for a, b >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


def gen_secret(ch: ArithmeticChannel, rep: Repartition, rng: RandomSource) -> SecretKey:
    """Draw the secret vector, resampling until the weighted evaluations are
    globally coprime (which the tensor construction requires); raises before
    any draw when the slot factors share a prime, which rules that out."""
    factors = tuple(rep.prime_of(i) for i in range(rep.n))
    if math.gcd(*factors) != 1:
        raise GenerationError(f"secret generation impossible: slot factors {factors} share a prime")
    for _ in range(SECRET_ATTEMPTS):
        sk = SecretKey(tuple(ch.random_poly(rng) for _ in range(ch.n)))
        g, _ = _bezout(_weighted_evals(ch, rep, sk))
        if g == 1:
            return sk
    raise GenerationError(
        "secret generation failed: weighted evaluations never reached gcd 1 "
        f"within {SECRET_ATTEMPTS} attempts"
    )


def gen_initializer(ch: ArithmeticChannel, rep: Repartition, rng: RandomSource):
    """N x n matrix whose column-j entries evaluate to multiples of slot j's
    prime, so fresh ciphertext vectors inherit the divisibility structure."""
    return tuple(
        tuple(
            sample_message_carrier(ch, (rep.prime_of(j) * rng.below(ch.q)) % ch.q, rng)
            for j in range(rep.n)
        )
        for _ in range(ch.big_n)
    )


def gen_public(ch: ArithmeticChannel, sk: SecretKey, f0, rng: RandomSource) -> PublicKey:
    """Mask each row's secret contraction with channel noise at the slack
    level k0."""
    fprime = tuple(
        poly_vector_dot(row, sk.polys) + sample_noise(ch, ch.k0, rng) for row in f0
    )
    return PublicKey(f0, fprime)


def gen_tensor(
    ch: ArithmeticChannel, rep: Repartition, sk: SecretKey, rng: RandomSource
) -> ProductTensor:
    """Build the relinearization tensor from the Bezout identity.

    For each unordered slot pair one uniform masking scalar is drawn (shared
    across the pair, which keeps the tensor symmetric and starves Groebner
    reductions of usable equation pairs).  Slot k of every entry carries the
    factor prime_of(k), and the degenerate unit-vector solutions that would
    leak secret evaluations are rejected and redrawn.
    """
    weighted = _weighted_evals(ch, rep, sk)
    g, mu = _bezout(weighted)
    if g != 1:
        raise GenerationError("tensor generation needs coprime weighted evaluations")
    n = ch.n
    evals = [lift(ch.q, ch.eval(x)) for x in sk.polys]
    coeffs = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            forbidden = _degenerate_rows(evals, i, j, n)
            for _ in range(SECRET_ATTEMPTS):
                mask = rng.below(ch.q)
                base = evals[i] * evals[j] - mask * rep.weight(i, j)
                row = tuple(
                    (rep.prime_of(k) * mu[k] * base) % ch.q for k in range(n)
                )
                if row not in forbidden:
                    break
            else:
                if n > 1:
                    raise GenerationError(
                        f"tensor slot ({i},{j}) only admits degenerate rows"
                    )
                # With a single slot every valid row is the degenerate one.
            for k in range(n):
                coeffs[i][j][k] = row[k]
                coeffs[j][i][k] = row[k]
    return ProductTensor(tuple(tuple(tuple(r) for r in plane) for plane in coeffs))


def _degenerate_rows(evals, i, j, n):
    unit_i = tuple(evals[i] if k == j else 0 for k in range(n))
    unit_j = tuple(evals[j] if k == i else 0 for k in range(n))
    return {unit_i, unit_j}


def gen_refresher(
    ch: ArithmeticChannel, rep: Repartition, sk: SecretKey, rng: RandomSource
) -> Refresher:
    """Encrypt each secret slot's mod-p digit with the secret formula.

    The smallest nonzero level keeps post-refresh noise minimal while still
    masking the digit.
    """
    rho = []
    for x in sk.polys:
        digit = lift(ch.q, ch.eval(x)) % ch.p
        rho.append(
            encrypt_with_secret(sk, rep, ch, digit, REFRESHER_LEVEL, rng)
        )
    return Refresher(tuple([REFRESHER_LEVEL] * ch.n), tuple(rho))


def keygen(
    ch: ArithmeticChannel,
    rng: RandomSource,
    n_locators: int = 4,
    n_directors: int = 6,
) -> KeyBundle:
    """Generate the full key bundle for a validated channel.

    The repartition is drawn uniformly; if a draw makes the secret's gcd
    condition unattainable (every slot tied to one common prime), a fresh
    repartition is drawn rather than burning the whole budget.
    """
    ch.require_valid()
    last_error = None
    for _ in range(REPARTITION_ATTEMPTS):
        rep = Repartition.sample(ch.q, ch.n, rng)
        try:
            sk = gen_secret(ch, rep, rng)
            tensor = gen_tensor(ch, rep, sk, rng)
        except GenerationError as exc:
            # Unusable draw (gcd unattainable, or a tensor slot admits only
            # degenerate rows): resample the repartition and secret.
            last_error = exc
            continue
        f0 = gen_initializer(ch, rep, rng)
        pk = gen_public(ch, sk, f0, rng)
        refresher = gen_refresher(ch, rep, sk, rng)
        locators = tuple(
            sample_locator_db(sk, ch, rng, n_locators, n_directors)
        )
        return KeyBundle(ch, sk, pk, rep, tensor, refresher, locators)
    raise GenerationError(f"key generation failed: {last_error}")
