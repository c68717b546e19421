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
from itertools import chain

from .channel import ArithmeticChannel, RandomSource, sample_noise
from .cipher import Ciphertext, encrypt_with_secret, evals, sample_divisible_vector
from .errors import GenerationError, ParameterError
from .refresh import EvalKeys, LocatorEntry, sample_locator_db
from .rings import FACTOR_CAP, PackedRows, RingPoly, Repartition, _int_coeffs, factorize

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

    @cached_property
    def rows(self) -> PackedRows:
        """The secret as an ``n x 1`` packed matrix, for the two places that
        publish ``<c, x>`` as a polynomial (``gen_public``,
        ``encrypt_with_secret``); decryption reads only evaluations."""
        return PackedRows((x,) for x in self.polys)


@dataclass(frozen=True)
class PublicKey:
    f0: tuple[tuple[RingPoly, ...], ...]
    fprime: tuple[RingPoly, ...]

    @cached_property
    def extended_rows(self) -> tuple[tuple[RingPoly, ...], ...]:
        """The rows ``(f0[i][0..n-1], fprime[i])``, built on first use, for
        ``rows`` and ``EvalKeys.refresh_rows``; key generation builds none."""
        return tuple(row + (masked,) for row, masked in zip(self.f0, self.fprime))

    @cached_property
    def rows(self) -> PackedRows:
        """``extended_rows`` packed once for ``encrypt``."""
        return PackedRows(self.extended_rows)


@dataclass(frozen=True)
class ProductTensor:
    """Symmetric 3-tensor relinearizing secret products, entries in Z_q.

    ``coeffs[i][j][k]`` must form a non-empty ``n x n x n`` cube of ``int``
    entries with ``coeffs[i][j] == coeffs[j][i]``; all three are checked on
    construction, because the contraction relies on them.

    The contraction reads it as ``layers(q)``, pairs ``(alpha, beta)`` with
    ``coeffs[i][j][k] == sum_s alpha_s[k] * beta_s[i][j] (mod q)``: one for
    a ``gen_tensor`` tensor, ``prime_of(k) * mu_k * base_ij``, which has rank
    one; else (or for a q that is not squarefree) one per plane, ``e_k``.
    """

    coeffs: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        t = self.coeffs
        n = len(t)
        if n == 0:
            raise ParameterError("tensor must have at least one slot")
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in t):
            raise ParameterError(f"tensor must be {n}x{n}x{n}")
        _int_coeffs(chain.from_iterable(chain.from_iterable(t)), "tensor entries")
        if any(t[i][j] != t[j][i] for i in range(n) for j in range(i)):
            raise ParameterError("tensor must be symmetric in its first two indices")

    def layers(self, q: int) -> tuple:
        """The pairs ``(alpha, beta)`` of canonical residues mod ``q``, found
        on first use and kept on the tensor (see the class docstring)."""
        if self.__dict__.get("_q") != q:
            t = self.coeffs
            self.__dict__.update(_q=q, _layers=_rank_one(t, q) or tuple(
                (tuple(int(m == k) for m in range(len(t))),
                 tuple(tuple(x[k] % q for x in row) for row in t)) for k in range(len(t))))
        return self._layers


def _rank_one(t, q: int):
    """The one layer of ``t`` mod a squarefree ``q``, or None.  Per prime r
    a pivot entry that r does not divide gives ``alpha`` (its row over it)
    and ``beta`` (its plane) mod r; CRT joins them, checked at every entry."""
    if q >= FACTOR_CAP or math.prod(primes := factorize(q)) != q:
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
    return ((alpha, beta),)


@dataclass(frozen=True)
class Refresher:
    """Encryptions of the secret key's mod-p digits."""

    rho: tuple[Ciphertext, ...]

    @property
    def kappa(self) -> tuple[int, ...]:
        """The refresher's levels: those its ciphertexts carry."""
        return tuple(ct.level for ct in self.rho)


@dataclass(frozen=True)
class KeyBundle:
    channel: ArithmeticChannel
    secret: SecretKey
    public: PublicKey
    repartition: Repartition
    tensor: ProductTensor
    refresher: Refresher
    locators: tuple[LocatorEntry, ...]

    @cached_property
    def eval_keys(self) -> EvalKeys:
        """The public part as one ``EvalKeys``, made on first use and kept, so
        its refresh matrix is built once per bundle."""
        return EvalKeys(self.channel, self.public, self.tensor, self.refresher, self.locators,
                        self.repartition)


def _weighted_evals(ch: ArithmeticChannel, rep: Repartition, sk: SecretKey) -> list[int]:
    return [rep.prime_of(i) * e for i, e in enumerate(evals(ch, sk.polys))]


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
    return tuple(sample_divisible_vector(ch, rep, rng) for _ in range(ch.big_n))


def gen_public(ch: ArithmeticChannel, sk: SecretKey, f0, rng: RandomSource) -> PublicKey:
    """Mask each row's secret contraction with channel noise at the slack
    level k0."""
    fprime = tuple(
        sk.rows.combine(row)[0] + sample_noise(ch, ch.k0, rng) for row in f0
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
    secret = evals(ch, sk.polys)
    coeffs = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            forbidden = _degenerate_rows(secret, i, j, n)
            for _ in range(SECRET_ATTEMPTS):
                mask = rng.below(ch.q)
                base = secret[i] * secret[j] - mask * rep.weight(i, j)
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


def _degenerate_rows(secret, i, j, n):
    unit_i = tuple(secret[i] if k == j else 0 for k in range(n))
    unit_j = tuple(secret[j] if k == i else 0 for k in range(n))
    return {unit_i, unit_j}


def gen_refresher(
    ch: ArithmeticChannel, rep: Repartition, sk: SecretKey, rng: RandomSource
) -> Refresher:
    """Encrypt each secret slot's mod-p digit with the secret formula.

    The smallest nonzero level keeps post-refresh noise minimal while still
    masking the digit.
    """
    rho = tuple(
        encrypt_with_secret(sk, rep, ch, e % ch.p, REFRESHER_LEVEL, rng)
        for e in evals(ch, sk.polys)
    )
    return Refresher(rho)


def keygen(ch: ArithmeticChannel, rng: RandomSource) -> KeyBundle:
    """Generate the full key bundle for a validated channel.

    The repartition is drawn uniformly; if a draw makes the secret's gcd
    condition unattainable (every slot tied to one common prime), a fresh
    repartition is drawn rather than burning the whole budget.
    """
    ch.require_valid()
    last_error = None
    for _ in range(REPARTITION_ATTEMPTS):
        rep = Repartition.sample(ch, rng)
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
        locators = tuple(sample_locator_db(sk, ch, rng))
        return KeyBundle(ch, sk, pk, rep, tensor, refresher, locators)
    raise GenerationError(f"key generation failed: {last_error}")
