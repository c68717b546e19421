"""Key material generation.

The full bundle is: a secret vector of ring polynomials, the public key (the
initializer matrix, the masked key vector and the prime repartition), the
relinearization 3-tensor built from a Bezout identity over the secret
evaluations, the refresher (encryptions of the secret's mod-p digits), and
a published locator/director database for the public refreshability test.

Two parts of the public material depend on no secret: the initializer
``f0`` and the vector parts of the refresher's ciphertexts.  Each is drawn
from its own seed, which ``keygen`` draws from its stream
(``cipher.draw_seed``) once the repartition, secret and tensor are final;
``PublicKey`` and ``Refresher`` hold the seed, and ``PublicKey.f0`` and
``EvalKeys.rho`` expand it, over the public key's channel and repartition,
on first use.  ``cipher.expand_seed`` is the one expansion, at keygen as on
first use.  A file publishes the seeds instead of the parts.

Each fact of a key has one owner: the public key holds the channel and the
repartition, and a ``KeyBundle`` is its ``EvalKeys`` plus the secret.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .channel import ArithmeticChannel, RandomSource, sample_noise
from .cipher import (
    REFRESHER_LEVEL, Ciphertext, _secret_formula, draw_seed, evals, expand_seed,
    in_encryption_space, shadow,
)
from .errors import GenerationError, ParameterError
from .refresh import EvalKeys, sample_locator_db
from .rings import PackedRows, RingPoly, Repartition, _int_coeffs

__all__ = [
    "SecretKey",
    "PublicKey",
    "ProductTensor",
    "Refresher",
    "KeyBundle",
    "gen_secret",
    "gen_public",
    "gen_tensor",
    "gen_refresher",
    "keygen",
]

SECRET_ATTEMPTS = 256
REPARTITION_ATTEMPTS = 16


@dataclass(frozen=True)
class SecretKey:
    polys: tuple[RingPoly, ...]

    def values(self, ch: ArithmeticChannel) -> tuple[int, ...]:
        """The secret's evaluations under ``ch`` (``cipher.evals`` of
        ``polys``), computed on first use and kept beside ``ch``; another
        channel object computes them again.  Every secret-side check reads
        the secret through here."""
        kept = vars(self).get("_values")
        if kept is None or kept[0] is not ch:
            kept = vars(self)["_values"] = (ch, evals(ch, self.polys))
        return kept[1]

    @cached_property
    def rows(self) -> PackedRows:
        """The secret as an ``n x 1`` packed matrix, for the two places that
        publish ``<c, x>`` as a polynomial (``gen_public``,
        ``encrypt_with_secret``); decryption reads only evaluations."""
        return PackedRows((x,) for x in self.polys)


@dataclass(frozen=True)
class PublicKey:
    """The initializer ``f0`` (``N`` rows of ``n`` entries, column ``j``
    evaluating to multiples of slot ``j``'s prime) and the masked key vector
    ``fprime``, one entry per row.

    ``f0`` is ``expand_seed`` of ``seed`` over ``repartition``; the key
    holds the seed and expands it on first use.  The public key is the one
    part of a key that holds its channel and its repartition.
    """

    seed: bytes
    fprime: tuple[RingPoly, ...]
    channel: ArithmeticChannel
    repartition: Repartition

    @cached_property
    def f0(self) -> tuple[tuple[RingPoly, ...], ...]:
        """The initializer, expanded from ``seed`` on first use."""
        return expand_seed(self.channel, self.repartition, self.seed, self.channel.big_n)

    @cached_property
    def extended_rows(self) -> tuple[tuple[RingPoly, ...], ...]:
        """The rows ``(f0[i][0..n-1], fprime[i])``, built on first use, for
        ``rows`` and ``EvalKeys.refresh_rows``; key generation builds none."""
        return tuple(row + (masked,) for row, masked in zip(self.f0, self.fprime))

    @cached_property
    def rows(self) -> PackedRows:
        """``extended_rows`` packed once for ``encrypt``."""
        return PackedRows(self.extended_rows)

    @cached_property
    def shadows(self) -> tuple:
        """The integer shadows (``cipher.shadow``) of the rows ``(f0[r],
        fprime[r])``, each an encryption of zero at level k0, by column:
        ``n + 1`` tuples, column ``j < n`` holding every row's ``v[j]`` and
        the last every row's ``v'``.  Built on first use for
        ``refresh.make_refreshable``: an encryption of zero with the mask
        ``b`` has the shadow entry ``sum_r eval(b[r]) * shadows[j][r]``."""
        ch = self.channel
        rows = (shadow(ch, Ciphertext(row, masked, ch.k0))
                for row, masked in zip(self.f0, self.fprime))
        return tuple(zip(*((*s.v, s.vprime) for s in rows)))


@dataclass(frozen=True)
class ProductTensor:
    """Symmetric 3-tensor relinearizing secret products, entries in Z_q.

    Held as its layers: pairs ``(alpha, beta)`` of canonical residues mod
    ``q``, an ``n``-vector and a symmetric ``n x n`` matrix, with
    ``lambda[i][j][k] = sum_s alpha_s[k] * beta_s[i][j] mod q``.  A key's
    tensor has one layer (``gen_tensor``); the contraction reads the layers
    and nothing else.  Shapes, symmetry and the range of every entry are
    checked on construction, because the contraction relies on them.
    """

    q: int
    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ParameterError("tensor must have at least one layer")
        n = len(self.layers[0][0])
        for alpha, beta in self.layers:
            if n == 0 or len(alpha) != n or len(beta) != n or any(len(row) != n for row in beta):
                raise ParameterError(f"tensor layers must pair {n} weights with an {n}x{n} matrix")
            entries = _int_coeffs(chain(alpha, *beta), "tensor entries")
            if not 0 <= min(entries) <= max(entries) < self.q:
                raise ParameterError(f"tensor entries must be residues in [0, {self.q})")
            if any(beta[i][j] != beta[j][i] for i in range(n) for j in range(i)):
                raise ParameterError("tensor must be symmetric in its first two indices")

    def fits(self, rep: Repartition) -> bool:
        """Whether every layer's ``beta`` has the vanishing 2x2 minors that
        ``gen_tensor`` gives it: modulo ``weight(i, j)``, which divides
        ``weight(i, i)`` and ``weight(j, j)``, ``beta[i][j]`` is one scale
        times ``s_i * s_j``, so ``beta[i][j]**2 - beta[i][i] * beta[j][j]``
        is 0 there.  A public check: it catches a changed entry, not a
        forged tensor."""
        n = len(self.layers[0][0])
        return all((beta[i][j] ** 2 - beta[i][i] * beta[j][j]) % rep.weight(i, j) == 0
                   for _, beta in self.layers for i in range(n) for j in range(i))

    @property
    def coeffs(self) -> tuple:
        """The cube ``lambda[i][j][k]``, derived from the layers for the
        oracles; the contraction never reads it."""
        n, q = len(self.layers[0][0]), self.q
        return tuple(tuple(tuple(sum(a[k] * b[i][j] for a, b in self.layers) % q for k in range(n))
                           for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class Refresher:
    """What a file holds of the encryptions of the secret key's mod-p
    digits: the seed of their vector parts and their scalar parts
    ``cprime``.  ``EvalKeys.rho`` builds the ciphertexts on first use."""

    seed: bytes
    cprime: tuple[RingPoly, ...]


@dataclass(frozen=True)
class KeyBundle(EvalKeys):
    """A whole key: its ``EvalKeys`` plus the secret."""

    secret: SecretKey


def _weighted_evals(ch: ArithmeticChannel, rep: Repartition, sk: SecretKey) -> list[int]:
    return [rep.prime_of(i) * e for i, e in enumerate(sk.values(ch))]


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


def gen_public(
    ch: ArithmeticChannel, rep: Repartition, sk: SecretKey, seed: bytes, rng: RandomSource
) -> PublicKey:
    """Draw ``f0`` from ``seed`` and mask each row's secret contraction with
    channel noise at the slack level k0, drawn from ``rng``.  The key keeps
    the expanded ``f0``."""
    f0 = expand_seed(ch, rep, seed, ch.big_n)
    fprime = tuple(
        sk.rows.combine(row)[0] + sample_noise(ch, ch.k0, rng) for row in f0
    )
    pk = PublicKey(seed, fprime, ch, rep)
    vars(pk)["f0"] = f0  # what the cached property would expand
    return pk


def gen_tensor(
    ch: ArithmeticChannel, rep: Repartition, sk: SecretKey, rng: RandomSource
) -> ProductTensor:
    """Build the relinearization tensor from the Bezout identity: entry
    ``(i, j, k)`` is ``alpha_k * beta_ij``, ``alpha_k = prime_of(k) * mu_k``
    and ``beta_ij = s_i * s_j - mask * weight(i, j)``.

    For each unordered slot pair one uniform masking scalar is drawn (shared
    across the pair, which keeps the tensor symmetric and starves Groebner
    reductions of usable equation pairs), and the degenerate unit-vector
    rows ``alpha * beta_ij`` that would leak secret evaluations are rejected
    and redrawn.  The tensor holds ``_published_layers``, not these factors.
    """
    weighted = _weighted_evals(ch, rep, sk)
    g, mu = _bezout(weighted)
    if g != 1:
        raise GenerationError("tensor generation needs coprime weighted evaluations")
    n, q, secret = ch.n, ch.q, sk.values(ch)
    alpha = tuple(rep.prime_of(k) * mu[k] % q for k in range(n))
    beta = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            forbidden = {tuple(secret[i] if k == j else 0 for k in range(n)),
                         tuple(secret[j] if k == i else 0 for k in range(n))}
            for _ in range(SECRET_ATTEMPTS):
                mask = rng.below(q)
                base = (secret[i] * secret[j] - mask * rep.weight(i, j)) % q
                if tuple(a * base % q for a in alpha) not in forbidden:
                    break
            else:
                if n > 1:
                    raise GenerationError(f"tensor slot ({i},{j}) only admits degenerate rows")
                # With a single slot every valid row is the degenerate one.
            beta[i][j] = beta[j][i] = base
    return ProductTensor(q, _published_layers(ch, alpha, beta))


def _published_layers(ch: ArithmeticChannel, alpha, beta) -> tuple:
    """The layers of ``alpha (x) beta mod q`` that the tensor alone fixes.

    The tensor fixes its layer only up to a unit c, as ``(c * alpha, c^-1 *
    beta)``, and keygen's own factors would also fix c.  So per prime r of
    q, alpha is scaled to make its first entry that r does not divide 1 mod
    r (both are 0 mod r where either vanishes mod r); CRT joins the primes.
    For a q that is not squarefree the layers are the planes ``(e_k,
    lambda[.][.][k])``."""
    q, n = ch.q, len(alpha)
    if math.prod(ch.primes) != q:
        return tuple((tuple(int(m == k) for m in range(n)),
                      tuple(tuple(alpha[k] * b % q for b in row) for row in beta))
                     for k in range(n))
    # The scales of alpha and beta: alpha_k^-1 and alpha_k mod each r, 0 mod
    # an r where the tensor vanishes.
    scale_a = scale_b = 0
    beta_gcd = math.gcd(q, *chain.from_iterable(beta))
    for r in ch.primes:
        k = next((k for k, x in enumerate(alpha) if x % r), None)
        if k is not None and beta_gcd % r:
            unit = q // r * pow(q // r, -1, r)  # 1 mod r, 0 mod the other primes
            scale_a += unit * pow(alpha[k], -1, r)
            scale_b += unit * alpha[k]
    return ((tuple(scale_a * x % q for x in alpha),
             tuple(tuple(scale_b * x % q for x in row) for row in beta)),)


def gen_refresher(
    ch: ArithmeticChannel, rep: Repartition, sk: SecretKey, seed: bytes, rng: RandomSource
) -> Refresher:
    """Encrypt each secret slot's mod-p digit at ``REFRESHER_LEVEL`` with
    the secret formula of ``encrypt_with_secret``, the vector parts drawn
    from ``seed`` (as ``EvalKeys.rho`` expands them) and each carrier and
    noise from ``rng``.  The refresher keeps the scalar parts.
    """
    rho = (_secret_formula(sk, ch, c, e % ch.p, REFRESHER_LEVEL, rng)
           for c, e in zip(expand_seed(ch, rep, seed, ch.n), sk.values(ch)))
    return Refresher(seed, tuple(ct.cprime for ct in rho))


def owns(sk: SecretKey, keys) -> bool:
    """Whether the public material of ``keys`` (an ``EvalKeys``, a
    ``KeyBundle`` among them) is ``sk``'s, as far as the secret can tell:
    each public row an encryption of 0 at level k0, every slot pair's
    relinearization defect under the tensor a multiple of the pair's
    weight, and each refresher ciphertext (``keys.rho``) an encryption of
    its slot's digit at ``REFRESHER_LEVEL``.  The public material of another key, or with one
    word changed, fails it; a forged key need not."""
    pk, ch, layers = keys.public, keys.channel, keys.tensor.layers
    rep, q, secret = pk.repartition, ch.q, sk.values(ch)
    # sum_k lambda[i][j][k] * s_k is sum_s beta_s[i][j] * <alpha_s, s>.
    scales = [sum(map(operator.mul, alpha, secret)) % q for alpha, _ in layers]

    def relinearizes(i: int, j: int) -> bool:
        combo = sum(scale * beta[i][j] for scale, (_, beta) in zip(scales, layers))
        return (secret[i] * secret[j] - combo) % q % rep.weight(i, j) == 0

    return (
        all(in_encryption_space(sk, rep, ch, Ciphertext(row, masked, ch.k0), 0, ch.k0)
            for row, masked in zip(pk.f0, pk.fprime, strict=True))
        and all(relinearizes(i, j) for i in range(ch.n) for j in range(i, ch.n))
        and all(in_encryption_space(sk, rep, ch, ct, e % ch.p, REFRESHER_LEVEL)
                for ct, e in zip(keys.rho, secret, strict=True))
    )


def keygen(ch: ArithmeticChannel, rng: RandomSource) -> KeyBundle:
    """Generate the full key bundle for a validated channel.

    The repartition is drawn uniformly; if a draw makes the secret's gcd
    condition unattainable (every slot tied to one common prime), a fresh
    repartition is drawn rather than burning the whole budget.  The two
    public seeds, of ``f0`` and of the refresher's vector parts, are drawn
    after the attempt that succeeds, so they expand over the final
    repartition.
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
        f0_seed, rho_seed = draw_seed(rng), draw_seed(rng)
        pk = gen_public(ch, rep, sk, f0_seed, rng)
        refresher = gen_refresher(ch, rep, sk, rho_seed, rng)
        locators = tuple(sample_locator_db(sk, ch, rng))
        return KeyBundle(pk, tensor, refresher, locators, sk)
    raise GenerationError(f"key generation failed: {last_error}")
