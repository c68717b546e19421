"""Arithmetic channels: the public parameter tuple and its two samplers.

A channel fixes the plaintext modulus ``p``, the ciphertext modulus ``q``, an
evaluation point ``omega`` and a monic polynomial ``u`` with
``u(omega) = 0 mod q``.  Evaluating a ring polynomial at ``omega`` is then a
ring homomorphism onto Z_q, and every key and ciphertext invariant in this
package is phrased through that evaluation.

The two samplers draw the random material the scheme consumes:

* noise polynomials whose evaluation is a bounded multiple of ``p``
  (the level-``k`` noise space), and
* message carriers: polynomials evaluating to a prescribed residue.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError
from .rings import (
    MAX_Q, Ring, RingPoly, _int_coeffs, _wrap, is_leveled_multiple, lift, prime_factors,
)

__all__ = [
    "ArithmeticChannel",
    "RandomSource",
    "sample_noise",
    "sample_message_carrier",
    "in_noise_space",
]


class RandomSource:
    """Deterministic random stream seeded by a byte string.

    Identical seeds yield identical draw sequences, which is what makes key
    bundles and ciphertext files byte-reproducible.  Not a cryptographic
    generator; swap one in behind ``draws``, which every other draw goes
    through, for production use.
    """

    def __init__(self, seed: bytes):
        self.seed = bytes(seed)
        self._rng = random.Random(self.seed)

    @staticmethod
    def from_hex(text: str) -> "RandomSource":
        """The source seeded by ``text``: hex digits in pairs and nothing
        else, or a ValueError (``bytes.fromhex`` alone skips whitespace)."""
        seed = bytes.fromhex(text)
        if seed.hex() != text.lower():
            raise ValueError(f"expected hex digits in pairs, got {text!r}")
        return RandomSource(seed)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self.draws(n, 1)[0]

    def draws(self, n: int, count: int) -> list[int]:
        """``count`` uniform integers in [0, n), drawn as ``randrange(n)`` draws
        them: ``n.bit_length()``-bit words, each below ``n`` kept."""
        if n <= 0:
            raise ParameterError("upper bound must be positive")
        bits, k, out = self._rng.getrandbits, n.bit_length(), []
        while len(out) < count:
            r = bits(k)
            if r < n:
                out.append(r)
        return out

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)


@dataclass(frozen=True)
class ArithmeticChannel:
    """Public parameters (p, q, omega, u) plus the key dimensions.

    ``n`` is the secret-key length, ``big_n`` the number of public-key rows,
    and ``k0`` the security slack in the size inequality
    ``q >= k0 * p**2 * big_n + 1``.
    """

    p: int
    q: int
    omega: int
    u: tuple[int, ...]
    n: int
    big_n: int
    k0: int

    def __post_init__(self):
        for name in ("p", "q", "omega", "n", "big_n", "k0"):
            _int_coeffs((getattr(self, name),), f"channel field {name}")
        object.__setattr__(self, "u", _int_coeffs(self.u))

    @property
    def degree(self) -> int:
        return len(self.u) - 1

    def violations(self) -> list[str]:
        """Every violated structural constraint, each named individually."""
        out = []
        if not self.p < self.q:
            out.append(f"p < q violated: p={self.p}, q={self.q}")
        if self.q > MAX_Q:
            out.append(f"q <= 2**64 violated: q={self.q}; no word holds its residues")
        if self.p < 2:
            out.append(f"p must be >= 2, got {self.p}")
        if self.q < 2:  # and no residue mod q to check omega or u(omega) against
            out.append(f"q must be >= 2, got {self.q}")
        if len(self.u) < 3 or self.u[-1] != 1:
            out.append("u must be monic of degree >= 2")
        elif self.q >= 2:
            u_at_omega = sum(c * self.omega**i for i, c in enumerate(self.u))
            if u_at_omega % self.q != 0:
                out.append(f"u(omega) != 0 mod q: u({self.omega}) = {u_at_omega % self.q}")
        if self.q >= 2 and math.gcd(self.omega % self.q, self.q) != 1:
            out.append(f"omega={self.omega} is not invertible mod q={self.q}")
        if self.n < 1:
            out.append(f"n must be positive, got {self.n}")
        if self.big_n < 1:
            out.append(f"N must be positive, got {self.big_n}")
        if self.k0 < 1:
            out.append(f"k0 must be positive, got {self.k0}")
        else:
            bound = self.k0 * self.p**2 * self.big_n + 1
            if self.q < bound:
                out.append(f"q >= k0*p^2*N+1 violated: q={self.q} < {bound}")
        return out

    def require_valid(self) -> "ArithmeticChannel":
        problems = self.violations()
        if problems:
            raise ParameterError("; ".join(problems))
        return self

    # -- ring plumbing -------------------------------------------------

    @cached_property
    def ring(self) -> Ring:
        """The shared ``Ring(q, u)`` every polynomial of this channel lives in."""
        return Ring(self.q, self.u)

    @property
    def primes(self) -> tuple[int, ...]:
        """The distinct prime factors of q in increasing order, factorized
        once per process (``rings.prime_factors``); repartitions are drawn
        over them."""
        return prime_factors(self.q)

    def random_poly(self, rng: RandomSource) -> RingPoly:
        return _wrap(self.ring, tuple(rng.draws(self.q, self.degree)))

    @cached_property
    def _omega_powers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``omega^j`` and ``omega^-j`` mod q for ``j < deg(u)``; refuses an
        omega that is not invertible mod q."""
        q, w = self.q, self.omega % self.q
        if math.gcd(w, q) != 1:
            raise ParameterError("omega is not invertible mod q")
        return tuple(tuple(pow(x, j, q) for j in range(self.degree)) for x in (w, pow(w, -1, q)))

    def eval(self, v: RingPoly) -> int:
        """The channel homomorphism: evaluate at omega into Z_q."""
        if v.ring is not self.ring:
            raise ParameterError("polynomial does not belong to this channel's ring")
        return sum(map(operator.mul, v.coeffs, self._omega_powers[0])) % self.q

    def max_noise_level(self) -> int:
        """Largest level at which decryption is still guaranteed.

        Levels k decrypt reliably while p*(k+1) <= q.
        """
        return self.q // self.p - 1


def _pivot_poly(ch: ArithmeticChannel, target: int, rng: RandomSource) -> RingPoly:
    """Random polynomial evaluating to ``target`` at omega.

    Free coefficients are uniform; one pivot coefficient (at a random index
    >= 1) is solved so the evaluation comes out exactly right.
    """
    q, d = ch.q, ch.degree
    powers, inverses = ch._omega_powers
    pivot = rng.between(1, d - 1)
    coeffs = rng.draws(q, d - 1)
    coeffs.insert(pivot, 0)
    coeffs[pivot] = (target - sum(map(operator.mul, coeffs, powers))) * inverses[pivot] % q
    return _wrap(ch.ring, tuple(coeffs))


def sample_noise(ch: ArithmeticChannel, k: int, rng: RandomSource) -> RingPoly:
    """Draw a polynomial whose evaluation is p*l for a uniform l in [0, k].

    The draw range is clamped so the evaluation, lifted to Z, never wraps
    past q; the output therefore always lies in the level-``k`` noise space.
    """
    if k < 0:
        raise ParameterError("noise level must be non-negative")
    top = min(k, (ch.q - 1) // ch.p)
    step = rng.between(0, top)
    return _pivot_poly(ch, ch.p * step, rng)


def sample_message_carrier(ch: ArithmeticChannel, m: int, rng: RandomSource) -> RingPoly:
    """Draw a polynomial evaluating exactly to the residue ``m``."""
    return _pivot_poly(ch, lift(ch.q, m), rng)


def in_noise_space(ch: ArithmeticChannel, e: RingPoly, k: int) -> bool:
    """Whether ``e`` evaluates to a multiple of p no greater than k*p."""
    return is_leveled_multiple(ch.p, k, ch.eval(e))
