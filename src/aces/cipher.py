"""Encryption, decryption, and noise-level accounting.

A ciphertext is a vector part ``c`` (one ring polynomial per secret-key
slot) plus a scalar part ``cprime``, together with a tracked noise level.
The level is a certificate: the pair is claimed to sit in the encryption
space of its message at that level, and every operation in the package
updates it by the exact closed-form rules, all defined in this module,
rather than re-deriving it from data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import ArithmeticChannel, RandomSource, sample_message_carrier, sample_noise
from .errors import NoiseBudgetError, ParameterError
from .rings import RingPoly, is_leveled_multiple, lift, poly_vector_dot

__all__ = [
    "Ciphertext",
    "encrypt",
    "encrypt_with_secret",
    "decrypt",
    "level_after",
    "fresh_level",
    "post_refresh_level",
    "checked_refresh_level",
    "has_refresh_headroom",
    "sample_mask",
    "in_encryption_space",
]


@dataclass(frozen=True)
class Ciphertext:
    c: tuple[RingPoly, ...]
    cprime: RingPoly
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ParameterError("noise level cannot be negative")


def fresh_level(ch: ArithmeticChannel) -> int:
    """Worst-case level certificate for a public-key encryption.

    Each mask component evaluates to at most p and each public-key residual
    is level-k0 noise, so the accumulated mask noise is bounded by
    N*k0 steps of size p.
    """
    return ch.big_n * ch.p * ch.k0


def sample_mask(ch: ArithmeticChannel, rng: RandomSource) -> tuple[RingPoly, ...]:
    """The encryptor's garbling vector: N carriers with evaluations in [0, p]."""
    return tuple(
        sample_message_carrier(ch, rng.between(0, ch.p), rng) for _ in range(ch.big_n)
    )


def encrypt(pk, ch: ArithmeticChannel, m: int, rng: RandomSource) -> Ciphertext:
    """Public-key encryption of a plaintext residue ``m`` mod p.

    c = f0^T b for a bounded random mask b, and the scalar part carries the
    message through a random carrier polynomial plus the masked public-key
    noise.
    """
    if not 0 <= m < ch.p:
        raise ParameterError(f"message {m} is not a residue mod p={ch.p}")
    b = sample_mask(ch, rng)
    n = len(pk.f0[0])
    c = tuple(
        poly_vector_dot(tuple(pk.f0[i][j] for i in range(ch.big_n)), b)
        for j in range(n)
    )
    carrier = sample_message_carrier(ch, m, rng)
    cprime = carrier + poly_vector_dot(b, pk.fprime)
    return Ciphertext(c, cprime, fresh_level(ch))


def encrypt_with_secret(
    sk, rep, ch: ArithmeticChannel, m: int, k: int, rng: RandomSource
) -> Ciphertext:
    """Secret-formula encryption of a residue ``m`` mod q at level ``k``.

    Only the key owner can do this: the vector part is sampled directly in
    the divisibility-constrained module and the scalar part is built from
    the secret key itself.  Used for the refresher and for tests.
    """
    c = tuple(
        sample_message_carrier(ch, (rep.prime_of(j) * rng.below(ch.q)) % ch.q, rng)
        for j in range(rep.n)
    )
    carrier = sample_message_carrier(ch, m, rng)
    noise = sample_noise(ch, k, rng)
    cprime = carrier + poly_vector_dot(c, sk.polys) + noise
    return Ciphertext(c, cprime, k)


def decrypt(sk, ch: ArithmeticChannel, ct: Ciphertext) -> int:
    """Recover the plaintext residue mod p.

    Refuses past the noise budget: beyond it the result is no longer
    guaranteed, and a wrong answer would be worse than an error.
    """
    if ct.level > ch.max_noise_level():
        raise NoiseBudgetError(
            f"noise budget exceeded: level {ct.level} > {ch.max_noise_level()}"
        )
    inner = ct.cprime - poly_vector_dot(ct.c, sk.polys)
    return lift(ch.q, ch.eval(inner)) % ch.p


def level_after(op: str, k1: int, k2: int, ch: ArithmeticChannel):
    """Exact output level of a homomorphic op, or None on overflow.

    Overflow is a value, not a fault: callers (the circuit evaluator in
    particular) decide whether to refresh, fail, or retry.  A level is
    admitted exactly when ``decrypt`` accepts it (``ch.max_noise_level()``).
    """
    if op == "add":
        level = k1 + k2
    elif op == "mul":
        level = (k1 + k2 + k1 * k2) * ch.p
    else:
        raise ParameterError(f"unknown operation {op!r}")
    return level if level <= ch.max_noise_level() else None


def _refresh_levels(ch: ArithmeticChannel, refresher) -> tuple[int, int]:
    """Accumulated and post-refresh level of a refresh, from the closed forms.

    Every digit encryption carries the fresh public level; the contraction
    against the refresher and the final addition accumulate by the
    ``level_after`` forms, and the post-refresh level adds the digit-sum
    correction floor(((p-1) + n(p-1)^2) / p).
    """
    k_digit = fresh_level(ch)
    k_star = k_digit + sum(ch.p * (k + k_digit + k * k_digit) for k in refresher.kappa)
    return k_star, k_star + ((ch.p - 1) + ch.n * (ch.p - 1) ** 2) // ch.p


def post_refresh_level(ch: ArithmeticChannel, refresher) -> int:
    """Exact output level of a refresh; it does not depend on the input."""
    return _refresh_levels(ch, refresher)[1]


def checked_refresh_level(ch: ArithmeticChannel, refresher, level: int) -> int:
    """The post-refresh level for a level-``level`` input, refused (with
    NoiseBudgetError) when the input or the output is past the budget."""
    k_star, out = _refresh_levels(ch, refresher)
    if max(level, out) > ch.max_noise_level():
        raise NoiseBudgetError(
            f"refresh refused: input level {level}, accumulated level {k_star}, "
            f"post-refresh level {out}, budget {ch.max_noise_level()}"
        )
    return out


def has_refresh_headroom(ch: ArithmeticChannel, level: int, margin: Fraction) -> bool:
    """The margin inequality: a located ciphertext at ``level`` is
    refreshable when ``(p(level+1) - 1)/q < 1 - margin``, decided exactly."""
    return Fraction(ch.p * (level + 1) - 1, ch.q) < 1 - margin


def in_encryption_space(sk, rep, ch: ArithmeticChannel, ct: Ciphertext, m: int, k: int) -> bool:
    """Secret-side membership check for the level-``k`` space of ``m``.

    Verifies the divisibility constraint on the vector part and that the
    scalar residual evaluates to the message plus level-``k`` noise.
    """
    for j, cj in enumerate(ct.c):
        if lift(ch.q, ch.eval(cj)) % rep.prime_of(j) != 0:
            return False
    residual = ch.eval(ct.cprime - poly_vector_dot(ct.c, sk.polys))
    return is_leveled_multiple(ch.p, k, lift(ch.q, (residual - m) % ch.q))
