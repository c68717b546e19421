"""Encryption, decryption, and noise-level accounting.

A ciphertext is a vector part ``c`` (one ring polynomial per secret-key
slot) plus a scalar part ``cprime``, together with a tracked noise level.
The level is a certificate: the pair is claimed to sit in the encryption
space of its message at that level, and every operation in the package
updates it by the exact closed-form rules, all defined in this module,
rather than re-deriving it from data.  So is the evaluator's rule for when
to refresh a wire, ``refresh_due``.

Secret-side code, here and in ``refresh`` and ``keygen``, reads the secret
only through ``SecretKey.values``: its evaluations under the channel's
evaluation map, a ring homomorphism onto Z_q, computed once per key.  A
ciphertext's integer shadow ``(v, v')`` holds the negated evaluations of
``c`` and the evaluation of ``c'``; with the secret evaluations ``s``, the
lifted sum ``v' + <v, s>`` is ``eval(c' - <c, x>)`` modulo q, so
decryption, the membership check and the refreshability index are integer
arithmetic on it, with no ring product.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .channel import ArithmeticChannel, RandomSource, sample_message_carrier, sample_noise
from .errors import NoiseBudgetError, ParameterError
from .rings import RingPoly, is_leveled_multiple

__all__ = [
    "Ciphertext",
    "Pseudociphertext",
    "evals",
    "shadow",
    "encrypt",
    "encrypt_with_secret",
    "decrypt",
    "level_after",
    "within_budget",
    "fresh_level",
    "post_refresh_level",
    "checked_refresh_level",
    "refresh_due",
    "has_refresh_headroom",
    "sample_mask",
    "sample_divisible_vector",
    "draw_seed",
    "expand_seed",
    "in_encryption_space",
]

# The level of every refresher ciphertext: the smallest nonzero level keeps
# the post-refresh level minimal while still masking the digit.
REFRESHER_LEVEL = 1
# Bytes of each seed that material is expanded from (``draw_seed``).
SEED_BYTES = 16


@dataclass(frozen=True)
class Ciphertext:
    c: tuple[RingPoly, ...]
    cprime: RingPoly
    level: int

    def __post_init__(self):
        if type(self.level) is not int:
            raise ParameterError(f"noise level must be an integer, got {self.level!r}")
        if self.level < 0:
            raise ParameterError("noise level cannot be negative")


@dataclass(frozen=True)
class Pseudociphertext:
    """Integer shadow of a ciphertext: negated vector evaluations plus the
    scalar evaluation, all canonical residues mod q, and the ciphertext's
    level.  It is all that the refresh layer reads."""

    v: tuple[int, ...]
    vprime: int
    level: int


def evals(ch: ArithmeticChannel, polys) -> tuple[int, ...]:
    """The channel evaluations of ``polys``, canonical residues mod q."""
    return tuple(ch.eval(x) for x in polys)


def shadow(ch: ArithmeticChannel, ct: Ciphertext) -> Pseudociphertext:
    return Pseudociphertext(
        tuple((-v) % ch.q for v in evals(ch, ct.c)), ch.eval(ct.cprime), ct.level
    )


def _lifted_sum(secret: tuple[int, ...], ps: Pseudociphertext) -> int:
    """``v' + <v, s>`` over Z, for the shadow ``ps = (v, v')`` and the
    secret evaluations ``s``: congruent to ``eval(c' - <c, x>)`` mod q."""
    if len(ps.v) != len(secret):
        raise ParameterError(
            f"ciphertext has {len(ps.v)} vector parts, the secret key {len(secret)}"
        )
    return ps.vprime + sum(map(operator.mul, ps.v, secret))


def within_budget(ch: ArithmeticChannel, level: int) -> bool:
    """The budget predicate: whether ``decrypt`` accepts level ``level``."""
    return level <= ch.max_noise_level()


def fresh_level(ch: ArithmeticChannel) -> int:
    """Worst-case level certificate for a public-key encryption.

    Each mask component evaluates to at most p and each public-key residual
    is level-k0 noise, so the accumulated mask noise is bounded by
    N*k0 steps of size p.
    """
    return ch.big_n * ch.p * ch.k0


def sample_mask(ch: ArithmeticChannel, rng: RandomSource) -> tuple[RingPoly, ...]:
    """The encryptor's garbling vector: N carriers, each of a value drawn
    from [0, p] just before it."""
    return tuple(sample_message_carrier(ch, rng.between(0, ch.p), rng) for _ in range(ch.big_n))


def encrypt(pk, ch: ArithmeticChannel, m: int, rng: RandomSource) -> Ciphertext:
    """Public-key encryption of a plaintext residue ``m`` mod p.

    c = f0^T b for a bounded random mask b, and the scalar part carries the
    message through a random carrier polynomial plus the masked public-key
    noise fprime^T b; both come from one combination of the packed rows
    ``(f0[i], fprime[i])`` (``PublicKey.rows``).  ``ch`` must be the key's
    own channel, whose noise ``fresh_level`` certifies.
    """
    if ch is not pk.channel:
        raise ParameterError("encrypt: the channel is not the public key's channel")
    if not 0 <= m < ch.p:
        raise ParameterError(f"message {m} is not a residue mod p={ch.p}")
    b = sample_mask(ch, rng)
    *c, masked = pk.rows.combine(b)
    carrier = sample_message_carrier(ch, m, rng)
    return Ciphertext(tuple(c), carrier + masked, fresh_level(ch))


def sample_divisible_vector(ch: ArithmeticChannel, rep, rng: RandomSource) -> tuple[RingPoly, ...]:
    """One carrier per slot ``j``, evaluating to a uniform multiple of slot
    ``j``'s prime: the divisibility-constrained module of vector parts."""
    return tuple(
        sample_message_carrier(ch, (rep.prime_of(j) * rng.below(ch.q)) % ch.q, rng)
        for j in range(rep.n)
    )


def draw_seed(rng: RandomSource) -> bytes:
    """A seed of ``SEED_BYTES`` uniform bytes drawn from ``rng``: the seeds
    of ``f0`` and of the refresher's vector parts, and a refresh's carrier
    seed."""
    return rng.below(1 << 8 * SEED_BYTES).to_bytes(SEED_BYTES, "little")


def expand_seed(ch: ArithmeticChannel, rep, seed: bytes, count: int):
    """``count`` divisible vectors (``sample_divisible_vector``) drawn from
    ``RandomSource(seed)``: the initializer ``f0``, so that fresh ciphertext
    vectors inherit the divisibility structure, and the refresher's vector
    parts."""
    rng = RandomSource(seed)
    return tuple(sample_divisible_vector(ch, rep, rng) for _ in range(count))


def encrypt_with_secret(
    sk, rep, ch: ArithmeticChannel, m: int, k: int, rng: RandomSource
) -> Ciphertext:
    """Secret-formula encryption of a residue ``m`` mod q at level ``k``.

    Only the key owner can do this: the vector part is sampled directly in
    the divisibility-constrained module and the scalar part is built from
    the secret key itself.  Used for the refresher and for tests.
    """
    return _secret_formula(sk, ch, sample_divisible_vector(ch, rep, rng), m, k, rng)


def _secret_formula(sk, ch: ArithmeticChannel, c, m: int, k: int, rng: RandomSource) -> Ciphertext:
    """The ciphertext of ``m`` at level ``k`` on the vector part ``c``: its
    scalar part is a carrier of ``m``, then level-``k`` noise, drawn from
    ``rng`` in that order, plus ``<c, x>`` for the secret ``x``."""
    carrier = sample_message_carrier(ch, m, rng)
    noise = sample_noise(ch, k, rng)
    return Ciphertext(c, carrier + sk.rows.combine(c)[0] + noise, k)


def decrypt(sk, ch: ArithmeticChannel, ct: Ciphertext) -> int:
    """Recover the plaintext residue mod p.

    Refuses past the noise budget: beyond it the result is no longer
    guaranteed, and a wrong answer would be worse than an error.
    """
    if not within_budget(ch, ct.level):
        raise NoiseBudgetError(
            f"noise budget exceeded: level {ct.level} > {ch.max_noise_level()}"
        )
    return _lifted_sum(sk.values(ch), shadow(ch, ct)) % ch.q % ch.p


def level_after(op: str, k1: int, k2: int, ch: ArithmeticChannel):
    """Exact output level of a homomorphic op, or None on overflow.

    Overflow is a value, not a fault: callers (the circuit evaluator in
    particular) decide whether to refresh, fail, or retry.  A level is
    admitted exactly when ``decrypt`` accepts it (``within_budget``).
    """
    if op == "add":
        level = k1 + k2
    elif op == "mul":
        level = (k1 + k2 + k1 * k2) * ch.p
    else:
        raise ParameterError(f"unknown operation {op!r}")
    return level if within_budget(ch, level) else None


def _refresh_levels(ch: ArithmeticChannel) -> tuple[int, int]:
    """Accumulated and post-refresh level of a refresh, from the closed forms.

    Every digit encryption carries the fresh public level ``k_d = N*p*k0``
    and every refresher ciphertext ``REFRESHER_LEVEL``, 1; the n products of
    the contraction and the final addition accumulate by the ``level_after``
    forms to ``k_d + n*p*(1 + 2*k_d)``, and the post-refresh level adds the
    digit-sum correction floor(((p-1) + n(p-1)^2) / p).  Both depend on the
    channel alone.
    """
    k, k_digit = REFRESHER_LEVEL, fresh_level(ch)
    k_star = k_digit + ch.n * ch.p * (k + k_digit + k * k_digit)
    return k_star, k_star + ((ch.p - 1) + ch.n * (ch.p - 1) ** 2) // ch.p


def post_refresh_level(ch: ArithmeticChannel) -> int:
    """Exact output level of a refresh; it does not depend on the input."""
    return _refresh_levels(ch)[1]


def refresh_due(ch: ArithmeticChannel, post: int, op: str, k1: int, k2: int, k: int) -> bool:
    """The evaluator's refresh rule: whether to refresh the operand at level
    ``k`` of an ``op`` gate on levels ``k1``, ``k2``, given the post-refresh
    level ``post`` (``post_refresh_level``, computed once by the caller).
    Due when the gate would leave less headroom than ``post``, the operand
    is above ``post``, and the gate fits the budget with its operands at
    ``post``: past it, no refresh makes the gate fit."""
    out = level_after(op, k1, k2, ch)
    return ((out is None or ch.max_noise_level() - out < post) and k > post
            and level_after(op, min(k1, post), min(k2, post), ch) is not None)


def checked_refresh_level(ch: ArithmeticChannel, level: int) -> int:
    """The post-refresh level for a level-``level`` input, refused (with
    NoiseBudgetError) when the input or the output is past the budget."""
    k_star, out = _refresh_levels(ch)
    if not within_budget(ch, max(level, out)):
        raise NoiseBudgetError(
            f"refresh refused: input level {level}, accumulated level {k_star}, "
            f"post-refresh level {out}, budget {ch.max_noise_level()}"
        )
    return out


def has_refresh_headroom(ch: ArithmeticChannel, level: int, margin_num: int) -> bool:
    """The margin inequality: a located ciphertext at ``level`` whose margin
    is ``margin_num / q`` is refreshable when ``(p(level+1) - 1)/q < 1 -
    margin_num/q``, decided on integers as ``p(level+1) - 1 < q - margin_num``."""
    return ch.p * (level + 1) - 1 < ch.q - margin_num


def in_encryption_space(sk, rep, ch: ArithmeticChannel, ct: Ciphertext, m: int, k: int) -> bool:
    """Secret-side membership check for the level-``k`` space of ``m``.

    Verifies the divisibility constraint on the vector part and that the
    scalar residual evaluates to the message plus level-``k`` noise.
    """
    # Slot j's prime divides q, so it divides eval(c_j) exactly when it
    # divides the shadow's -eval(c_j) mod q.
    ps = shadow(ch, ct)
    if any(value % rep.prime_of(j) for j, value in enumerate(ps.v)):
        return False
    residual = _lifted_sum(sk.values(ch), ps) % ch.q
    return is_leveled_multiple(ch.p, k, (residual - m) % ch.q)
