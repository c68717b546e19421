"""Homomorphic operations on ciphertexts.

Addition is componentwise.  Multiplication uses the published 3-tensor to
fold the product of two secret-key contractions back into a single linear
contraction; its vector part is exactly

    c2' * c1 + c1' * c2 - contract(tensor, c1, c2)

with the scalar parts multiplied.  The contraction reads the tensor's
layers, ``t[i][j][k] = sum_s alpha_s[k] * beta_s[i][j] mod q`` (one for a
key's tensor), so it is ``n`` packed products per layer.  Level
bookkeeping follows the exact closed forms, never looser bounds.

The channel's evaluation map is a ring homomorphism onto Z_q, so the
integer shadow (``cipher.shadow``) of a sum or a product is integer
arithmetic on the shadows of its operands: ``shadow_add`` and
``shadow_mul`` give the shadows of ``hom_add`` and ``hom_mul`` without a
ring product.
"""

from __future__ import annotations

import operator

from .cipher import Ciphertext, Pseudociphertext, level_after
from .errors import NoiseBudgetError, ParameterError

__all__ = ["tensor_contract", "hom_add", "hom_mul", "shadow_add", "shadow_mul", "scalar_product"]


def tensor_contract(lam, v1: tuple, v2: tuple) -> tuple:
    """Bilinear contraction sum_{i,j} t[i][j][k] * v1[i] * v2[j], per k:
    ``_product``'s vector part with zero scalar parts, negated.

    Keeps the divisibility structure: slot k of the output evaluates to a
    multiple of slot k's prime whenever the tensor does.
    """
    zero = tuple(v.ring.zero() for v in v1[:1])  # none for an empty v1, which _product refuses
    a = (*v1, *zero)
    *c, _ = _product(lam, a, a if v2 is v1 else (*v2, *zero))
    return tuple(-x for x in c)


def _product(lam, v1: tuple, v2: tuple) -> tuple:
    """The product ``(c_0..c_{n-1}, c')`` of two ciphertexts given as
    ``(c_0..c_{n-1}, c')``, in two packed passes.  The first makes per layer
    ``B = sum_i c1_i * y_i``, ``y_i = sum_j beta[i][j] * c2_j``; the second
    ``c_k = c1'*c2_k + c2'*c1_k + sum_s (-alpha_s[k] mod q) * B_s`` and
    ``c' = c1'*c2'``.  With ``v2`` the same object as ``v1`` it packs it
    once per pass and squares."""
    layers = lam.layers
    n = len(layers[0][0])
    if len(v1) != n + 1 or len(v2) != n + 1:
        raise ParameterError("vector length does not match tensor dimension")
    ring, square = v1[0].ring, v2 is v1
    if any(v.ring is not ring for v in v1) or any(v.ring is not ring for v in v2):
        raise ParameterError("polynomials belong to different rings")
    q = ring.q
    if lam.q != q:
        raise ParameterError(f"tensor modulus {lam.q} is not the ring's q = {q}")

    def layer_sums(packed):
        a, b = packed[:n], packed[-n:]
        return [sum(map(operator.mul, a, [sum(map(operator.mul, row, b)) for row in beta]))
                for _, beta in layers]

    # A coefficient of B is at most n * n * d * (q-1)^3 before reduction.
    sums = ring.layout(n * n * (q - 1)).run(v1[:n] if square else (*v1[:n], *v2[:n]), layer_sums)
    weights = list(zip(*[[-a % q for a in alpha] for alpha, _ in layers]))

    def fold(p):
        c1, p1, b = p[:n], p[n], p[len(p) - len(sums):]
        if square:
            p2, twice = p1, p1 + p1
            cross = [twice * x for x in c1]
        else:
            p2 = p[2 * n + 1]
            cross = [p2 * x + p1 * y for x, y in zip(c1, p[n + 1:2 * n + 1])]
        return [x + sum(map(operator.mul, w, b)) for x, w in zip(cross, weights)] + [p1 * p2]

    # Two products of canonical polynomials, and per layer a canonical B
    # times a weight below q.
    return ring.layout(2 + len(layers)).run((*v1, *sums) if square else (*v1, *v2, *sums), fold)


def _shadow_product(lam, q: int, v1: tuple, v2: tuple) -> tuple:
    """``_product`` pushed through the evaluation map: the shadow
    ``(v_0..v_{n-1}, v')`` of the product of two ciphertexts given by their
    shadows in that form.  With ``v = -eval(c)``, ``v_k = v1'*v2_k +
    v2'*v1_k + sum_s alpha_s[k] * (v1^T beta_s v2)`` and ``v' = v1'*v2'``,
    all mod q; the caller matches the lengths to the tensor's n."""
    *a, a_scalar = v1
    *b, b_scalar = v2
    forms = [sum(map(operator.mul, a, [sum(map(operator.mul, row, b)) for row in beta]))
             for _, beta in lam.layers]
    alphas = zip(*[alpha for alpha, _ in lam.layers])
    return (*((a_scalar * y + b_scalar * x + sum(map(operator.mul, col, forms))) % q
              for x, y, col in zip(a, b, alphas)), a_scalar * b_scalar % q)


_OVERFLOW = {"add": "addition overflows the noise budget: levels {} + {}",
             "mul": "multiplication overflows the noise budget: levels {} * {}"}


def _output_level(ch, op: str, k1: int, k2: int) -> int:
    """The ``level_after`` level of ``op`` on levels ``k1`` and ``k2``;
    refuses, with NoiseBudgetError, any level past the budget."""
    level = level_after(op, k1, k2, ch)
    if level is None:
        raise NoiseBudgetError(_OVERFLOW[op].format(k1, k2))
    return level


def _same_length(v1: tuple, v2: tuple) -> None:
    """Refuse two operands whose vector parts differ in length."""
    if len(v1) != len(v2):
        raise ParameterError(f"ciphertext vector lengths differ: {len(v1)} and {len(v2)}")


def hom_add(ch, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    _same_length(ct1.c, ct2.c)
    level = _output_level(ch, "add", ct1.level, ct2.level)
    c = tuple(a + b for a, b in zip(ct1.c, ct2.c))
    return Ciphertext(c, ct1.cprime + ct2.cprime, level)


def hom_mul(ch, lam, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    _same_length(ct1.c, ct2.c)
    level = _output_level(ch, "mul", ct1.level, ct2.level)
    v1 = (*ct1.c, ct1.cprime)
    v2 = v1 if ct2 is ct1 else (*ct2.c, ct2.cprime)
    *c, cprime = _product(lam, v1, v2)
    return Ciphertext(tuple(c), cprime, level)


def shadow_add(ch, ps1: Pseudociphertext, ps2: Pseudociphertext) -> Pseudociphertext:
    """The shadow of ``hom_add`` of two ciphertexts, from their shadows,
    refused as ``hom_add`` refuses the ciphertexts."""
    _same_length(ps1.v, ps2.v)
    level = _output_level(ch, "add", ps1.level, ps2.level)
    q = ch.q
    return Pseudociphertext(tuple((a + b) % q for a, b in zip(ps1.v, ps2.v)),
                            (ps1.vprime + ps2.vprime) % q, level)


def shadow_mul(ch, lam, ps1: Pseudociphertext, ps2: Pseudociphertext) -> Pseudociphertext:
    """The shadow of ``hom_mul`` of two ciphertexts, from their shadows
    (``_shadow_product``), refused as ``hom_mul`` refuses the ciphertexts."""
    _same_length(ps1.v, ps2.v)
    level = _output_level(ch, "mul", ps1.level, ps2.level)
    if len(ps1.v) != len(lam.layers[0][0]):
        raise ParameterError("vector length does not match tensor dimension")
    if lam.q != ch.q:
        raise ParameterError(f"tensor modulus {lam.q} is not the ring's q = {ch.q}")
    *v, vprime = _shadow_product(lam, ch.q, (*ps1.v, ps1.vprime), (*ps2.v, ps2.vprime))
    return Pseudociphertext(tuple(v), vprime, level)


def scalar_product(ch, lam, gamma: tuple, rho: tuple) -> Ciphertext:
    """Fold of componentwise products: sum_i gamma[i] * rho[i].

    Strictly left-to-right so that a noise-guard refusal is raised at a
    deterministic step.
    """
    if len(gamma) != len(rho):
        raise ParameterError("scalar product needs equal-length tuples")
    if not gamma:
        raise ParameterError("scalar product of empty tuples")
    acc = None
    for step, (g, r) in enumerate(zip(gamma, rho)):
        try:
            term = hom_mul(ch, lam, g, r)
            acc = term if acc is None else hom_add(ch, acc, term)
        except NoiseBudgetError as exc:
            raise NoiseBudgetError(f"scalar product step {step}: {exc}") from exc
    return acc
