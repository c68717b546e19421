"""Homomorphic operations on ciphertexts.

Addition is componentwise.  Multiplication uses the published 3-tensor to
fold the product of two secret-key contractions back into a single linear
contraction; its vector part is exactly

    c2' * c1 + c1' * c2 - contract(tensor, c1, c2)

with the scalar parts multiplied.  Level bookkeeping follows the exact
closed forms, never looser bounds.
"""

from __future__ import annotations

from .cipher import Ciphertext, level_after
from .errors import NoiseBudgetError, ParameterError
from .rings import poly_vector_dot, slot_bytes

__all__ = ["tensor_contract", "hom_add", "hom_mul", "scalar_product"]


def tensor_contract(lam, v1: tuple, v2: tuple) -> tuple:
    """Bilinear contraction sum_{i,j} t[i][j][k] * v1[i] * v2[j], per k.

    Keeps the divisibility structure: slot k of the output evaluates to a
    multiple of slot k's prime whenever the tensor does.

    The tensor is symmetric, so the ``n(n+1)/2`` packed products of
    ``lam.pairs`` suffice (see ``ProductTensor.pair_weights``); each output
    is their weighted sum on packed integers, reduced once.
    """
    n = len(lam.coeffs)
    if len(v1) != n or len(v2) != n:
        raise ParameterError("vector length does not match tensor dimension")
    ring = v1[0].ring
    if any(v.ring is not ring for v in v1) or any(v.ring is not ring for v in v2):
        raise ParameterError("polynomials belong to different rings")
    q, top = ring.q, ring.q - 1
    # Weights and D_i slots are below q and d*top^2; M_ij slots below 4*d*top^2.
    width = slot_bytes(n * (2 * n - 1) * ring.d * top**3)
    a = [ring.pack(v.coeffs, width) for v in v1]
    b = [ring.pack(v.coeffs, width) for v in v2]
    products = [
        a[i] * b[i] if i == j else (a[i] + a[j]) * (b[i] + b[j]) for i, j in lam.pairs
    ]
    return tuple(
        ring.unpack_product(sum([(w % q) * m for w, m in zip(weights, products)]), width)
        for weights in lam.pair_weights
    )


_OVERFLOW = {"add": "addition overflows the noise budget: levels {} + {}",
             "mul": "multiplication overflows the noise budget: levels {} * {}"}


def _output_level(ch, op: str, ct1: Ciphertext, ct2: Ciphertext) -> int:
    """The ``level_after`` level of ``op`` on two ciphertexts; refuses
    mismatched vector lengths and any level past the budget."""
    if len(ct1.c) != len(ct2.c):
        raise ParameterError(
            f"ciphertext vector lengths differ: {len(ct1.c)} and {len(ct2.c)}"
        )
    level = level_after(op, ct1.level, ct2.level, ch)
    if level is None:
        raise NoiseBudgetError(_OVERFLOW[op].format(ct1.level, ct2.level))
    return level


def hom_add(ch, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    level = _output_level(ch, "add", ct1, ct2)
    c = tuple(a + b for a, b in zip(ct1.c, ct2.c))
    return Ciphertext(c, ct1.cprime + ct2.cprime, level)


def hom_mul(ch, lam, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    level = _output_level(ch, "mul", ct1, ct2)
    cross = tensor_contract(lam, ct1.c, ct2.c)
    # The scalar parts act as ring coefficients on the opposite vectors.
    scalars = (ct2.cprime, ct1.cprime)
    c = tuple(
        poly_vector_dot((a, b), scalars) - x for a, b, x in zip(ct1.c, ct2.c, cross)
    )
    return Ciphertext(c, ct1.cprime * ct2.cprime, level)


def scalar_product(ch, lam, gamma: tuple, rho: tuple) -> Ciphertext:
    """Fold of componentwise products: sum_i gamma[i] * rho[i].

    Strictly left-to-right so that noise-guard failures are reported at a
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
