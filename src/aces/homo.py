"""Homomorphic operations on ciphertexts.

Addition is componentwise.  Multiplication uses the published 3-tensor to
fold the product of two secret-key contractions back into a single linear
contraction; its vector part is exactly

    c2' * c1 + c1' * c2 - contract(tensor, c1, c2)

with the scalar parts multiplied, all computed as one contraction of the
ciphertexts extended by their scalar slot (``ProductTensor.extended``).
Level bookkeeping follows the exact closed forms, never looser bounds.
"""

from __future__ import annotations

import operator

from .cipher import Ciphertext, level_after
from .errors import NoiseBudgetError, ParameterError

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
    q = ring.q
    # Weights below q on n products D_i and n(n-1)/2 M_ij (four products each).
    layout = ring.width(n * (2 * n - 1) * (q - 1))
    weights = [[w % q for w in row] for row in lam.pair_weights]
    packed1 = ring.pack(v1, layout)
    packed2 = packed1 if v2 is v1 else ring.pack(v2, layout)
    sums = []
    for a, b in zip(packed1, packed2):
        if a is b:
            products = [a[i] * a[i] if i == j else (a[i] + a[j]) ** 2 for i, j in lam.pairs]
        else:
            products = [
                a[i] * b[i] if i == j else (a[i] + a[j]) * (b[i] + b[j]) for i, j in lam.pairs
            ]
        sums.append([sum(map(operator.mul, row, products)) for row in weights])
    return ring.unpack(sums, layout)


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
    v1 = (*ct1.c, ct1.cprime)
    v2 = v1 if ct2 is ct1 else (*ct2.c, ct2.cprime)
    *c, cprime = tensor_contract(lam.extended, v1, v2)
    return Ciphertext(tuple(c), cprime, level)


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
