"""Toy classical schemes run through the same four-step protocol skeleton.

Both toys (multiplicative-group ElGamal and textbook RSA) and the main
polynomial scheme expose the identical generate / publish / encrypt /
decrypt driver, which makes them useful conformance cross-checks: the
protocol shape is shared even though the underlying algebra differs.

Toy parameters only; nothing here is sized for security.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "ToyGroupParams",
    "elgamal_keygen",
    "elgamal_encrypt",
    "elgamal_decrypt",
    "rsa_keygen",
    "rsa_encrypt",
    "rsa_decrypt",
    "ElGamalScheme",
    "RsaScheme",
    "AcesScheme",
    "run_protocol",
]


def _multiplicative_order(g: int, modulus: int) -> int:
    acc, order = g % modulus, 1
    while acc != 1:
        acc = (acc * g) % modulus
        order += 1
        if order > modulus:
            raise ParameterError(f"{g} has no multiplicative order mod {modulus}")
    return order


@dataclass(frozen=True)
class ToyGroupParams:
    modulus: int
    generator: int
    order: int

    @staticmethod
    def make(modulus: int, generator: int) -> "ToyGroupParams":
        if generator % modulus in (0, 1):
            raise ParameterError("generator must differ from the neutral element")
        return ToyGroupParams(
            modulus, generator, _multiplicative_order(generator, modulus)
        )


# -- ElGamal: f = g^x, ciphertext (g^h, f^h * m) ---------------------------


def elgamal_keygen(params: ToyGroupParams, x: int) -> int:
    return pow(params.generator, x, params.modulus)


def elgamal_encrypt(params: ToyGroupParams, f: int, m: int, h: int):
    if math.gcd(m, params.modulus) != 1:
        raise ParameterError(f"message {m} is not in the group mod {params.modulus}")
    c1 = pow(params.generator, h, params.modulus)
    c2 = (pow(f, h, params.modulus) * m) % params.modulus
    return c1, c2


def elgamal_decrypt(params: ToyGroupParams, x: int, ct) -> int:
    c1, c2 = ct
    shared_inv = pow(pow(c1, x, params.modulus), -1, params.modulus)
    return (shared_inv * c2) % params.modulus


# -- RSA: c = m^e mod n, recovered with the inverse exponent ---------------


def rsa_keygen(prime_a: int, prime_b: int, exponent: int):
    """Returns (n, e, d) with d the inverse of e mod the Carmichael totient."""
    n = prime_a * prime_b
    totient = math.lcm(prime_a - 1, prime_b - 1)
    if math.gcd(exponent, totient) != 1:
        raise ParameterError(f"exponent {exponent} is not invertible mod {totient}")
    return n, exponent, pow(exponent, -1, totient)


def rsa_encrypt(n: int, e: int, m: int) -> int:
    if not 0 <= m < n:
        raise ParameterError(f"message {m} out of range")
    return pow(m, e, n)


def rsa_decrypt(n: int, d: int, ct: int) -> int:
    return pow(ct, d, n)


# -- the shared four-step driver -------------------------------------------


class ElGamalScheme:
    name = "elgamal"

    def __init__(self, params: ToyGroupParams):
        self.params = params

    def generate(self, rng):
        return {"secret": rng.between(1, self.params.order - 1)}

    def publish(self, state):
        return {"f": elgamal_keygen(self.params, state["secret"])}

    def encrypt(self, published, m, rng):
        h = rng.between(0, self.params.order - 1)
        return elgamal_encrypt(self.params, published["f"], m, h)

    def decrypt(self, state, ct):
        return elgamal_decrypt(self.params, state["secret"], ct)

    def messages(self):
        """Every valid plaintext, for exhaustive roundtrips."""
        return [
            m
            for m in range(1, self.params.modulus)
            if math.gcd(m, self.params.modulus) == 1
        ]


class RsaScheme:
    name = "rsa"

    def __init__(self, prime_a: int, prime_b: int, exponent: int):
        self.n, self.e, self._d = rsa_keygen(prime_a, prime_b, exponent)

    def generate(self, rng):
        return {"secret": self._d}

    def publish(self, state):
        return {"n": self.n, "e": self.e}

    def encrypt(self, published, m, rng):
        return rsa_encrypt(published["n"], published["e"], m)

    def decrypt(self, state, ct):
        return rsa_decrypt(self.n, state["secret"], ct)

    def messages(self):
        return [m for m in range(self.n) if math.gcd(m, self.n) == 1]


class AcesScheme:
    """The polynomial scheme behind the same driver interface."""

    name = "aces"

    def __init__(self, channel):
        self.channel = channel

    def generate(self, rng):
        from .keygen import keygen

        return {"bundle": keygen(self.channel, rng)}

    def publish(self, state):
        bundle = state["bundle"]
        return {"public": bundle.public}

    def encrypt(self, published, m, rng):
        from .cipher import encrypt

        return encrypt(published["public"], self.channel, m, rng)

    def decrypt(self, state, ct):
        from .cipher import decrypt

        return decrypt(state["bundle"].secret, self.channel, ct)

    def messages(self):
        return list(range(self.channel.p))


def run_protocol(scheme, m, rng):
    """Drive one generate -> publish -> encrypt -> decrypt pass.

    Returns the recovered plaintext and a replayable transcript of every
    step's payload.
    """
    transcript = []
    state = scheme.generate(rng)
    transcript.append(("generate", repr(state)))
    published = scheme.publish(state)
    transcript.append(("publish", repr(published)))
    ct = scheme.encrypt(published, m, rng)
    transcript.append(("encrypt", repr(ct)))
    recovered = scheme.decrypt(state, ct)
    transcript.append(("decrypt", repr(recovered)))
    return recovered, transcript
