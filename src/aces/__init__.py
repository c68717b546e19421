"""Noise-tracked fully homomorphic encryption over quotient polynomial rings.

Public surface: channel parameters and samplers, key generation, encryption
and decryption, the homomorphic algebra, refresh without bootstrapping, and
an arithmetic-circuit evaluator with automatic refresh scheduling.
"""

from .channel import ArithmeticChannel, RandomSource
from .cipher import Ciphertext, decrypt, encrypt, encrypt_with_secret, level_after
from .circuit import Circuit, RefreshPolicy, evaluate, parse_circuit
from .errors import AcesError, CircuitError, GenerationError, NoiseBudgetError, ParameterError
from .homo import hom_add, hom_mul, scalar_product, tensor_contract
from .keygen import KeyBundle, keygen
from .refresh import EvalKeys, refresh_ct
from .rings import Repartition, Ring, RingPoly

__all__ = [
    "ArithmeticChannel",
    "RandomSource",
    "Ciphertext",
    "encrypt",
    "encrypt_with_secret",
    "decrypt",
    "level_after",
    "hom_add",
    "hom_mul",
    "scalar_product",
    "tensor_contract",
    "KeyBundle",
    "keygen",
    "refresh_ct",
    "Circuit",
    "parse_circuit",
    "evaluate",
    "EvalKeys",
    "RefreshPolicy",
    "Ring",
    "RingPoly",
    "Repartition",
    "AcesError",
    "ParameterError",
    "NoiseBudgetError",
    "GenerationError",
    "CircuitError",
]
