"""Exact modular arithmetic kernels.

Everything here is computed over plain Python integers, which are exact at
any width.  Residues mod ``m`` are represented canonically as ints in
``[0, m)``; the helpers below validate that convention instead of wrapping
every value in an object.

Three layers live in this module:

* the lift/reduce maps between ``Z_m`` and ``Z`` (and the quotient/remainder
  split used by decryption),
* the quotient ring ``Z_q[X]/(u)`` for a monic ``u`` (one shared ``Ring``
  object per ``(q, u)``) and its elements; products are computed exactly
  by Kronecker substitution on packed integers,
* repartitions: assignments of the prime factors of ``q`` to key slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

# Trial division is all we ever need: moduli are built as products of small
# distinct primes and stay far below this cap.
FACTOR_CAP = 1 << 62


def lift(m: int, value: int) -> int:
    """Lift a canonical residue mod ``m`` to a plain integer.

    The inclusion Z_m -> Z: the result is the same integer, now read without
    modular wrap-around.  Rejects non-canonical input instead of guessing.
    """
    if m < 2:
        raise ParameterError(f"modulus must be >= 2, got {m}")
    if not 0 <= value < m:
        raise ParameterError(f"{value} is not a canonical residue mod {m}")
    return value


def reduce_mod(m: int, value: int) -> int:
    """Reduce an integer to its canonical residue in ``[0, m)``.

    This direction is a ring homomorphism; the lift above is not.
    """
    if m < 2:
        raise ParameterError(f"modulus must be >= 2, got {m}")
    return value % m


def lift_divmod(p: int, q: int, value: int) -> tuple[int, int]:
    """Split the lift of ``value`` (a residue mod q) into base-p digits.

    Returns ``(quotient, remainder)`` with ``lift(q, value) == p*quotient +
    remainder`` and ``0 <= remainder < p``.  The quotient is the amount of
    p-noise riding on a message, the remainder the message itself.
    """
    if p > q:
        raise ParameterError(f"expected p <= q, got p={p} q={q}")
    z = lift(q, value)
    return z // p, z % p


def is_leveled_multiple(p: int, k: int, z: int) -> bool:
    """Whether ``z`` lies in ``{0, p, 2p, ..., kp}``.

    This is the target set for noise values at level ``k``: a multiple of the
    plaintext modulus, bounded by ``k`` steps.
    """
    return z >= 0 and z % p == 0 and z <= k * p


def factorize(q: int) -> list[int]:
    """Distinct prime factors of ``q`` in increasing order, by trial division.

    Moduli are chosen smooth by construction, so no general-purpose
    factorization is needed; the cap guards against misuse.
    """
    if q < 2:
        raise ParameterError(f"cannot factor {q}")
    if q >= FACTOR_CAP:
        raise ParameterError(f"modulus too large for trial division: {q}")
    primes = []
    rest = q
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        primes.append(rest)
    return primes


def slot_bytes(bound: int) -> int:
    """Bytes per Kronecker slot that hold any value in ``[0, bound]``."""
    return (bound.bit_length() + 7) // 8


# One Ring per (q, u), built and validated on first use.  Interning is what
# lets polynomials compare rings by identity; a Ring never changes value (its
# power table is a cache derived from q and u), so sharing it is safe.
_RINGS: dict = {}


class Ring:
    """The quotient ring Z_q[X]/(u), for a monic ``u`` of degree ``d >= 2``.

    ``Ring(q, u)`` validates ``(q, u)`` once and returns the same object for
    every later call with equal arguments, so two polynomials belong to the
    same ring exactly when they hold the same ``Ring``.  The ring owns the
    two kernels every product goes through:

    * Kronecker packing: a coefficient vector becomes one integer with a
      byte-aligned slot per coefficient.  When the slots are wide enough for
      the largest coefficient of the result, a polynomial product, or a
      whole weighted sum of products, is exact big-integer arithmetic on the
      packed integers, with no carry crossing a slot boundary.
    * Reduction by ``u``: a binomial ``u = X^d + u_0`` folds the part above
      degree ``d - 1`` in as ``lo[i] - u_0 * hi[i]``; any other ``u`` adds
      ``hi[k] * (X^(d+k) mod u)`` from a table grown on demand.
    """

    __slots__ = ("q", "u", "d", "mul_bytes", "_fold", "_powers")

    def __new__(cls, q: int, u):
        try:
            return _RINGS[q, u]
        except (KeyError, TypeError):  # first use, or ``u`` not a tuple of ints
            pass
        u = tuple(int(c) for c in u)
        ring = _RINGS.get((q, u))
        if ring is None:
            ring = super().__new__(cls)
            ring._setup(q, u)
            _RINGS[q, u] = ring
        return ring

    def _setup(self, q: int, u: tuple[int, ...]) -> None:
        if q < 2:
            raise ParameterError(f"coefficient modulus must be >= 2, got {q}")
        if len(u) < 3:
            raise ParameterError("modulus polynomial must have degree >= 2")
        if u[-1] != 1:
            raise ParameterError("modulus polynomial must be monic")
        d = len(u) - 1
        self.q, self.u, self.d = q, u, d
        # A product of two canonical polynomials has coefficients <= d(q-1)^2.
        self.mul_bytes = slot_bytes(d * (q - 1) ** 2)
        binomial = all(c % q == 0 for c in u[1:d])
        self._fold = (-u[0]) % q if binomial else None
        self._powers: list[list[int]] = []  # X^(d+k) mod u, k = 0, 1, ...

    def __repr__(self) -> str:
        return f"Ring(q={self.q}, u={self.u})"

    def __reduce__(self):
        return Ring, (self.q, self.u)

    def zero(self) -> "RingPoly":
        return _wrap(self, (0,) * self.d)

    def poly(self, coeffs) -> "RingPoly":
        """The element with arbitrary integer coefficients, reduced."""
        return _wrap(self, self.reduce([int(c) for c in coeffs]))

    def reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Canonical coefficients of an integer polynomial of any length."""
        d, q = self.d, self.q
        work = list(coeffs)
        if len(work) > d:
            if self._fold is not None:
                fold = self._fold
                # X^(d+i) = fold * X^i; top-down, so a folded term that still
                # sits at degree >= d is folded again.
                for i in range(len(work) - 1, d - 1, -1):
                    work[i - d] += fold * work[i]
            else:
                for high, power in zip(work[d:], self._power_table(len(work) - d)):
                    if high:
                        for i, c in enumerate(power):
                            work[i] += high * c
            del work[d:]
        else:
            work += [0] * (d - len(work))
        return tuple([c % q for c in work])

    def _power_table(self, count: int) -> list[list[int]]:
        """``X^(d+k) mod u`` for ``k < count``, each as ``d`` coefficients."""
        q, d, u, powers = self.q, self.d, self.u, self._powers
        if len(powers) < count:
            # Extend a copy and publish it whole: the ring is shared, and a
            # reader must never see a half-built table.
            powers = list(powers)
            while len(powers) < count:
                if powers:
                    # X * X^(d+k-1): shift up, then replace X^d by -(u_0 + ...).
                    prev = powers[-1]
                    top = prev[-1]
                    row = [(c - top * uc) % q for c, uc in zip([0] + prev[:-1], u)]
                else:
                    row = [(-c) % q for c in u[:d]]
                powers.append(row)
            self._powers = powers
        return powers

    def pack(self, coeffs, width: int) -> int:
        """Kronecker-pack non-negative coefficients into ``width``-byte slots."""
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")

    def unpack_product(self, value: int, width: int) -> "RingPoly":
        """The element whose unreduced coefficients are the ``2d - 1`` slots of
        ``value``: a packed product, or a sum of them, reduced once."""
        data = value.to_bytes((2 * self.d - 1) * width, "little")
        slots = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
        return _wrap(self, self.reduce(slots))


_new = object.__new__
_set = object.__setattr__


def _wrap(ring: Ring, coeffs: tuple[int, ...]) -> "RingPoly":
    """A RingPoly from coefficients that are canonical by construction."""
    poly = _new(RingPoly)
    _set(poly, "ring", ring)
    _set(poly, "coeffs", coeffs)
    return poly


class RingPoly:
    """An element of Z_q[X] reduced by a monic polynomial ``u``.

    ``coeffs`` always has length ``deg(u)`` with entries canonical in
    ``[0, q)``; the zero polynomial is the all-zero tuple.  ``ring`` is the
    shared ``Ring(q, u)``: operations between polynomials from different
    rings are rejected.  ``RingPoly(q, u, coeffs)`` accepts canonical
    coefficients only; ``make`` reduces arbitrary integers.  Instances are
    immutable.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, q: int, u, coeffs):
        ring = Ring(q, u)
        coeffs = tuple(coeffs)
        if len(coeffs) != ring.d:
            raise ParameterError(f"expected {ring.d} coefficients, got {len(coeffs)}")
        if min(coeffs) < 0 or max(coeffs) >= q:
            raise ParameterError(f"coefficients must be canonical residues mod {q}")
        _set(self, "ring", ring)
        _set(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"RingPoly is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RingPoly is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, RingPoly):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self) -> str:
        return f"RingPoly(q={self.q}, u={self.u}, coeffs={self.coeffs})"

    def __reduce__(self):
        return RingPoly, (self.ring.q, self.ring.u, self.coeffs)

    @property
    def q(self) -> int:
        return self.ring.q

    @property
    def u(self) -> tuple[int, ...]:
        return self.ring.u

    @staticmethod
    def make(q: int, u: tuple[int, ...], coeffs) -> "RingPoly":
        """Build a canonical element from arbitrary integer coefficients."""
        return Ring(q, u).poly(coeffs)

    @staticmethod
    def zero(q: int, u: tuple[int, ...]) -> "RingPoly":
        return Ring(q, u).zero()

    @staticmethod
    def constant(q: int, u: tuple[int, ...], value: int) -> "RingPoly":
        return Ring(q, u).poly([value])

    def _check_same_ring(self, other: "RingPoly") -> None:
        if other.ring is not self.ring:
            raise ParameterError("polynomials belong to different rings")

    def __add__(self, other: "RingPoly") -> "RingPoly":
        self._check_same_ring(other)
        q = self.ring.q
        return _wrap(self.ring, tuple([(a + b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other: "RingPoly") -> "RingPoly":
        self._check_same_ring(other)
        q = self.ring.q
        return _wrap(self.ring, tuple([(a - b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "RingPoly":
        q = self.ring.q
        return _wrap(self.ring, tuple([(-a) % q for a in self.coeffs]))

    def __mul__(self, other: "RingPoly") -> "RingPoly":
        """Kronecker substitution: one big-integer multiply, reduced once."""
        self._check_same_ring(other)
        ring = self.ring
        width = ring.mul_bytes
        a = ring.pack(self.coeffs, width)
        b = a if other is self else ring.pack(other.coeffs, width)
        return ring.unpack_product(a * b, width)

    def scale(self, value: int) -> "RingPoly":
        """Multiply by an integer scalar."""
        q = self.ring.q
        v = value % q
        return _wrap(self.ring, tuple([(a * v) % q for a in self.coeffs]))

    def eval_at(self, point: int) -> int:
        """Evaluate at an integer point over the non-negative representatives,
        reduced mod q.  Horner over Z would overflow nothing here; mod-q
        arithmetic gives the identical result."""
        q = self.ring.q
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * point + c) % q
        return acc

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def poly_vector_dot(vec_a: tuple, vec_b: tuple) -> RingPoly:
    """Dot product of two equal-length RingPoly vectors.

    The products are summed on packed integers and reduced once.
    """
    if len(vec_a) != len(vec_b):
        raise ParameterError("vector length mismatch")
    if not vec_a:
        raise ParameterError("empty vectors have no dot product")
    ring = vec_a[0].ring
    if any(v.ring is not ring for v in vec_a) or any(v.ring is not ring for v in vec_b):
        raise ParameterError("polynomials belong to different rings")
    width = slot_bytes(len(vec_a) * ring.d * (ring.q - 1) ** 2)
    pack = ring.pack
    total = sum(pack(a.coeffs, width) * pack(b.coeffs, width) for a, b in zip(vec_a, vec_b))
    return ring.unpack_product(total, width)


@dataclass(frozen=True)
class Repartition:
    """Assignment of the prime factors of ``q`` to the ``n`` key slots.

    ``primes`` are the distinct prime factors of ``q`` in increasing order,
    ``assignment[i]`` is either 0 (the conventional factor 1) or a 1-based
    index into ``primes``.  Slot indices below are 0-based.
    """

    q: int
    primes: tuple[int, ...]
    assignment: tuple[int, ...]

    def __post_init__(self):
        prod = math.prod(self.primes)
        if self.q % prod != 0:
            raise ParameterError("listed primes do not divide the modulus")
        for v in self.assignment:
            if not 0 <= v <= len(self.primes):
                raise ParameterError(f"assignment value {v} out of range")

    @staticmethod
    def sample(q: int, n: int, rng) -> "Repartition":
        """Uniform assignment over functions [n] -> {0, ..., n0}."""
        primes = tuple(factorize(q))
        assignment = tuple(rng.below(len(primes) + 1) for _ in range(n))
        return Repartition(q, primes, assignment)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def prime_of(self, i: int) -> int:
        """The factor attached to slot ``i`` (1 for the index 0)."""
        v = self.assignment[i]
        return 1 if v == 0 else self.primes[v - 1]

    def weight(self, i: int, j: int) -> int:
        """The modulus divided by the primes of slots ``i`` and ``j``.

        When both slots carry the same factor it is divided out once only.
        """
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ParameterError(f"slot index out of range: ({i}, {j})")
        if self.assignment[i] == self.assignment[j]:
            return self.q // self.prime_of(i)
        return self.q // (self.prime_of(i) * self.prime_of(j))
