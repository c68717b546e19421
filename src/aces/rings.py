"""Exact modular arithmetic kernels.

Everything here is computed over plain Python integers, which are exact at
any width.  Residues mod ``m`` are represented canonically as ints in
``[0, m)``; the helpers below validate that convention instead of wrapping
every value in an object.

Three layers live in this module:

* the lift/reduce maps between ``Z_m`` and ``Z`` (and the quotient/remainder
  split of a lifted decryption residual),
* the quotient ring ``Z_q[X]/(u)`` for a monic ``u`` (one shared ``Ring``
  object per ``(q, u)``) and its elements, and the ring's Kronecker layouts
  (``Layout``, from ``Ring.layout``): each owns a kernel's packing, its
  arithmetic per point and its decoding, so products are computed exactly
  by Kronecker substitution on packed integers, and a fixed matrix is kept
  packed (``PackedRows``) for the combinations of its rows.  Operands are
  packed at one point, ``2^(8w)``, except large ones for ``u = X^d - 1`` of
  even degree: those are evaluated at the two points ``+-2^(8w')`` with
  half-width slots (D. Harvey, "Faster polynomial multiplication via
  multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009), each
  cut into its residues mod ``2^m + 1`` and ``2^(m/2) +- 1`` (the radix-2
  step of Schoenhage and Strassen, Computing 7, 1971): six points, three
  per sign, whose moduli multiply to ``x^d - 1``.  Reduction by ``u`` is a
  long division.  The one-point decode folds the part from degree ``d`` up
  onto the low part for a cyclic ``u`` and through that division for any
  other; the six-point decode rebuilds the output already folded,
* repartitions: assignments of the prime factors of ``q`` to key slots.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import NamedTuple

from .errors import ParameterError

# The largest q: every residue below it fits 64 bits (``Ring.bits``, a
# file's field) and an 8-byte word (``Ring.word``, a Kronecker slot's
# start), and ``factorize`` is exact up to it.  ``factorize`` takes primes
# below ``_TRIAL`` by trial division: every benchmark modulus is a product
# of such primes.
MAX_Q, _TRIAL = 1 << 64, 1 << 10

# One-point operand size (d slots, in bytes) from which a kernel of a cyclic
# u of even degree evaluates at six points instead of one.  Six points over
# one, CPython 3.11 on a 2-vCPU Xeon, median of 21 interleaved batches at
# d = 32/40 (57-bit q) and 40/48 (42-bit), either side of 512 B:
# ``PackedRows.combine`` (5 x 7) 0.60-0.82, ``RingPoly.__mul__`` 1.09-1.34,
# ``tensor_contract`` (n = 7) 0.96-1.29; at d = 64 and 57 bits 0.52, 0.84
# and 0.80.
SIX_POINT_BYTES = 512

# Residue word width in bytes -> its struct code (little-endian, unsigned).
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}


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
    """Distinct prime factors of ``q`` in increasing order: trial division
    below ``_TRIAL``, then Miller-Rabin and Pollard's rho on the rest; ``q``
    is at most ``MAX_Q``."""
    if q < 2:
        raise ParameterError(f"cannot factor {q}")
    if q > MAX_Q:
        raise ParameterError(f"modulus too large to factor: {q} is above 2**64")
    primes, rest, d = [], q, 2
    while d < _TRIAL and d * d <= rest:
        while rest % d == 0:
            primes.append(d)
            rest //= d
        d += 1 if d == 2 else 2
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL * _TRIAL or _is_prime(m):
            primes.append(m)
        else:
            stack += [f := _rho(m), m // f]
    return sorted(set(primes))


def _is_prime(n: int) -> bool:
    """Miller-Rabin for an odd ``n > 37``, exact with these twelve bases
    below 3.18 * 10^23 (Sorenson and Webster, 2017), far above ``MAX_Q``."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    odd = (n - 1) >> s
    return all(pow(a, odd, n) == 1 or n - 1 in {pow(a, odd << i, n) for i in range(s)}
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def _rho(n: int) -> int:
    """A proper factor of an odd composite ``n``: Pollard's rho, Brent's cycle
    search on ``x -> x^2 + c`` from ``x = 2`` for ``c = 1, 2, ...``."""
    for c in count(1):
        x, y, power, steps = 2, (4 + c) % n, 1, 1
        while (g := math.gcd(x - y, n)) == 1:
            if steps == power:
                x, power, steps = y, 2 * power, 0
            y, steps = (y * y + c) % n, steps + 1
        if g != n:
            return g


def _int_coeffs(coeffs, what: str = "polynomial coefficients") -> tuple[int, ...]:
    """``coeffs`` as a tuple; a float or a bool is refused, never truncated,
    with ``what`` named in the error."""
    coeffs = tuple(coeffs)
    if any(type(c) is not int for c in coeffs):
        raise ParameterError(f"{what}: expected integers, got {coeffs}")
    return coeffs


# The prime factors of each q, factorized on first use (``prime_factors``).
# ``factorize`` is pure for every q it takes, and a refusal raises before
# anything is stored.
_PRIMES: dict = {}


def prime_factors(q: int) -> tuple[int, ...]:
    """``factorize(q)`` as a tuple, factorized once per process."""
    primes = _PRIMES.get(q)
    if primes is None:
        primes = _PRIMES[q] = tuple(factorize(q))
    return primes


# One Ring per (q, u), built and validated on first use.  Interning is what
# lets polynomials compare rings by identity; nothing is written to a Ring
# after ``_setup``, so sharing it is safe.
_RINGS: dict = {}


class Ring:
    """The quotient ring Z_q[X]/(u), for a monic ``u`` of degree ``d >= 2``.

    ``Ring(q, u)`` validates ``(q, u)`` once and returns the same object for
    every later call with equal arguments, so two polynomials belong to the
    same ring exactly when they hold the same ``Ring``.  It holds the
    residue width ``bits``, the bit length of ``q - 1``, which is the width
    of every residue field of a file (``serial``), and the residue word
    (``word``): the smallest of 1, 2, 4 or 8 bytes that holds ``q - 1``,
    which every Kronecker slot (``Layout``) starts from, so ``q`` is at
    most ``2**64``.  ``layout`` picks the Kronecker layout a kernel call
    runs on.

    Reduction by ``u``: ``reduce`` divides by ``u`` top-down, one
    multiply-add per nonzero lower coefficient of ``u`` mod q.  The
    one-point decode (``Layout.unpack``) cuts each output at degree ``d``
    and folds the high part onto the low part as big integers for a cyclic
    ``u``, and through ``reduce`` for any other; the six points give the
    output already folded by ``X^d = 1``.
    """

    __slots__ = ("q", "u", "d", "bits", "word", "_tail", "_cyclic")

    def __new__(cls, q: int, u):
        (q,), u = _int_coeffs((q,), "coefficient modulus"), _int_coeffs(u)
        ring = _RINGS.get((q, u))
        if ring is None:
            ring = super().__new__(cls)
            ring._setup(q, u)
            _RINGS[q, u] = ring
        return ring

    def _setup(self, q: int, u: tuple[int, ...]) -> None:
        if q < 2:
            raise ParameterError(f"coefficient modulus must be >= 2, got {q}")
        if q > MAX_Q:
            raise ParameterError(f"q = {q} is above 2**64: no word holds its residues")
        if len(u) < 3:
            raise ParameterError("modulus polynomial must have degree >= 2")
        if u[-1] != 1:
            raise ParameterError("modulus polynomial must be monic")
        d = len(u) - 1
        self.q, self.u, self.d, self.bits = q, u, d, (q - 1).bit_length()
        # The struct code and byte width of one residue in a Kronecker slot.
        self.word = next((code, size) for size, code in _WORDS.items() if q - 1 < 1 << 8 * size)
        # X^d mod (q, u): a term c * X^i for each nonzero lower coefficient of u.
        self._tail = tuple([(i, (-c) % q) for i, c in enumerate(u[:d]) if c % q])
        self._cyclic = self._tail == ((0, 1),)  # X^d = 1

    def __repr__(self) -> str:
        return f"Ring(q={self.q}, u={self.u})"

    def __reduce__(self):
        return Ring, (self.q, self.u)

    def layout(self, terms: int) -> "Layout":
        """The Kronecker layout for a sum of ``terms`` products of canonical
        polynomials, each coefficient of one at most ``d(q-1)^2``: a bound
        ``B`` of ``bits`` bits.

        One point, with slots of ``w = ceil(bits/8)`` bytes, unless ``u`` is
        cyclic of even degree and the packed operand, ``d`` such slots,
        reaches ``SIX_POINT_BYTES``: then six points, with half slots of
        ``w = max(ceil(bits/16), word)`` bytes.  Either way ``Layout.unpack``
        reads coefficients at most ``B`` (for a cyclic ``u``, each a sum of
        ``d`` products): at one point in slots of ``w`` bytes, at six from
        residues mod ``z^(d/2) - 1`` in slots of base ``z = 2^(16w) > B``,
        which is exact: each half holds ``d/2`` of them, none ``z - 1``
        (``B`` is even, as ``d`` is), so its value lies below that modulus.
        No slot needs more room.

        Every slot holds a residue word (``Layout.pack``).  At six points the
        ``max`` sees to it.  At one point it always does: for a ``b``-bit
        ``q - 1``, ``B >= 2 (q-1)^2 >= 2^(2b-1)`` (``d >= 2``), so ``bits >=
        2b`` and ``w >= ceil(b/4)``.  That is at least 1, 3, 5 or 9 bytes
        where the word is 1 (``b <= 8``), 2 (``b <= 16``), 4 (``b <= 32``)
        or 8 bytes (``b <= 64``): never less than the word.
        """
        bits = (terms * self.d * (self.q - 1) ** 2).bit_length()
        width = (bits + 7) // 8
        if self.d * width >= SIX_POINT_BYTES and self._cyclic and self.d % 2 == 0:
            return _layout(Layout, (self, 6, max((bits + 15) // 16, self.word[1])))
        return _layout(Layout, (self, 1, width))

    def zero(self) -> "RingPoly":
        return _wrap(self, (0,) * self.d)

    def poly(self, coeffs) -> "RingPoly":
        """The element with arbitrary integer coefficients, reduced."""
        return _wrap(self, self.reduce(_int_coeffs(coeffs)))

    def reduce(self, coeffs) -> tuple[int, ...]:
        """Canonical coefficients of an integer polynomial of any length: long
        division by ``u``, top-down, each ``X^(d+k)`` replaced by ``X^k``
        times ``X^d mod u``."""
        d, q, tail, work = self.d, self.q, self._tail, list(coeffs)
        while len(work) > d:
            top, base = work.pop() % q, len(work) - d
            for i, c in tail:
                work[base + i] += c * top
        work += [0] * (d - len(work))
        return tuple([c % q for c in work])


class Layout(NamedTuple):
    """A Kronecker layout of ``ring`` (``Ring.layout``): ``points``, 1 or 6,
    and slot bytes ``width``.  It owns a kernel's packing, its arithmetic per
    point and its decoding (``run``).

    Kronecker packing: a coefficient vector becomes one integer with a
    byte-aligned slot per coefficient, its value at ``x = 2^(8w)``; each slot
    starts with the coefficient's residue word (``Ring.word``).  When the
    slots are wide enough for the largest coefficient of the result, a
    polynomial product, or a whole weighted sum of products, is exact
    big-integer arithmetic on the packed integers, with no carry crossing a
    slot boundary.  The layout has this one point, except for a cyclic ``u``
    of even degree once the packed operand reaches ``SIX_POINT_BYTES``: then
    the six residues of the two points ``x`` and ``-x``, with ``w`` about
    half as wide (``pack``).  A kernel runs its arithmetic once per point,
    each a ring homomorphism of Z[X], and every product multiplies integers
    of a half and a quarter of the size: cheaper above the switch, and
    dearer below it, where packing and decoding six times cost more than the
    smaller multiplies save.
    """

    ring: Ring
    points: int
    width: int

    def run(self, polys, kernel, *per_point) -> tuple["RingPoly", ...]:
        """The outputs of a kernel on ``polys``: ``kernel`` maps the packed
        values of ``polys`` at one point (and that point's item of each
        ``per_point``) to its packed outputs, and ``unpack`` decodes them."""
        return self.unpack(list(map(kernel, self.pack(polys), *per_point)))

    def pack(self, polys) -> list[list[int]]:
        """Per point, the packed value of each element of ``polys``.

        At one point, ``x = 2^(8w)`` for ``w``-byte slots: the canonical
        coefficients, each its residue word (``Ring.word``) zero-padded to
        the slot, which ``Ring.layout`` makes at least a word wide, all
        written by one ``struct.pack``.  At six, that value and the one at
        ``-x``, the first minus twice its odd-index coefficients (which a
        byte mask picks out), are each cut into three residues: ``V = lo +
        hi 2^m`` (``2m`` bits) gives ``lo - hi`` (mod ``2^m + 1``), and ``W
        = lo + hi`` cut the same way at ``m/2`` gives ``W_lo - W_hi`` and
        ``W_lo + W_hi`` (mod ``2^(m/2) +- 1``).
        """
        ring, points, width = self
        (code, word), size = ring.word, ring.d * width
        data = struct.pack("<" + f"{code}{width - word}x" * (len(polys) * ring.d),
                           *[c for x in polys for c in x.coeffs])
        plus = [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
        if points == 1:
            return [plus]
        odd = int.from_bytes((bytes(width) + b"\xff" * width) * (ring.d // 2), "little")
        signs = [plus, [v - ((v & odd) << 1) for v in plus]]
        m, maps = 4 * size, []
        low, quarter = (1 << m) - 1, (1 << m // 2) - 1
        for values in signs:
            split = [], [], []  # mod 2^m + 1, 2^(m/2) + 1 and 2^(m/2) - 1
            for v in values:
                lo, hi = v & low, v >> m
                w = lo + hi
                w_lo, w_hi = w & quarter, w >> m // 2
                split[0].append(lo - hi)
                split[1].append(w_lo - w_hi)
                split[2].append(w_lo + w_hi)
            maps += split
        return maps

    def unpack(self, sums) -> tuple["RingPoly", ...]:
        """The elements whose unreduced coefficients ``sums`` holds, per point
        one packed value for each output: each a product of packed values,
        or a sum of them, with every coefficient of the result non-negative
        and within its slot.  Each output is reduced once.

        At one point a cyclic ``u`` cuts each output at degree ``d`` and adds
        high onto low as big integers before a slot is read, which cannot
        overflow a slot: ``Ring.layout`` bounds a cyclic coefficient, a sum
        of ``d`` products.  Any other ``u`` reads the ``2d - 1`` slots of the
        uncut output and calls ``Ring.reduce``.

        At six, two CRT steps (``_crt``) give ``S(+-x)`` mod ``2^(2m) - 1 =
        x^d - 1``, the output folded by ``X^d = 1``; half the sum of the signs
        and their difference over ``2x`` (``_rotate``) hold its even- and its
        odd-index coefficients in slots of ``2w`` bytes (``x^2 = 2^(16w)``), read by
        ``_slots`` as at one point and then interleaved.
        """
        ring, points, width = self
        d = ring.d
        if points == 6:
            m, shift, parts = 4 * width * d, 8 * width + 1, []
            quarter, half, full = [(1 << k) - 1 for k in (m // 2, m, 2 * m)]
            for p1, p2, p3, n1, n2, n3 in zip(*sums):
                plus = _crt(_crt(p3, p2, m // 2, quarter), p1, m, half)
                minus = _crt(_crt(n3, n2, m // 2, quarter), n1, m, half)
                parts += [_rotate(plus + minus, 1, 2 * m, full),
                          _rotate(plus - minus, shift, 2 * m, full)]
            slots, coeffs, out = self._slots(parts, 2 * width, d // 2), [0] * d, []
            for even, odd in zip(slots[0::2], slots[1::2]):
                coeffs[0::2], coeffs[1::2] = even, odd
                out.append(_wrap(ring, tuple(coeffs)))
            return tuple(out)
        if ring._cyclic:
            cut = 8 * width * d
            folded = [(v & (1 << cut) - 1) + (v >> cut) for v in sums[0]]
            return tuple([_wrap(ring, c) for c in self._slots(folded, width, d)])
        return tuple([_wrap(ring, ring.reduce(c)) for c in self._slots(sums[0], width, 2 * d - 1)])

    def _slots(self, parts, width: int, count: int) -> list[tuple[int, ...]]:
        """Per value of ``parts``, its lowest ``count`` slots of ``width`` bytes,
        each shifted out and reduced mod q: ``d`` at one point (``2d - 1``
        for an output ``Ring.reduce`` folds), ``d/2`` at six."""
        q, step, mask = self.ring.q, 8 * width, (1 << 8 * width) - 1
        shifts = range(0, count * step, step)
        return [tuple([(v >> s & mask) % q for s in shifts]) for v in parts]


def _crt(a: int, b: int, k: int, mask: int) -> int:
    """An integer congruent to ``a`` mod ``2^k - 1`` (``mask``) and to ``b``
    mod ``2^k + 1``, from any representatives: ``b + (2^k + 1) t`` with ``t =
    (a - b) / 2`` mod ``2^k - 1``, in which ``2^k + 1`` is 2; ``t`` folded once."""
    t = a - b
    t = (t & mask) + (t >> k)
    t = (t + mask if t & 1 else t) >> 1
    return b + t + (t << k)


def _rotate(v: int, r: int, k: int, mask: int) -> int:
    """``v / 2^r`` mod ``2^k - 1`` (``mask``), canonical: a fold, then a rotation."""
    while hi := v >> k:
        v = (v & mask) + hi
    v = v >> r | (v & (1 << r) - 1) << k - r
    return 0 if v == mask else v


_new = object.__new__
_set = object.__setattr__
_layout = tuple.__new__  # a Layout from its fields, skipping NamedTuple's __new__


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
        coeffs = _int_coeffs(coeffs)
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
        """Kronecker substitution: one big-integer multiply per point (a
        square when ``other`` is ``self``), reduced once."""
        self._check_same_ring(other)
        polys = (self,) if other is self else (self, other)
        return self.ring.layout(1).run(polys, lambda p: [p[0] * p[-1]])[0]

    def scale(self, value: int) -> "RingPoly":
        """Multiply by an integer scalar; a non-``int`` is refused."""
        q = self.ring.q
        v = _int_coeffs((value,), "scalar")[0] % q
        return _wrap(self.ring, tuple([(a * v) % q for a in self.coeffs]))


class PackedRows:
    """A fixed matrix of ring elements, kept packed for combinations of its
    rows with ring-element weights: ``combine(w)[j] = sum_i w[i] * rows[i][j]``.

    The rows are paired by Winograd's inner-product identity.  With
    ``r = rows``, the per-matrix ``xi_j = sum_k r[2k][j] * r[2k+1][j]`` and
    the per-call ``eta = sum_k w[2k] * w[2k+1]``,

        combine(w)[j] = sum_k (r[2k][j] + w[2k+1]) * (r[2k+1][j] + w[2k]) - xi_j - eta,

    where an odd row count pairs the last row with a zero row and a zero
    weight.  That is ``ceil(N/2)`` products per column plus ``floor(N/2)``
    for ``eta``, instead of ``N`` per column.  Packing is evaluation at a
    point of ``layout`` (``Ring.layout``), a ring homomorphism on Z[X], so the
    identity holds on the packed integers at each point; the slots are sized
    for the sum before the subtractions, whose coefficients are non-negative
    and bound every term, so the differences unpack to the exact unreduced
    combination.
    """

    __slots__ = ("layout", "row_count", "_columns")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        if not rows or not rows[0]:
            raise ParameterError("a packed matrix needs at least one row and one column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ParameterError("matrix rows differ in length")
        ring = rows[0][0].ring
        if any(x.ring is not ring for row in rows for x in row):
            raise ParameterError("polynomials belong to different rings")
        big_n = len(rows)
        # A pair product of sums of two canonical polynomials weighs four
        # products; the odd row's product with a zero row and weight, one.
        layout = ring.layout(4 * (big_n // 2) + big_n % 2)
        self.layout, self.row_count = layout, big_n
        # Per point, then per column: its even-row entries, its odd-row
        # entries, and xi.
        cols = len(rows[0])
        self._columns = []
        for flat in layout.pack([x for row in rows for x in row]):
            packed = [flat[i:i + cols] for i in range(0, len(flat), cols)]
            if big_n % 2:
                packed.append([0] * cols)
            self._columns.append([
                (col[0::2], col[1::2], sum(map(operator.mul, col[0::2], col[1::2])))
                for col in zip(*packed)
            ])

    def combine(self, weights) -> tuple[RingPoly, ...]:
        """``sum_i weights[i] * rows[i][j]`` for every column ``j``."""
        layout = self.layout
        if len(weights) != self.row_count:
            raise ParameterError(f"expected {self.row_count} weights, got {len(weights)}")
        if any(w.ring is not layout.ring for w in weights):
            raise ParameterError("polynomials belong to different rings")
        return layout.run(weights, _combine, self._columns)


def _combine(w, columns) -> list[int]:
    """``PackedRows.combine`` at one point: the packed weights ``w`` and the
    matrix's ``columns`` there."""
    if len(w) % 2:
        w.append(0)
    even, odd = w[0::2], w[1::2]
    eta = sum(map(operator.mul, even, odd))
    return [sum([(a + y) * (b + x) for a, b, x, y in zip(r_even, r_odd, even, odd)]) - xi - eta
            for r_even, r_odd, xi in columns]


@dataclass(frozen=True)
class Repartition:
    """Assignment of the prime factors of ``q`` to the ``n`` key slots.

    ``assignment[i]`` is either 0 (the conventional factor 1) or a 1-based
    index into ``primes``, the distinct prime factors of ``q`` in increasing
    order.  Slot indices below are 0-based.
    """

    q: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        for v in self.assignment:
            if not 0 <= v <= len(self.primes):
                raise ParameterError(f"assignment value {v} out of range")

    @staticmethod
    def sample(ch, rng) -> "Repartition":
        """Uniform assignment over functions [n] -> {0, ..., n0}, over the
        prime factors the channel ``ch`` holds."""
        assignment = tuple(rng.below(len(ch.primes) + 1) for _ in range(ch.n))
        return Repartition(ch.q, assignment)

    @property
    def primes(self) -> tuple[int, ...]:
        """The prime factors of ``q`` (``prime_factors``)."""
        return prime_factors(self.q)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @cached_property
    def _factors(self) -> tuple[int, ...]:
        """Each slot's factor, ``prime_of`` of every slot, built on first use."""
        primes = self.primes
        return tuple(1 if v == 0 else primes[v - 1] for v in self.assignment)

    def prime_of(self, i: int) -> int:
        """The factor attached to slot ``i`` (1 for the index 0)."""
        return self._factors[i]

    def weight(self, i: int, j: int) -> int:
        """The modulus divided by the primes of slots ``i`` and ``j``.

        When both slots carry the same factor it is divided out once only:
        distinct assignment values name distinct factors.
        """
        factors = self._factors
        if not (0 <= i < len(factors) and 0 <= j < len(factors)):
            raise ParameterError(f"slot index out of range: ({i}, {j})")
        a, b = factors[i], factors[j]
        return self.q // (a if a == b else a * b)
