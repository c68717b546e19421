"""Tests for the modular arithmetic kernels."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aces.channel import ArithmeticChannel
from aces.errors import ParameterError
from aces.rings import (
    MAX_Q,
    Repartition,
    Ring,
    RingPoly,
    factorize,
    is_leveled_multiple,
    lift,
    lift_divmod,
    reduce_mod,
)

from oracles import eval_nonneg, ring_op, trial_factorize


# -- lift / reduce ----------------------------------------------------------


@given(st.integers(min_value=2, max_value=500), st.data())
def test_reduce_after_lift_is_identity(p, data):
    m = data.draw(st.integers(min_value=0, max_value=p - 1))
    assert reduce_mod(p, lift(p, m)) == m


def test_lift_worked_values():
    # Plain integer products escape the modulus: 4*3 = 12, not 2.
    assert lift(5, 4) * lift(5, 3) == 12
    assert lift(5, reduce_mod(5, 4 * 3)) == 2
    assert lift(5, 4) * lift(5, 3) != lift(5, reduce_mod(5, 4 * 3))
    # A formula whose integer value stays below p lifts exactly.
    assert lift(5, 4) * lift(5, 3) - 10 == 2
    assert lift(5, reduce_mod(5, 4 * 3 - 10)) == 2


def test_lift_rejects_non_canonical():
    with pytest.raises(ParameterError):
        lift(5, 5)
    with pytest.raises(ParameterError):
        lift(5, -1)


@pytest.mark.parametrize("call, message", [
    (lambda: lift(1, 0), "modulus must be >= 2, got 1"),
    (lambda: reduce_mod(1, 5), "modulus must be >= 2, got 1"),
    (lambda: reduce_mod(0, 5), "modulus must be >= 2, got 0"),
    (lambda: lift_divmod(7, 5, 3), "expected p <= q, got p=7 q=5"),
    (lambda: Ring(1, (-1, 0, 1)), "coefficient modulus must be >= 2, got 1"),
], ids=["lift-m1", "reduce-m1", "reduce-m0", "lift-divmod-p-above-q", "ring-q1"])
def test_a_modulus_out_of_range_is_refused(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_reduce_examples():
    assert reduce_mod(5, 12) == 2
    assert reduce_mod(5, 0) == 0
    assert reduce_mod(5, -3) == 2


@given(
    st.integers(min_value=2, max_value=97),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=-(10**9), max_value=10**9),
)
def test_reduce_is_ring_homomorphism(p, x, y):
    assert reduce_mod(p, x + y) == reduce_mod(p, reduce_mod(p, x) + reduce_mod(p, y))
    assert reduce_mod(p, x - y) == reduce_mod(p, reduce_mod(p, x) - reduce_mod(p, y))
    assert reduce_mod(p, x * y) == reduce_mod(p, reduce_mod(p, x) * reduce_mod(p, y))


@given(st.integers(min_value=3, max_value=97), st.data())
@settings(max_examples=200)
def test_lift_homomorphism_is_conditional(p, data):
    """Closed +-* formulas commute with the lift exactly when the integer
    value stays inside [0, p)."""
    values = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=4))
    ops = data.draw(st.lists(st.sampled_from("+-*"), min_size=len(values) - 1,
                             max_size=len(values) - 1))
    int_acc = lift(p, values[0])
    mod_acc = values[0]
    for op, v in zip(ops, values[1:]):
        if op == "+":
            int_acc, mod_acc = int_acc + lift(p, v), (mod_acc + v) % p
        elif op == "-":
            int_acc, mod_acc = int_acc - lift(p, v), (mod_acc - v) % p
        else:
            int_acc, mod_acc = int_acc * lift(p, v), (mod_acc * v) % p
    if 0 <= int_acc < p:
        assert lift(p, mod_acc) == int_acc
    else:
        assert int_acc % p == mod_acc


# -- lifted digit split -----------------------------------------------------


def test_lift_divmod_examples():
    assert lift_divmod(2, 15, 5) == (2, 1)
    assert lift_divmod(5, 15, 0) == (0, 0)
    assert lift_divmod(3, 15, 14) == (4, 2)  # 14 = 3*4 + 2


@given(st.integers(2, 50), st.integers(2, 2000), st.data())
def test_lift_divmod_identity(p, extra, data):
    q = p + extra
    m = data.draw(st.integers(0, q - 1))
    quot, rem = lift_divmod(p, q, m)
    assert m == p * quot + rem
    assert 0 <= rem < p
    assert quot >= 0


# -- leveled multiples ------------------------------------------------------


def test_leveled_multiple_examples():
    assert is_leveled_multiple(2, 3, 4)
    assert not is_leveled_multiple(2, 3, 8)
    assert is_leveled_multiple(5, 0, 0)
    assert not is_leveled_multiple(5, 0, 5)


# -- polynomial ring --------------------------------------------------------

U15 = (-1, 0, 1)  # X^2 - 1 over q = 15


def test_poly_identities():
    x = RingPoly.make(15, U15, [0, 1])
    zero = Ring(15, U15).zero()
    one = Ring(15, U15).poly([1])
    b = RingPoly.make(15, U15, [7, 11])
    assert zero + x == x
    assert one * b == b
    assert x * x == one  # X^2 reduces to 1 modulo X^2 - 1
    assert b - b == zero
    assert -zero == zero


def test_poly_scale_reduces_an_integer_scalar():
    x = Ring(15015, (-1, 0, 0, 0, 1)).poly([1, 2, 3, 4])
    assert x.scale(3).coeffs == (3, 6, 9, 12)
    assert x.scale(-1) == -x
    assert x.scale(15015 * 7 + 2).coeffs == (2, 4, 6, 8)


@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", Fraction(2)], ids=repr)
def test_poly_scale_refuses_a_non_integer_scalar(value):
    """A float scalar made a ring element with float coefficients, ``True``
    scaled by 1 and ``"2"`` raised a bare TypeError from string formatting."""
    x = Ring(15015, (-1, 0, 0, 0, 1)).poly([1, 2, 3, 4])
    with pytest.raises(ParameterError, match="scalar"):
        x.scale(value)


@pytest.mark.parametrize("coeffs", [[1.5, 2, 3, 4], [1.0, 2, 3, 4], [True, 2, 3, 4],
                                    ["1", 2, 3, 4], [Fraction(1), 2, 3, 4]], ids=repr)
def test_poly_constructor_refuses_non_integer_coefficients(coeffs):
    """A float coefficient was kept as a float, so ``x + x`` returned float
    coefficients and ``x * x`` raised AttributeError from packing; ``True``
    read as 1."""
    with pytest.raises(ParameterError, match="expected integers"):
        RingPoly(15015, (-1, 0, 0, 0, 1), coeffs)


@pytest.mark.parametrize("q", [15015.0, 15017.0, "15015", True, Fraction(15015)], ids=repr)
def test_ring_refuses_a_non_integer_modulus(q):
    """``Ring(15015.0, u)`` returned the interned ring of 15015, a float q of
    a new ring raised a bare TypeError from ``pow`` and ``"15015"`` one
    from ``<``."""
    u = (-1, 0, 0, 0, 1)
    Ring(15015, u)
    with pytest.raises(ParameterError, match="coefficient modulus: expected integers"):
        Ring(q, u)


def test_poly_channel_mismatch_rejected():
    a = RingPoly.make(15, U15, [1, 2])
    b = RingPoly.make(21, U15, [1, 2])
    c = RingPoly.make(15, (-1, 0, 0, 1), [1, 2])
    with pytest.raises(ParameterError):
        a + b
    with pytest.raises(ParameterError):
        a * c


def test_poly_requires_monic_modulus():
    with pytest.raises(ParameterError):
        RingPoly.make(15, (-1, 0, 2), [1])
    with pytest.raises(ParameterError):
        RingPoly.make(15, (-1, 1), [1])  # degree 1 is below the minimum


def test_poly_ops_exhaustive_against_oracle():
    """Every pair over q = 15, d = 2 agrees with the naive big-integer
    oracle for add, sub, mul, and negation."""
    q = 15
    polys = [(a, b) for a in range(q) for b in range(q)]
    ring = {c: RingPoly(q, U15, c) for c in polys}
    for ca in polys:
        pa = ring[ca]
        assert tuple(ring_op(list(ca), list(ca), "neg", list(U15), q)) == (-pa).coeffs
        for cb in polys:
            pb = ring[cb]
            assert tuple(ring_op(list(ca), list(cb), "add", list(U15), q)) == (pa + pb).coeffs
            assert tuple(ring_op(list(ca), list(cb), "sub", list(U15), q)) == (pa - pb).coeffs
            assert tuple(ring_op(list(ca), list(cb), "mul", list(U15), q)) == (pa * pb).coeffs


@given(st.data())
@settings(max_examples=100)
def test_poly_mul_random_against_oracle(data):
    q = data.draw(st.sampled_from([15, 105, 15015]))
    d = data.draw(st.integers(2, 5))
    u = tuple(data.draw(st.lists(st.integers(-q, q), min_size=d, max_size=d)) + [1])
    a = [data.draw(st.integers(0, q - 1)) for _ in range(d)]
    b = [data.draw(st.integers(0, q - 1)) for _ in range(d)]
    got = RingPoly.make(q, u, a) * RingPoly.make(q, u, b)
    assert got.coeffs == tuple(ring_op(a, b, "mul", list(u), q))


def _channel(q, u, omega):
    """A channel whose ``eval`` is evaluation at ``omega`` in ``Ring(q, u)``."""
    return ArithmeticChannel(p=2, q=q, omega=omega, u=u, n=1, big_n=1, k0=1)


def test_poly_eval_examples():
    u = (-1, 0, 0, 1)  # X^3 - 1, so degree-2 inputs stay unreduced
    ch = _channel(15, u, 1)
    v = RingPoly.make(15, u, [2, 3, 4])
    assert ch.eval(v) == 9  # coefficient sum mod 15
    assert ch.eval(Ring(15, u).zero()) == 0
    assert ch.eval(Ring(15, u).poly([1])) == 1


# -- repartitions -----------------------------------------------------------


def test_factorize_examples():
    assert factorize(15) == [3, 5]
    assert factorize(2) == [2]
    assert factorize(15015) == [3, 5, 7, 11, 13]


@given(st.integers(2, 100000))
def test_factorize_reconstructs(q):
    primes = factorize(q)
    assert primes == sorted(set(primes))
    rest = q
    for p in primes:
        assert rest % p == 0
        while rest % p == 0:
            rest //= p
    assert rest == 1


@given(st.integers(2, 2**40 - 1) | st.builds(math.prod, st.lists(st.integers(2, 2**20),
                                                                min_size=2, max_size=2)))
@settings(max_examples=150, deadline=None)
def test_factorize_agrees_with_trial_division(q):
    """Below 2^40, including products of two factors up to 2^20 (so the
    cofactor after trial division is split by Pollard's rho)."""
    assert factorize(q) == trial_factorize(q)


P31, P31B = 2**31 - 1, 2147483629  # two 31-bit primes


@pytest.mark.parametrize("q, primes", [
    (2**61 - 1, [2**61 - 1]),                     # a 61-bit prime
    (P31 * P31B, [P31B, P31]),                    # two 31-bit primes
    (P31 * P31, [P31]),                           # a square past trial division
    (3 * 1031 * 1033 * P31, [3, 1031, 1033, P31]),
    (3215031751, [151, 751, 28351]),              # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, [149491, 747451, 34233211]),  # ... to every prime base below 37
])
def test_factorize_large_moduli(q, primes):
    assert factorize(q) == primes


@pytest.mark.parametrize("q", [1, 0, -15, MAX_Q + 1])
def test_factorize_refuses_moduli_out_of_range(q):
    with pytest.raises(ParameterError):
        factorize(q)


def test_repartition_weights():
    rep = Repartition(15, (1, 2))
    assert rep.weight(0, 1) == 1  # 15 / (3 * 5)
    assert rep.weight(0, 0) == 5  # 15 / 3
    rep105 = Repartition(105, (2, 3))
    assert rep105.weight(0, 1) == 3  # 105 / (5 * 7)
    assert rep105.weight(1, 1) == 15  # 105 / 7


def test_repartition_zero_slot_uses_unit_factor():
    rep = Repartition(15, (0, 0))
    assert rep.prime_of(0) == 1
    assert rep.weight(0, 1) == 15
    assert rep.weight(0, 0) == 15


def test_repartition_index_out_of_range():
    rep = Repartition(15, (1, 2))
    with pytest.raises(ParameterError):
        rep.weight(0, 2)


def test_repartition_validates_primes():
    with pytest.raises(ParameterError):
        Repartition(15, (3,))


def test_eval_matches_nonneg_embedding_oracle(rng):
    q, u = 15015, (-1, 0, 0, 0, 1)
    for _ in range(50):
        coeffs = [rng.below(q) for _ in range(4)]
        omega = 1 + rng.below(30)
        poly = RingPoly(q, u, tuple(coeffs))
        ch = _channel(q, u, omega)
        if math.gcd(omega, q) == 1:
            assert ch.eval(poly) == eval_nonneg(coeffs, omega, q)
        else:
            with pytest.raises(ParameterError):
                ch.eval(poly)


@pytest.mark.parametrize("coeffs, message", [
    ([1, 2, 3], "expected 4 coefficients, got 3"),
    ([1, 2, 3, 4, 5], "expected 4 coefficients, got 5"),
    ([1, 2, 3, 15015], "canonical residues mod 15015"),
    ([1, -1, 0, 0], "canonical residues mod 15015"),
])
def test_ring_poly_refuses_a_wrong_length_or_non_canonical_coefficients(coeffs, message):
    with pytest.raises(ParameterError, match=message):
        RingPoly(15015, (-1, 0, 0, 0, 1), coeffs)
