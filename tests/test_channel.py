"""Tests for channel validation and the two samplers."""

import random
from fractions import Fraction

import pytest
from conftest import DESK

from aces.channel import (
    ArithmeticChannel,
    RandomSource,
    in_noise_space,
    sample_message_carrier,
    sample_noise,
)
from aces.errors import ParameterError
from aces.rings import MAX_Q, Ring, lift


def test_desk_channel_is_valid(desk_channel):
    assert desk_channel.violations() == []


def test_validation_worked_example_is_valid():
    # 15 >= 1 * 2^2 * 2 + 1, u(1) = 0 mod 15, omega invertible
    ch = ArithmeticChannel(p=2, q=15, omega=1, u=(-1, 0, 1), n=3, big_n=2, k0=1)
    assert ch.violations() == []


def test_validation_reports_size_inequality():
    ch = ArithmeticChannel(p=2, q=5, omega=1, u=(-1, 0, 1), n=3, big_n=2, k0=1)
    assert any("k0*p^2*N+1" in v for v in ch.violations())
    with pytest.raises(ParameterError):
        ch.require_valid()


def test_validation_reports_bad_evaluation_point():
    ch = ArithmeticChannel(p=2, q=15, omega=2, u=(-1, 0, 1), n=3, big_n=2, k0=1)
    assert any("u(omega)" in v for v in ch.violations())


def test_validation_reports_every_violation():
    ch = ArithmeticChannel(p=7, q=5, omega=5, u=(-1, 0, 1), n=3, big_n=2, k0=1)
    problems = ch.violations()
    assert len(problems) >= 3  # ordering, size inequality, omega issues


def test_validation_rejects_degree_one_modulus():
    ch = ArithmeticChannel(p=2, q=15, omega=1, u=(-1, 1), n=2, big_n=1, k0=1)
    assert any("degree" in v for v in ch.violations())


@pytest.mark.parametrize("field, value, message", [
    ("p", 1, "p must be >= 2, got 1"),
    ("n", 0, "n must be positive, got 0"),
    ("big_n", 0, "N must be positive, got 0"),
    ("k0", 0, "k0 must be positive, got 0"),
])
def test_validation_names_a_field_below_its_minimum(field, value, message):
    ch = ArithmeticChannel(**{**DESK, field: value})
    assert ch.violations() == [message]
    with pytest.raises(ParameterError, match=message):
        ch.require_valid()


@pytest.mark.parametrize("q, problems", [
    (MAX_Q, []),
    (MAX_Q + 1, ["q <= 2**64 violated: q=18446744073709551617; no word holds its residues"]),
])
def test_validation_names_a_modulus_above_the_largest(q, problems):
    """The largest q is the word rule's, ``rings.MAX_Q = 2**64``, which
    ``Ring`` and ``factorize`` keep too."""
    assert ArithmeticChannel(p=2, q=q, omega=1, u=(-1, 0, 1), n=1, big_n=1, k0=1).violations() == problems


@pytest.mark.parametrize("q", [1, 0, -1])
def test_validation_names_a_modulus_below_2(q):
    """A q below 2 is one violation among those it breaks, named, and the
    checks mod q that it leaves meaningless are skipped, never a
    ZeroDivisionError."""
    ch = ArithmeticChannel(**{**DESK, "q": q})
    assert f"q must be >= 2, got {q}" in ch.violations()
    with pytest.raises(ParameterError, match="q must be >= 2"):
        ch.require_valid()


@pytest.mark.parametrize("top", [1.9, 1.0, True])
def test_non_integer_u_coefficient_is_refused(top):
    """A float or a bool in ``u``, or in the coefficients ``Ring.poly`` is
    given, is refused, not truncated to an int."""
    u = (-1, 0, 0, 0, top)
    with pytest.raises(ParameterError):
        ArithmeticChannel(p=2, q=15015, omega=1, u=u, n=3, big_n=2, k0=1)
    with pytest.raises(ParameterError):
        Ring(15015, u)
    with pytest.raises(ParameterError):
        Ring(15015, (-1, 0, 0, 0, 1)).poly([top, 1])


@pytest.mark.parametrize("value", [2.5, 1.0, True, "3", Fraction(3)], ids=repr)
@pytest.mark.parametrize("field", ["p", "q", "omega", "n", "big_n", "k0"])
def test_non_integer_channel_field_is_refused(field, value):
    """Every scalar field is an ``int``: anything else is a ParameterError
    naming the field when the channel is built, never a TypeError from
    ``violations()`` or an empty list of violations."""
    with pytest.raises(ParameterError, match=f"channel field {field}:"):
        ArithmeticChannel(**{**DESK, field: value})


def test_random_source_is_reproducible():
    a = RandomSource(b"\x01\x02")
    b = RandomSource(b"\x01\x02")
    assert [a.below(1000) for _ in range(20)] == [b.below(1000) for _ in range(20)]
    assert RandomSource.from_hex("0102").below(1000) == RandomSource(b"\x01\x02").below(1000)


LARGE_Q = 102481630431415235


@pytest.mark.parametrize("n", [1, 2, 2**16, 2**16 + 1, 2**64, 2**64 + 1, 15015, LARGE_Q])
def test_draws_are_randrange_draws(n):
    """``draws(n, count)`` is ``count`` calls of ``randrange(n)`` on the same
    stream (and so of ``below(n)``), and leaves the stream where they do."""
    seed = f"draws/{n}".encode()
    got, want = RandomSource(seed), random.Random(seed)
    assert got.draws(n, 300) == [want.randrange(n) for _ in range(300)]
    assert got.draws(n, 0) == []
    assert got.below(n) == want.randrange(n)  # the stream goes on in step
    one_by_one = RandomSource(seed)
    assert RandomSource(seed).draws(n, 50) == [one_by_one.below(n) for _ in range(50)]


@pytest.mark.parametrize("n", [0, -1, -(2**64)])
def test_draws_refuse_an_empty_range_as_below_does(n):
    for draw in (lambda rng: rng.below(n), lambda rng: rng.draws(n, 3)):
        with pytest.raises(ParameterError, match="upper bound must be positive"):
            draw(RandomSource(b"empty"))


def test_noise_sampler_hits_the_level_set(desk_channel, rng):
    ch = desk_channel
    for _ in range(1000):
        k = rng.below(40)
        e = sample_noise(ch, k, rng)
        assert in_noise_space(ch, e, k)
        assert lift(ch.q, ch.eval(e)) % ch.p == 0


def test_noise_sampler_refuses_a_negative_level(desk_channel, rng):
    with pytest.raises(ParameterError, match="noise level must be non-negative"):
        sample_noise(desk_channel, -1, rng)


def test_noise_sampler_level_zero_evaluates_to_zero(desk_channel, rng):
    for _ in range(50):
        assert desk_channel.eval(sample_noise(desk_channel, 0, rng)) == 0


def test_noise_sampler_small_channel(rng):
    ch = ArithmeticChannel(p=2, q=15, omega=1, u=(-1, 0, 1), n=2, big_n=1, k0=1)
    for _ in range(200):
        e = sample_noise(ch, 1, rng)
        assert lift(ch.q, ch.eval(e)) in (0, 2)


def test_carrier_sampler_hits_the_message(desk_channel, rng):
    ch = desk_channel
    for _ in range(1000):
        m = rng.below(ch.q)
        assert ch.eval(sample_message_carrier(ch, m, rng)) == m


def test_carrier_sampler_small_channel(rng):
    ch = ArithmeticChannel(p=2, q=15, omega=1, u=(-1, 0, 1), n=2, big_n=1, k0=1)
    for _ in range(100):
        r = sample_message_carrier(ch, 7, rng)
        assert sum(r.coeffs) % 15 == 7  # omega = 1: evaluation is the coefficient sum


def test_noise_sums_stay_in_the_summed_level(desk_channel, rng):
    ch = desk_channel
    for _ in range(300):
        k1, k2 = rng.below(30), rng.below(30)
        e1, e2 = sample_noise(ch, k1, rng), sample_noise(ch, k2, rng)
        assert in_noise_space(ch, e1 + e2, k1 + k2)


def test_carrier_sums_and_products_track_messages(desk_channel, rng):
    ch = desk_channel
    for _ in range(300):
        m1, m2 = rng.below(ch.q), rng.below(ch.q)
        r1 = sample_message_carrier(ch, m1, rng)
        r2 = sample_message_carrier(ch, m2, rng)
        assert ch.eval(r1 + r2) == (m1 + m2) % ch.q
        assert ch.eval(r1 * r2) == (m1 * m2) % ch.q


def test_channel_homomorphism_small_ring_exhaustive():
    ch = ArithmeticChannel(p=2, q=15, omega=1, u=(-1, 0, 1), n=2, big_n=1, k0=1)
    polys = [ch.ring.poly([a, b]) for a in range(15) for b in range(15)]
    for v1 in polys[::5]:
        for v2 in polys[::7]:
            assert ch.eval(v1 * v2) == (ch.eval(v1) * ch.eval(v2)) % 15
            assert ch.eval(v1 + v2) == (ch.eval(v1) + ch.eval(v2)) % 15


def test_noise_membership_examples(desk_channel, rng):
    ch = desk_channel
    assert in_noise_space(ch, ch.ring.zero(), 0)
    assert not in_noise_space(ch, ch.ring.poly([ch.p]), 0)
    assert in_noise_space(ch, sample_noise(ch, 2, rng), 2)


def test_samplers_require_invertible_omega():
    ch = ArithmeticChannel(p=2, q=15, omega=3, u=(-3, 0, 1), n=2, big_n=1, k0=1)
    # u(3) = 6, and omega shares a factor with q: both reported.
    assert any("invertible" in v for v in ch.violations())
    with pytest.raises(ParameterError):
        sample_noise(ch, 1, RandomSource(b"x"))


def test_eval_refuses_a_polynomial_of_another_ring(desk_channel):
    other = Ring(desk_channel.q, (-1, 0, 1))
    with pytest.raises(ParameterError, match="does not belong to this channel's ring"):
        desk_channel.eval(other.poly([1, 2]))
