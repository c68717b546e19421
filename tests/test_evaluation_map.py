"""The scheme read through the evaluation map, at omega = 1 and omega = 2.

Decryption, the membership check and the refreshability index read the
secret key only through its channel evaluations.  These tests check that
reading against schoolbook polynomial arithmetic on arbitrary canonical
ciphertexts, and run the whole scheme at an evaluation point other than 1,
where evaluation is no longer the coefficient sum.  ``u = X^4 - 16`` takes
the binomial fold path of the ring reduction, ``u = X^4 + X - 18`` the
power-table path; both vanish at 2.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import (
    Ciphertext,
    decrypt,
    encrypt,
    fresh_level,
    in_encryption_space,
    post_refresh_level,
    shadow,
)
from aces.homo import hom_add, hom_mul
from aces.keygen import SecretKey, keygen
from aces.refresh import make_refreshable, refresh_ct, secret_refresh_checker
from aces.rings import Repartition, RingPoly, factorize

from oracles import brute_residual, eval_nonneg

DESK_Q = 15015
OMEGA_TWO = {
    "omega2-binomial": (-16, 0, 0, 0, 1),
    "omega2-general": (-18, 1, 0, 0, 1),
}
CHANNELS = {
    "desk": dict(p=2, q=DESK_Q, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1),
    "mid": dict(p=2, q=math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), omega=1,
                u=(-1,) + (0,) * 15 + (1,), n=6, big_n=4, k0=1),
    "large": dict(p=3, q=math.prod((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)),
                  omega=1, u=(-1,) + (0,) * 63 + (1,), n=10, big_n=8, k0=1),
    **{name: dict(p=2, q=DESK_Q, omega=2, u=u, n=3, big_n=2, k0=1)
       for name, u in OMEGA_TWO.items()},
}


def _channel(name):
    return ArithmeticChannel(**CHANNELS[name]).require_valid()


def test_omega_two_channels_leave_the_coefficient_sum():
    for name in OMEGA_TWO:
        ch = _channel(name)
        x = ch.ring.poly([1, 1, 0, 0])
        assert ch.eval(x) == 3 and sum(x.coeffs) == 2


@pytest.mark.parametrize("name", sorted(OMEGA_TWO))
def test_scheme_end_to_end_at_omega_two(name):
    """keygen, encrypt, decrypt, hom_add, hom_mul and a refresh under the
    key owner's checker, over 20 keys."""
    ch = _channel(name)
    for seed in range(20):
        rng = RandomSource(f"{name}/{seed}".encode())
        bundle = keygen(ch, rng)
        sk, pk = bundle.secret, bundle.public
        m1, m2 = rng.below(ch.p), rng.below(ch.p)
        a, b = encrypt(pk, ch, m1, rng), encrypt(pk, ch, m2, rng)
        assert in_encryption_space(sk, bundle.public.repartition, ch, a, m1, fresh_level(ch))
        assert (decrypt(sk, ch, a), decrypt(sk, ch, b)) == (m1, m2)
        assert decrypt(sk, ch, hom_add(ch, a, b)) == (m1 + m2) % ch.p
        product = hom_mul(ch, bundle.tensor, a, b)
        assert decrypt(sk, ch, product) == m1 * m2 % ch.p
        ready = make_refreshable(shadow(ch, product), secret_refresh_checker(sk, ch), pk, ch, rng)
        assert ready is not None
        fresh = refresh_ct(bundle.eval_keys, ready, rng)
        assert fresh.level == post_refresh_level(ch)
        assert decrypt(sk, ch, fresh) == m1 * m2 % ch.p


def _coefficients(data, ch, count):
    """``count`` canonical coefficient lists: all q-1, or seeded uniform draws."""
    if data.draw(st.booleans(), label="all q-1"):
        return [[ch.q - 1] * ch.degree for _ in range(count)]
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="coefficient seed"))
    return [[rnd.randrange(ch.q) for _ in range(ch.degree)] for _ in range(count)]


def _ring_vector(ch, vectors):
    return tuple(RingPoly(ch.q, ch.u, c) for c in vectors)


@pytest.mark.parametrize("name", sorted(CHANNELS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_decrypt_matches_the_brute_oracle_on_arbitrary_ciphertexts(name, data):
    ch = _channel(name)
    secret = _coefficients(data, ch, ch.n)
    vector = _coefficients(data, ch, ch.n)
    (scalar,) = _coefficients(data, ch, 1)
    ct = Ciphertext(_ring_vector(ch, vector), RingPoly(ch.q, ch.u, scalar), 0)
    want = brute_residual(secret, ch, vector, scalar) % ch.p
    assert decrypt(SecretKey(_ring_vector(ch, secret)), ch, ct) == want


@pytest.mark.parametrize("name", sorted(CHANNELS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_membership_matches_the_polynomial_residual_form(name, data):
    """``in_encryption_space`` against its definition: every slot of ``c``
    evaluates to a multiple of the slot's prime, and the polynomial residual
    ``eval(c' - <c, x>) - m`` is one of ``0, p, ..., k*p`` mod q."""
    ch = _channel(name)
    primes = tuple(factorize(ch.q))
    assignment = data.draw(st.lists(st.integers(0, len(primes)), min_size=ch.n, max_size=ch.n))
    rep = Repartition(ch.q, tuple(assignment))
    secret = _coefficients(data, ch, ch.n)
    vector = _coefficients(data, ch, ch.n)
    if data.draw(st.booleans(), label="divisible vector part"):
        # Lower each constant coefficient by its slot's remainder, which
        # lowers the evaluation by it without wrapping past zero.
        for j, c in enumerate(vector):
            c[0] = (c[0] - eval_nonneg(c, ch.omega, ch.q) % rep.prime_of(j)) % ch.q
    (scalar,) = _coefficients(data, ch, 1)
    residual = brute_residual(secret, ch, vector, scalar)
    m = data.draw(st.sampled_from((residual % ch.p, (residual + 1) % ch.p)))
    k = max(0, (residual - m) % ch.q // ch.p + data.draw(st.integers(-1, 1)))
    z = (residual - m) % ch.q
    divisible = all(
        eval_nonneg(c, ch.omega, ch.q) % rep.prime_of(j) == 0 for j, c in enumerate(vector)
    )
    want = divisible and z % ch.p == 0 and z <= k * ch.p
    ct = Ciphertext(_ring_vector(ch, vector), RingPoly(ch.q, ch.u, scalar), 0)
    sk = SecretKey(_ring_vector(ch, secret))
    assert in_encryption_space(sk, rep, ch, ct, m, k) == want
