"""Tests for the homomorphic algebra."""

import math
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aces.channel import ArithmeticChannel, RandomSource, sample_message_carrier
from aces.cipher import (
    Ciphertext, decrypt, encrypt, encrypt_with_secret, in_encryption_space, shadow,
)
from aces.errors import NoiseBudgetError, ParameterError
from aces.homo import _product, _shadow_op, hom_add, hom_mul, scalar_product, tensor_contract
from aces.keygen import ProductTensor, keygen
from aces.rings import Ring, lift

from oracles import planes, poly_vector_dot, rank_one


def _constrained_vector(bundle, rng):
    """A random element of the divisibility-constrained module."""
    ch, rep = bundle.channel, bundle.public.repartition
    return tuple(
        sample_message_carrier(ch, (rep.prime_of(j) * rng.below(ch.q)) % ch.q, rng)
        for j in range(rep.n)
    )


def test_hom_add_exhaustive(desk_bundle, rng):
    ch = desk_bundle.channel
    for m1 in range(ch.p):
        for m2 in range(ch.p):
            c1 = encrypt(desk_bundle.public, ch, m1, rng)
            c2 = encrypt(desk_bundle.public, ch, m2, rng)
            out = hom_add(ch, c1, c2)
            assert out.level == c1.level + c2.level
            assert decrypt(desk_bundle.secret, ch, out) == (m1 + m2) % ch.p


def test_hom_add_with_zero_is_plaintext_identity(desk_bundle, rng):
    ch = desk_bundle.channel
    zero = encrypt_with_secret(desk_bundle.secret, desk_bundle.public.repartition, ch, 0, 0, rng)
    for m in range(ch.p):
        ct = encrypt(desk_bundle.public, ch, m, rng)
        assert decrypt(desk_bundle.secret, ch, hom_add(ch, ct, zero)) == m


def test_hom_add_level_arithmetic(desk_bundle, rng):
    ch = desk_bundle.channel
    sk, rep = desk_bundle.secret, desk_bundle.public.repartition
    a = encrypt_with_secret(sk, rep, ch, 1, 3, rng)
    b = encrypt_with_secret(sk, rep, ch, 1, 4, rng)
    assert hom_add(ch, a, b).level == 7


def test_contract_annihilates_zero_vector(desk_bundle):
    ch = desk_bundle.channel
    zero_vec = tuple(ch.ring.zero() for _ in range(ch.n))
    out = tensor_contract(desk_bundle.tensor, zero_vec, zero_vec)
    assert all(part == ch.ring.zero() for part in out)


def test_contract_zero_tensor():
    from aces.channel import ArithmeticChannel

    ch = ArithmeticChannel(p=2, q=15, omega=1, u=(-1, 0, 1), n=1, big_n=1, k0=1)
    lam = ProductTensor(15, (((0,), ((0,),)),))
    v = (ch.ring.poly([3, 7]),)
    assert tensor_contract(lam, v, v)[0] == ch.ring.zero()


def test_contract_dimension_mismatch(desk_bundle):
    ch = desk_bundle.channel
    with pytest.raises(ParameterError, match="vector length does not match tensor dimension"):
        tensor_contract(desk_bundle.tensor, (ch.ring.zero(),), (ch.ring.zero(),))
    with pytest.raises(ParameterError, match="vector length does not match tensor dimension"):
        tensor_contract(desk_bundle.tensor, (), ())


def test_a_tensor_over_another_modulus_is_refused(desk_bundle, rng):
    """The tensor's q must be the ring's: the same layers read mod another
    modulus are refused by the contraction and by ``hom_mul``."""
    ch, lam = desk_bundle.channel, desk_bundle.tensor
    other = ProductTensor(ch.q + 2, lam.layers)
    v = tuple(ch.ring.zero() for _ in range(ch.n))
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    with pytest.raises(ParameterError, match="not the ring's"):
        tensor_contract(other, v, v)
    with pytest.raises(ParameterError, match="not the ring's"):
        hom_mul(ch, other, ct, ct)


def test_contract_relinearization_identity(desk_bundle, rng):
    """The contracted vector reproduces the product of the two secret
    contractions exactly under evaluation."""
    ch = desk_bundle.channel
    xs = desk_bundle.secret.polys
    for _ in range(200):
        v1 = _constrained_vector(desk_bundle, rng)
        v2 = _constrained_vector(desk_bundle, rng)
        direct = poly_vector_dot(v1, xs) * poly_vector_dot(v2, xs)
        folded = poly_vector_dot(tensor_contract(desk_bundle.tensor, v1, v2), xs)
        assert ch.eval(direct - folded) == 0


def test_contract_keeps_divisibility(desk_bundle, rng):
    ch, rep = desk_bundle.channel, desk_bundle.public.repartition
    v1 = _constrained_vector(desk_bundle, rng)
    v2 = _constrained_vector(desk_bundle, rng)
    for k, part in enumerate(tensor_contract(desk_bundle.tensor, v1, v2)):
        assert lift(ch.q, ch.eval(part)) % rep.prime_of(k) == 0


def test_hom_mul_exhaustive(desk_bundle, rng):
    ch = desk_bundle.channel
    fresh = ch.big_n * ch.p
    expected_level = (2 * fresh + fresh * fresh) * ch.p
    for m1 in range(ch.p):
        for m2 in range(ch.p):
            c1 = encrypt(desk_bundle.public, ch, m1, rng)
            c2 = encrypt(desk_bundle.public, ch, m2, rng)
            out = hom_mul(ch, desk_bundle.tensor, c1, c2)
            assert out.level == expected_level == 48
            assert decrypt(desk_bundle.secret, ch, out) == (m1 * m2) % ch.p


def test_hom_mul_identity_ciphertext(desk_bundle, rng):
    ch = desk_bundle.channel
    one = encrypt_with_secret(desk_bundle.secret, desk_bundle.public.repartition, ch, 1, 0, rng)
    for m in range(ch.p):
        ct = encrypt(desk_bundle.public, ch, m, rng)
        out = hom_mul(ch, desk_bundle.tensor, ct, one)
        assert decrypt(desk_bundle.secret, ch, out) == m


def test_hom_outputs_keep_divisibility(desk_bundle, rng):
    ch, rep = desk_bundle.channel, desk_bundle.public.repartition
    c1 = encrypt(desk_bundle.public, ch, 1, rng)
    c2 = encrypt(desk_bundle.public, ch, 1, rng)
    for out in (hom_add(ch, c1, c2), hom_mul(ch, desk_bundle.tensor, c1, c2)):
        for j, cj in enumerate(out.c):
            assert lift(ch.q, ch.eval(cj)) % rep.prime_of(j) == 0


def test_hom_outputs_stay_in_their_encryption_space(desk_bundle, rng):
    """Stronger than plaintext equality: the claimed (level, message) pair
    certifies actual space membership.

    Addition tracks arbitrary Z_q messages.  The multiplication level
    formula certifies messages whose lifted value is at most p (plaintexts
    and digit embeddings, which is everything the scheme multiplies): the
    cross-term noise bound scales with the message lift.
    """
    ch = desk_bundle.channel
    sk, rep = desk_bundle.secret, desk_bundle.public.repartition
    for _ in range(100):
        m1, m2 = rng.below(ch.q), rng.below(ch.q)
        k1, k2 = rng.below(8), rng.below(8)
        c1 = encrypt_with_secret(sk, rep, ch, m1, k1, rng)
        c2 = encrypt_with_secret(sk, rep, ch, m2, k2, rng)
        added = hom_add(ch, c1, c2)
        assert in_encryption_space(sk, rep, ch, added, (m1 + m2) % ch.q, added.level)
    for _ in range(100):
        m1, m2 = rng.between(0, ch.p), rng.between(0, ch.p)
        k1, k2 = rng.below(8), rng.below(8)
        c1 = encrypt_with_secret(sk, rep, ch, m1, k1, rng)
        c2 = encrypt_with_secret(sk, rep, ch, m2, k2, rng)
        mul = hom_mul(ch, desk_bundle.tensor, c1, c2)
        assert in_encryption_space(sk, rep, ch, mul, (m1 * m2) % ch.q, mul.level)


def test_hom_ops_overflow_raises(desk_bundle, rng):
    ch = desk_bundle.channel
    sk, rep = desk_bundle.secret, desk_bundle.public.repartition
    big = encrypt_with_secret(sk, rep, ch, 1, 4000, rng)
    with pytest.raises(NoiseBudgetError):
        hom_add(ch, big, big)
    with pytest.raises(NoiseBudgetError):
        hom_mul(ch, desk_bundle.tensor, big, big)


def test_scalar_product_single_term_equals_mul(desk_bundle, rng):
    ch = desk_bundle.channel
    c1 = encrypt(desk_bundle.public, ch, 1, rng)
    c2 = encrypt(desk_bundle.public, ch, 1, rng)
    assert scalar_product(ch, desk_bundle.tensor, (c1,), (c2,)) == hom_mul(
        ch, desk_bundle.tensor, c1, c2
    )


@pytest.mark.parametrize("lengths, message", [
    ((2, 1), "scalar product needs equal-length tuples"),
    ((0, 1), "scalar product needs equal-length tuples"),
    ((0, 0), "scalar product of empty tuples"),
])
def test_scalar_product_refuses_unequal_or_empty_tuples(desk_bundle, rng, lengths, message):
    ch = desk_bundle.channel
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    gamma, rho = ((ct,) * n for n in lengths)
    with pytest.raises(ParameterError, match=message):
        scalar_product(ch, desk_bundle.tensor, gamma, rho)


def test_scalar_product_zero_vector(desk_bundle, rng):
    ch = desk_bundle.channel
    zeros = tuple(encrypt(desk_bundle.public, ch, 0, rng) for _ in range(3))
    others = tuple(encrypt(desk_bundle.public, ch, 1, rng) for _ in range(3))
    out = scalar_product(ch, desk_bundle.tensor, zeros, others)
    assert decrypt(desk_bundle.secret, ch, out) == 0


def test_scalar_product_is_plaintext_dot_product(desk_bundle, rng):
    ch = desk_bundle.channel
    for _ in range(10):
        ms1 = [rng.below(ch.p) for _ in range(3)]
        ms2 = [rng.below(ch.p) for _ in range(3)]
        g1 = tuple(encrypt(desk_bundle.public, ch, m, rng) for m in ms1)
        g2 = tuple(encrypt(desk_bundle.public, ch, m, rng) for m in ms2)
        out = scalar_product(ch, desk_bundle.tensor, g1, g2)
        want = sum(a * b for a, b in zip(ms1, ms2)) % ch.p
        assert decrypt(desk_bundle.secret, ch, out) == want


def test_scalar_product_overflow_names_the_step(desk_bundle, rng):
    ch = desk_bundle.channel
    sk, rep = desk_bundle.secret, desk_bundle.public.repartition
    fine = encrypt_with_secret(sk, rep, ch, 1, 0, rng)
    big = encrypt_with_secret(sk, rep, ch, 1, 4000, rng)
    with pytest.raises(NoiseBudgetError, match="step 1"):
        scalar_product(ch, desk_bundle.tensor, (fine, big), (fine, big))


def test_hom_ops_reject_mismatched_vector_lengths(desk_bundle, rng):
    ch = desk_bundle.channel
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    short = type(ct)(ct.c[:-1], ct.cprime, ct.level)
    for left, right in ((ct, short), (short, ct)):
        with pytest.raises(ParameterError):
            hom_add(ch, left, right)
        with pytest.raises(ParameterError):
            hom_mul(ch, desk_bundle.tensor, left, right)


def test_hom_add_refuses_the_level_past_the_budget(desk_bundle, rng):
    ch = desk_bundle.channel
    sk, rep = desk_bundle.secret, desk_bundle.public.repartition
    a = encrypt_with_secret(sk, rep, ch, 1, 3753, rng)
    b = encrypt_with_secret(sk, rep, ch, 1, 3754, rng)
    with pytest.raises(NoiseBudgetError):
        hom_add(ch, a, b)
    assert decrypt(sk, ch, hom_add(ch, a, a)) == 0


def test_product_tensor_must_be_a_symmetric_cube():
    """Each layer pairs an n-vector with a symmetric n x n matrix, and every
    layer has the same n >= 1."""
    one = (0, 0), ((0, 0), (0, 0))
    for layers in (
        (((0, 0), ((0, 0), (0,))),),  # a short row of beta
        (((0, 0), ((0, 0),)),),  # a missing row of beta
        (((0, 0, 0), ((0, 0), (0, 0))),),  # alpha longer than beta
        (one, ((0,), ((0,),))),  # layers of different n
        (((), ()),),  # n = 0
        (((0, 0), ((0, 0), (1, 0))),),  # beta not symmetric
    ):
        with pytest.raises(ParameterError):
            ProductTensor(15, layers)
    assert ProductTensor(15, (one,)).coeffs == ((((0, 0),) * 2),) * 2


def test_product_tensor_refuses_an_empty_cube():
    """A tensor of no layers has no dimension: refused on construction."""
    with pytest.raises(ParameterError, match="at least one layer"):
        ProductTensor(15015, ())


@pytest.mark.parametrize("entry", [1.5, True, "3"], ids=repr)
def test_product_tensor_refuses_a_non_integer_entry(entry):
    """A 1x1x1 tensor with entry 1.5 once constructed and the contraction
    raised an AttributeError, ``True`` contracted with weight 1 and ``"3"``
    raised a TypeError; in alpha or in beta, each is refused."""
    for layer in (((entry,), ((1,),)), ((1,), ((entry,),))):
        with pytest.raises(ParameterError, match="tensor entries"):
            ProductTensor(15015, (layer,))


@pytest.mark.parametrize("entry", [-1, 15015])
def test_product_tensor_refuses_an_entry_outside_zq(entry):
    for layer in (((entry,), ((1,),)), ((1,), ((entry,),))):
        with pytest.raises(ParameterError, match="residues"):
            ProductTensor(15015, (layer,))


def test_key_tensor_is_one_layer(desk_bundle):
    """Keygen publishes one layer ``alpha (x) beta`` of canonical residues,
    normalized as the tensor alone fixes it: the layer the cube oracle
    ``rank_one`` finds from ``coeffs``."""
    lam, q = desk_bundle.tensor, desk_bundle.channel.q
    (alpha, beta), = lam.layers
    n = len(alpha)
    assert all(lam.coeffs[i][j][k] == alpha[k] * beta[i][j] % q
               for i in range(n) for j in range(n) for k in range(n))
    assert all(0 <= a < q for a in alpha) and all(0 <= b < q for row in beta for b in row)
    assert rank_one(lam.coeffs, q) == (alpha, beta)


def test_a_tensor_that_vanishes_mod_one_prime_is_still_one_layer():
    """A key whose alpha vanishes mod one prime of q, or whose beta does,
    publishes one layer that is 0 mod that prime, as the oracle finds it."""
    from aces.channel import ArithmeticChannel
    from aces.keygen import _published_layers

    q = 15015
    ch = ArithmeticChannel(p=2, q=q, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    beta = ((3, 6, 9), (6, 3, 12), (9, 12, 3))
    for r, alpha, beta in ((7, (7, 14, 0), beta),  # alpha is 0 mod 7
                           (11, (2, 4, 5), tuple(tuple(11 * b for b in row) for row in beta))):
        (got,) = _published_layers(ch, alpha, beta)
        cube = tuple(tuple(tuple(a * beta[i][j] % q for a in alpha) for j in range(3))
                     for i in range(3))
        assert got == rank_one(cube, q)
        assert ProductTensor(q, (got,)).coeffs == cube
        assert all(x % r == 0 for x in (*got[0], *sum(got[1], ())))


def test_key_tensor_layers_contract_like_the_planes(desk_bundle, rng):
    """The one-layer contraction equals the plane-by-plane one."""
    ch = desk_bundle.channel
    v1, v2 = _constrained_vector(desk_bundle, rng), _constrained_vector(desk_bundle, rng)
    lam = desk_bundle.tensor
    by_planes = planes(lam.coeffs, ch.q)
    assert len(lam.layers) == 1 and len(by_planes.layers) == ch.n
    assert tensor_contract(lam, v1, v2) == tensor_contract(by_planes, v1, v2)
    for k, part in enumerate(tensor_contract(lam, v1, v2)):
        want = ch.ring.zero()
        for i in range(ch.n):
            for j in range(ch.n):
                want = want + (v1[i] * v2[j]).scale(by_planes.layers[k][1][i][j])
        assert part == want


@pytest.mark.parametrize("side", ["first", "second"])
def test_product_refuses_an_operand_of_another_ring(desk_bundle, rng, side):
    ch = desk_bundle.channel
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    good = (*ct.c, ct.cprime)
    bad = (*ct.c[:-1], Ring(ch.q, (-1, 0, 1)).poly([1]), ct.cprime)
    with pytest.raises(ParameterError, match="different rings"):
        _product(desk_bundle.tensor, *((bad, good) if side == "first" else (good, bad)))


# (p, q, degree, n, N) of desk, of p = 3 with q = 5005, of mid and of large.
SHADOW_CHANNELS = {
    "desk": (2, 15015, 4, 3, 2),
    "p3": (3, 5005, 4, 3, 2),
    "mid": (2, math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), 16, 6, 4),
    "large": (3, math.prod((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)), 64, 10, 8),
}


@cache
def _shadow_bundle(name, key):
    p, q, degree, n, big_n = SHADOW_CHANNELS[name]
    ch = ArithmeticChannel(p=p, q=q, omega=1, u=(-1,) + (0,) * (degree - 1) + (1,),
                           n=n, big_n=big_n, k0=1).require_valid()
    return keygen(ch, RandomSource(f"shadow/{name}/{key}".encode()))


@pytest.mark.parametrize("name", list(SHADOW_CHANNELS))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_shadow_arithmetic_is_the_image_of_hom_add_and_hom_mul(name, data):
    """On three keys per channel, ``_shadow_op`` of two shadows is the
    shadow of ``hom_add`` and of ``hom_mul`` of the ciphertexts, for
    distinct operands and for a square, on canonical or all-(q-1)
    polynomials.  The image carries no level and refuses nothing: the
    evaluator's refusals are checked against ``oracles.evaluate_reference``."""
    bundle = _shadow_bundle(name, data.draw(st.integers(0, 2), label="key"))
    ch, lam = bundle.channel, bundle.tensor

    def operand(label):
        if data.draw(st.booleans(), label=f"{label} all q-1"):
            coeffs = [[ch.q - 1] * ch.degree] * (ch.n + 1)
        else:
            rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed"))
            coeffs = [[rnd.randrange(ch.q) for _ in range(ch.degree)] for _ in range(ch.n + 1)]
        *c, cprime = (ch.ring.poly(x) for x in coeffs)
        return Ciphertext(tuple(c), cprime, 0)

    a = operand("a")
    b = a if data.draw(st.booleans(), label="square") else operand("b")
    sa, sb = shadow(ch, a), shadow(ch, b)
    for op, out in (("add", hom_add(ch, a, b)), ("mul", hom_mul(ch, lam, a, b))):
        want = shadow(ch, out)
        got = _shadow_op(op, lam, ch.q, (*sa.v, sa.vprime), (*sb.v, sb.vprime))
        assert got == (*want.v, want.vprime)
