"""Tests for the homomorphic algebra."""

import pytest

from aces.channel import sample_message_carrier
from aces.cipher import decrypt, encrypt, encrypt_with_secret, in_encryption_space
from aces.errors import NoiseBudgetError, ParameterError
from aces.homo import hom_add, hom_mul, scalar_product, tensor_contract
from aces.keygen import ProductTensor
from aces.rings import lift

from oracles import poly_vector_dot


def _constrained_vector(bundle, rng):
    """A random element of the divisibility-constrained module."""
    ch, rep = bundle.channel, bundle.repartition
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
    zero = encrypt_with_secret(desk_bundle.secret, desk_bundle.repartition, ch, 0, 0, rng)
    for m in range(ch.p):
        ct = encrypt(desk_bundle.public, ch, m, rng)
        assert decrypt(desk_bundle.secret, ch, hom_add(ch, ct, zero)) == m


def test_hom_add_level_arithmetic(desk_bundle, rng):
    ch = desk_bundle.channel
    sk, rep = desk_bundle.secret, desk_bundle.repartition
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
    lam = ProductTensor((((0,),),))
    v = (ch.ring.poly([3, 7]),)
    assert tensor_contract(lam, v, v)[0] == ch.ring.zero()


def test_contract_dimension_mismatch(desk_bundle):
    ch = desk_bundle.channel
    with pytest.raises(ParameterError):
        tensor_contract(desk_bundle.tensor, (ch.ring.zero(),), (ch.ring.zero(),))


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
    ch, rep = desk_bundle.channel, desk_bundle.repartition
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
    one = encrypt_with_secret(desk_bundle.secret, desk_bundle.repartition, ch, 1, 0, rng)
    for m in range(ch.p):
        ct = encrypt(desk_bundle.public, ch, m, rng)
        out = hom_mul(ch, desk_bundle.tensor, ct, one)
        assert decrypt(desk_bundle.secret, ch, out) == m


def test_hom_outputs_keep_divisibility(desk_bundle, rng):
    ch, rep = desk_bundle.channel, desk_bundle.repartition
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
    sk, rep = desk_bundle.secret, desk_bundle.repartition
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
    sk, rep = desk_bundle.secret, desk_bundle.repartition
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
    sk, rep = desk_bundle.secret, desk_bundle.repartition
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
    sk, rep = desk_bundle.secret, desk_bundle.repartition
    a = encrypt_with_secret(sk, rep, ch, 1, 3753, rng)
    b = encrypt_with_secret(sk, rep, ch, 1, 3754, rng)
    with pytest.raises(NoiseBudgetError):
        hom_add(ch, a, b)
    assert decrypt(sk, ch, hom_add(ch, a, a)) == 0


def test_product_tensor_must_be_a_symmetric_cube():
    with pytest.raises(ParameterError):
        ProductTensor((((0, 0), (0, 0)), ((0, 0),)))
    with pytest.raises(ParameterError):
        ProductTensor((((0, 0), (1, 0)), ((0, 0), (0, 0))))


def test_product_tensor_refuses_an_empty_cube():
    """Before the check, ``ProductTensor(())`` constructed and the contraction
    raised an IndexError."""
    with pytest.raises(ParameterError, match="at least one slot"):
        ProductTensor(())


@pytest.mark.parametrize("entry", [1.5, True, "3"], ids=repr)
def test_product_tensor_refuses_a_non_integer_entry(entry):
    """Before the check, a 1x1x1 tensor with entry 1.5 constructed and the
    contraction raised an AttributeError, ``True`` contracted with weight 1
    and ``"3"`` raised a TypeError."""
    with pytest.raises(ParameterError, match="tensor entries"):
        ProductTensor((((entry,),),))


def test_key_tensor_is_one_layer(desk_bundle):
    """The keygen tensor ``prime_of(k) * mu_k * base_ij`` factors as one
    ``alpha (x) beta`` mod q, found once and kept on the tensor."""
    lam, q = desk_bundle.tensor, desk_bundle.channel.q
    (alpha, beta), = lam.layers(q)
    n = len(lam.coeffs)
    assert all(lam.coeffs[i][j][k] == alpha[k] * beta[i][j] % q
               for i in range(n) for j in range(n) for k in range(n))
    assert all(0 <= a < q for a in alpha) and all(0 <= b < q for row in beta for b in row)
    assert lam.layers(q) is lam.layers(q)
    assert "_layers" not in vars(ProductTensor(lam.coeffs))


def _rank_one(alpha, beta):
    n = len(alpha)
    return ProductTensor(tuple(tuple(tuple(a * beta[i][j] for a in alpha) for j in range(n))
                               for i in range(n)))


def test_layers_fall_back_to_planes():
    """A tensor with rank one modulo every prime of q but one, and any tensor
    under a q that is not squarefree, is read as one layer per plane."""
    q = 15015  # 3 * 5 * 7 * 11 * 13
    alpha, beta = (1, 2, 3), ((4, 5, 6), (5, 7, 8), (6, 8, 9))
    lam = _rank_one(alpha, beta)
    coeffs = [[list(row) for row in plane] for plane in lam.coeffs]
    coeffs[0][0][1] += q // 13  # moves the entry mod 13 alone: rank two there
    broken = ProductTensor(tuple(tuple(tuple(row) for row in plane) for plane in coeffs))
    assert len(lam.layers(q)) == 1
    assert len(_rank_one(alpha, beta).layers(4 * q)) == 3
    for tensor, modulus in ((broken, q), (lam, 4 * q)):
        layers = tensor.layers(modulus)
        assert [a for a, _ in layers] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert [b for _, b in layers] == [
            tuple(tuple(x[k] % modulus for x in row) for row in tensor.coeffs) for k in range(3)
        ]


def test_a_tensor_that_vanishes_mod_one_prime_is_still_one_layer():
    q = 15015
    lam = _rank_one((7, 14, 0), ((3, 6, 9), (6, 3, 12), (9, 12, 3)))  # every entry 0 mod 7
    (alpha, beta), = lam.layers(q)
    assert all(lam.coeffs[i][j][k] % q == alpha[k] * beta[i][j] % q
               for i in range(3) for j in range(3) for k in range(3))
    assert alpha[2] == 0


def test_key_tensor_layers_contract_like_the_planes(desk_bundle, rng):
    """The one-layer contraction equals the plane-by-plane one, which the
    same tensor gets under 4q (not squarefree) and reads mod q."""
    ch = desk_bundle.channel
    v1, v2 = _constrained_vector(desk_bundle, rng), _constrained_vector(desk_bundle, rng)
    lam = desk_bundle.tensor
    planes = ProductTensor(lam.coeffs).layers(4 * ch.q)
    assert len(lam.layers(ch.q)) == 1 and len(planes) == ch.n
    for k, part in enumerate(tensor_contract(lam, v1, v2)):
        want = ch.ring.zero()
        for i in range(ch.n):
            for j in range(ch.n):
                want = want + (v1[i] * v2[j]).scale(planes[k][1][i][j])
        assert part == want
