"""Tests for key generation invariants."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aces.channel import ArithmeticChannel, RandomSource, in_noise_space
from aces.cipher import decrypt, in_encryption_space
from aces.errors import GenerationError
from aces.keygen import _bezout, gen_secret, keygen
from aces.rings import Repartition, lift, poly_vector_dot
from aces.serial import public_to_dict, secret_to_dict


def _weighted(bundle):
    ch, rep = bundle.channel, bundle.repartition
    return [
        rep.prime_of(i) * lift(ch.q, ch.eval(x))
        for i, x in enumerate(bundle.secret.polys)
    ]


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=6))
def test_bezout_coefficients_satisfy_identity(values):
    g, coeffs = _bezout(values)
    assert g == math.gcd(*values)
    assert sum(v * c for v, c in zip(values, coeffs)) == g


def test_secret_weighted_evaluations_are_coprime(desk_bundle):
    assert math.gcd(*_weighted(desk_bundle)) == 1


def test_secret_polys_are_canonical(desk_bundle):
    q = desk_bundle.channel.q
    for x in desk_bundle.secret.polys:
        assert all(0 <= c < q for c in x.coeffs)


def test_initializer_divisibility(desk_bundle):
    ch, rep = desk_bundle.channel, desk_bundle.repartition
    for row in desk_bundle.public.f0:
        for j, entry in enumerate(row):
            assert lift(ch.q, ch.eval(entry)) % rep.prime_of(j) == 0


def test_public_residual_is_level_k0_noise(desk_bundle):
    ch = desk_bundle.channel
    for row, masked in zip(desk_bundle.public.f0, desk_bundle.public.fprime):
        residual = masked - poly_vector_dot(row, desk_bundle.secret.polys)
        assert in_noise_space(ch, residual, ch.k0)


def test_tensor_symmetry(desk_bundle):
    lam = desk_bundle.tensor.coeffs
    n = len(lam)
    for i in range(n):
        for j in range(n):
            assert lam[i][j] == lam[j][i]


def test_tensor_slot_divisibility(desk_bundle):
    rep = desk_bundle.repartition
    lam = desk_bundle.tensor.coeffs
    n = len(lam)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert lam[i][j][k] % rep.prime_of(k) == 0


def test_tensor_residue_condition(desk_bundle):
    """The relinearization defect of every slot pair evaluates to a multiple
    of the pair's weight."""
    ch, rep = desk_bundle.channel, desk_bundle.repartition
    xs = desk_bundle.secret.polys
    lam = desk_bundle.tensor.coeffs
    n = len(xs)
    for i in range(n):
        for j in range(n):
            combo = ch.zero()
            for k in range(n):
                combo = combo + xs[k].scale(lam[i][j][k])
            defect = xs[i] * xs[j] - combo
            assert lift(ch.q, ch.eval(defect)) % rep.weight(i, j) == 0


def test_tensor_avoids_degenerate_rows(desk_bundle):
    ch = desk_bundle.channel
    evals = [lift(ch.q, ch.eval(x)) for x in desk_bundle.secret.polys]
    lam = desk_bundle.tensor.coeffs
    n = len(evals)
    for i in range(n):
        for j in range(n):
            row = lam[i][j]
            unit_i = tuple(evals[i] if k == j else 0 for k in range(n))
            unit_j = tuple(evals[j] if k == i else 0 for k in range(n))
            assert row != unit_i and row != unit_j


def test_refresher_decrypts_to_secret_digits(desk_bundle):
    ch = desk_bundle.channel
    for x, kappa, ct in zip(
        desk_bundle.secret.polys,
        desk_bundle.refresher.kappa,
        desk_bundle.refresher.rho,
    ):
        digit = lift(ch.q, ch.eval(x)) % ch.p
        assert ct.level == kappa == 1
        assert decrypt(desk_bundle.secret, ch, ct) == digit
        assert in_encryption_space(
            desk_bundle.secret, desk_bundle.repartition, ch, ct, digit, kappa
        )


def test_keygen_is_deterministic(desk_channel):
    a = keygen(desk_channel, RandomSource(b"det"))
    b = keygen(desk_channel, RandomSource(b"det"))
    assert a.secret == b.secret
    assert public_to_dict(a) == public_to_dict(b)
    assert secret_to_dict(a.secret) == secret_to_dict(b.secret)


def test_locator_db_has_both_kinds(desk_bundle):
    kinds = {e.kind for e in desk_bundle.locators}
    assert kinds == {"locator", "director"}
    for e in desk_bundle.locators:
        assert all(0 <= v < desk_bundle.channel.q for v in e.vec)
        assert e.k >= 0
        assert 0 <= e.margin_num < desk_bundle.channel.q


def test_minimal_single_slot_channel():
    """With one slot the coprimality condition forces evaluation 1, so
    generation either finds such a secret or fails with a named budget."""
    ch = ArithmeticChannel(p=2, q=9, omega=1, u=(-1, 0, 1), n=1, big_n=2, k0=1)
    assert ch.violations() == []
    try:
        bundle = keygen(ch, RandomSource(b"tiny"))
    except GenerationError as exc:
        assert "gcd" in str(exc) or "failed" in str(exc)
    else:
        assert ch.eval(bundle.secret.polys[0]) == 1


def test_gen_secret_fails_when_every_slot_shares_a_prime(desk_channel):
    """An all-same-prime assignment makes the gcd condition unattainable."""
    rep = Repartition(desk_channel.q, (3, 5, 7, 11, 13), (1, 1, 1))
    with pytest.raises(GenerationError):
        gen_secret(desk_channel, rep, RandomSource(b"stuck"))


def test_keygen_retries_bad_repartitions(micro_channel):
    # Seeds that draw an unusable assignment first must still succeed.
    for seed in range(20):
        bundle = keygen(micro_channel, RandomSource(seed.to_bytes(2, "big")))
        assert math.gcd(*_weighted(bundle)) == 1


def test_gen_secret_refuses_a_tied_repartition_before_drawing():
    """Every slot tied to the prime 3 makes gcd 1 unattainable: gen_secret
    must raise at once, leaving the random stream untouched."""
    rep = Repartition(15015, (3, 5, 7, 11, 13), (1, 1, 1))
    ch = ArithmeticChannel(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    rng = RandomSource(b"tied")
    with pytest.raises(GenerationError):
        gen_secret(ch, rep, rng)
    assert rng.below(2**64) == RandomSource(b"tied").below(2**64)
