"""Tests for key generation invariants."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aces import rings
from aces.channel import ArithmeticChannel, RandomSource, in_noise_space
from aces.cipher import REFRESHER_LEVEL, decrypt, encrypt, evals, in_encryption_space, shadow
from aces.circuit import evaluate, parse_circuit
from aces.errors import GenerationError, ParameterError
from aces.keygen import KeyBundle, PublicKey, Refresher, SecretKey, _bezout, gen_secret, keygen, owns
from aces.refresh import EvalKeys, make_refreshable, refresh_ct, secret_refresh_checker
from aces.rings import Repartition, lift
from aces.serial import public_from_dict, public_to_dict, secret_to_dict

from oracles import poly_vector_dot, rank_one


def _weighted(bundle):
    ch, rep = bundle.channel, bundle.public.repartition
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
    ch, rep = desk_bundle.channel, desk_bundle.public.repartition
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
    rep = desk_bundle.public.repartition
    lam = desk_bundle.tensor.coeffs
    n = len(lam)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert lam[i][j][k] % rep.prime_of(k) == 0


def test_tensor_residue_condition(desk_bundle):
    """The relinearization defect of every slot pair evaluates to a multiple
    of the pair's weight."""
    ch, rep = desk_bundle.channel, desk_bundle.public.repartition
    xs = desk_bundle.secret.polys
    lam = desk_bundle.tensor.coeffs
    n = len(xs)
    for i in range(n):
        for j in range(n):
            combo = ch.ring.zero()
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


def _relinearizes(bundle) -> None:
    """Criterion 4's properties of the cube ``coeffs``: symmetric, slot k a
    multiple of prime_of(k), and every pair's relinearization defect a
    multiple of the pair's weight under evaluation; the published layers
    pass the loader's minor check, and the secret owns the public
    material."""
    ch, rep = bundle.channel, bundle.public.repartition
    lam, n = bundle.tensor.coeffs, ch.n
    s = [lift(ch.q, ch.eval(x)) for x in bundle.secret.polys]
    for i in range(n):
        for j in range(n):
            assert lam[i][j] == lam[j][i]
            assert all(lam[i][j][k] % rep.prime_of(k) == 0 for k in range(n))
            defect = (s[i] * s[j] - sum(lam[i][j][k] * s[k] for k in range(n))) % ch.q
            assert lift(ch.q, defect) % rep.weight(i, j) == 0
    assert bundle.tensor.fits(rep)
    assert owns(bundle.secret, bundle)


# desk, and p = 3 with p not dividing q.
LAYER_CHANNELS = {
    "desk": dict(p=2, q=15015, u=(-1, 0, 0, 0, 1), n=3, big_n=2),
    "p3": dict(p=3, q=5 * 7 * 11 * 13, u=(-1, 0, 0, 0, 0, 0, 0, 0, 1), n=4, big_n=3),
}


@pytest.mark.parametrize("name", list(LAYER_CHANNELS))
@given(seed=st.binary(min_size=1, max_size=8))
@settings(max_examples=15, deadline=None)
def test_the_published_layer_is_the_one_the_tensor_fixes(name, seed):
    """The one layer keygen publishes is the oracle's layer of the cube
    ``coeffs``: a function of the tensor alone, not of keygen's own
    factors.  The cube keeps criterion 4's properties."""
    ch = ArithmeticChannel(omega=1, k0=1, **LAYER_CHANNELS[name]).require_valid()
    bundle = keygen(ch, RandomSource(seed))
    (layer,) = bundle.tensor.layers
    assert layer == rank_one(bundle.tensor.coeffs, ch.q)
    _relinearizes(bundle)


def test_keygen_publishes_planes_under_a_q_that_is_not_squarefree():
    """Under 3^2 * 13 and 11^2 keygen publishes n plane layers ``(e_k,
    lambda[.][.][k])``, whose cube relinearizes (and which the oracle cannot
    factor there)."""
    for q in (117, 121):
        ch = ArithmeticChannel(p=2, q=q, omega=1, u=(-1, 0, 1), n=2, big_n=1, k0=1).require_valid()
        for seed in range(8):
            bundle = keygen(ch, RandomSource(f"planes/{seed}".encode()))
            assert [alpha for alpha, _ in bundle.tensor.layers] == [(1, 0), (0, 1)]
            assert rank_one(bundle.tensor.coeffs, q) is None
            _relinearizes(bundle)


def test_refresher_decrypts_to_secret_digits(desk_bundle):
    ch = desk_bundle.channel
    for x, ct in zip(desk_bundle.secret.polys, desk_bundle.rho, strict=True):
        digit = lift(ch.q, ch.eval(x)) % ch.p
        assert ct.level == REFRESHER_LEVEL == 1
        assert decrypt(desk_bundle.secret, ch, ct) == digit
        assert in_encryption_space(
            desk_bundle.secret, desk_bundle.public.repartition, ch, ct, digit, REFRESHER_LEVEL
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
    rep = Repartition(desk_channel.q, (1, 1, 1))
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
    rep = Repartition(15015, (1, 1, 1))
    ch = ArithmeticChannel(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    rng = RandomSource(b"tied")
    with pytest.raises(GenerationError):
        gen_secret(ch, rep, rng)
    assert rng.below(2**64) == RandomSource(b"tied").below(2**64)


def test_keygen_factorizes_q_once_per_process(monkeypatch):
    """Each q is factorized once per process: every channel built on it,
    every repartition draw and every repartition's primes read the first
    factorization."""
    params = dict(p=2, q=105, omega=1, u=(-1, 0, 1), n=2, big_n=1, k0=1)
    calls, draws = [], []
    factorize, sample = rings.factorize, Repartition.sample
    monkeypatch.setattr(rings, "_PRIMES", {})
    monkeypatch.setattr(rings, "factorize", lambda q: calls.append(q) or factorize(q))
    monkeypatch.setattr(Repartition, "sample",
                        staticmethod(lambda *args: draws.append(args) or sample(*args)))
    for seed in range(8):  # micro seeds redraw unusable repartitions
        keygen(ArithmeticChannel(**params).require_valid(), RandomSource(seed.to_bytes(2, "big")))
    assert len(draws) > 8
    assert calls == [105]


def test_a_refused_factorization_is_not_kept(monkeypatch):
    """A q that ``factorize`` refuses is refused again on the next call."""
    monkeypatch.setattr(rings, "_PRIMES", {})
    for _ in range(2):
        with pytest.raises(ParameterError, match="cannot factor 1"):
            rings.prime_factors(1)
    assert rings._PRIMES == {}
    assert rings.prime_factors(15) == (3, 5)


def test_a_bundle_is_its_evaluation_keys_plus_the_secret(desk_channel):
    """Each key fact has one owner: the public key alone holds the channel
    and the repartition, the refresher holds what its file holds, and a
    bundle is an ``EvalKeys`` with the secret added, which ``from_bundle``
    returns as it is and ``refresh_ct`` and ``evaluate`` take directly.
    ``keygen`` keeps no refresher ciphertexts: the bundle expands them on
    first use, to what the keys loaded from its public file expand."""
    ch = desk_channel
    fields = lambda cls: [f.name for f in dataclasses.fields(cls)]
    assert fields(PublicKey) == ["seed", "fprime", "channel", "repartition"]
    assert fields(Refresher) == ["seed", "cprime"]
    assert fields(EvalKeys) == ["public", "tensor", "refresher", "locators"]
    assert fields(KeyBundle) == [*fields(EvalKeys), "secret"]
    bundle = keygen(ch, RandomSource(b"one-owner"))
    assert isinstance(bundle, EvalKeys) and EvalKeys.from_bundle(bundle) is bundle
    assert bundle.channel is bundle.public.channel is ch
    assert "rho" not in vars(bundle)
    loaded = public_from_dict(ch, json.loads(json.dumps(public_to_dict(bundle))))
    assert bundle.rho == loaded.rho
    rng = RandomSource(b"one-owner/run")
    ct = encrypt(bundle.public, ch, 1, rng)
    ready = make_refreshable(shadow(ch, ct), secret_refresh_checker(bundle.secret, ch),
                             bundle.public, rng)
    assert decrypt(bundle.secret, ch, refresh_ct(bundle, ready, rng)) == 1
    outputs, _ = evaluate(parse_circuit("in a\nt = mul a a\nout t\n"), {"a": ct}, bundle)
    assert decrypt(bundle.secret, ch, outputs["t"]) == 1


def test_keygen_evaluates_each_secret_polynomial_once(desk_channel, monkeypatch):
    """The Bezout check, the tensor, the refresher and the locator database
    share one evaluation of each polynomial of the accepted secret
    (``SecretKey.values``), ``owns`` evaluates none of them again, and the
    secret key's one dataclass field is still its polynomials."""
    calls, real = [], ArithmeticChannel.eval
    monkeypatch.setattr(ArithmeticChannel, "eval", lambda self, v: calls.append(v) or real(self, v))
    bundle = keygen(desk_channel, RandomSource(b"secret once"))
    sk = bundle.secret
    assert [sum(v is x for v in calls) for x in sk.polys] == [1] * desk_channel.n
    calls.clear()
    assert owns(sk, bundle)
    assert calls and not any(v is x for v in calls for x in sk.polys)
    assert [f.name for f in dataclasses.fields(SecretKey)] == ["polys"]


def test_secret_values_follow_the_channel_object(desk_bundle):
    """``SecretKey.values`` is ``evals`` of the secret under the channel it
    is given: an equal copy of the key's channel, and the channel at omega
    = q - 1, another root of the same ``u`` over the same ring whose values
    differ, are each evaluated on their own, and a later call with an
    earlier channel gets that channel's values again."""
    ch, sk = desk_bundle.channel, desk_bundle.secret
    copy, flipped = dataclasses.replace(ch), dataclasses.replace(ch, omega=ch.q - 1)
    assert copy == ch and copy is not ch and flipped.ring is ch.ring
    assert evals(flipped, sk.polys) != evals(ch, sk.polys)
    for other in (ch, copy, flipped, copy, ch):
        assert sk.values(other) == evals(other, sk.polys)
