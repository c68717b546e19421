"""Tests for encryption, decryption, and level accounting."""

import dataclasses

import pytest

from aces.channel import ArithmeticChannel, RandomSource, in_noise_space, sample_message_carrier
from aces.cipher import (
    Ciphertext,
    decrypt,
    encrypt,
    encrypt_with_secret,
    fresh_level,
    in_encryption_space,
    level_after,
    post_refresh_level,
    refresh_due,
    sample_mask,
)
from aces.errors import NoiseBudgetError, ParameterError
from aces.rings import lift

from oracles import poly_vector_dot


def test_roundtrip_all_messages_many_seeds(desk_bundle):
    ch = desk_bundle.channel
    for seed in range(40):
        rng = RandomSource(seed.to_bytes(2, "big"))
        for m in range(ch.p):
            ct = encrypt(desk_bundle.public, ch, m, rng)
            assert decrypt(desk_bundle.secret, ch, ct) == m


def test_fresh_level_value(desk_channel):
    assert fresh_level(desk_channel) == desk_channel.big_n * desk_channel.p  # k0 = 1


def test_encrypt_rejects_out_of_range_messages(desk_bundle, rng):
    with pytest.raises(ParameterError):
        encrypt(desk_bundle.public, desk_bundle.channel, desk_bundle.channel.p, rng)


@pytest.mark.parametrize("k0", [2, 1], ids=["another k0", "an equal copy"])
def test_encrypt_refuses_a_channel_that_is_not_the_keys(desk_bundle, k0):
    """``fresh_level`` certifies the noise of the public key's own channel,
    so ``encrypt`` under any other channel object, one at another ``k0`` or
    an equal copy, is refused before any draw."""
    other = dataclasses.replace(desk_bundle.channel, k0=k0)
    rng = RandomSource(b"another channel")
    with pytest.raises(ParameterError, match="not the public key's channel"):
        encrypt(desk_bundle.public, other, 1, rng)
    assert rng.below(2**64) == RandomSource(b"another channel").below(2**64)


def test_mask_evaluations_are_bounded(desk_channel, rng):
    """``sample_mask`` returns N carriers, each evaluating into [0, p]."""
    ch = desk_channel
    for _ in range(200):
        carriers = sample_mask(ch, rng)
        assert len(carriers) == ch.big_n
        assert all(0 <= ch.eval(b) <= ch.p for b in carriers)


def test_ciphertext_vector_divisibility(desk_bundle, rng):
    ch, rep = desk_bundle.channel, desk_bundle.public.repartition
    for m in range(ch.p):
        ct = encrypt(desk_bundle.public, ch, m, rng)
        for j, cj in enumerate(ct.c):
            assert lift(ch.q, ch.eval(cj)) % rep.prime_of(j) == 0


def test_public_encryptions_sit_in_their_space(desk_bundle, rng):
    ch = desk_bundle.channel
    for m in range(ch.p):
        ct = encrypt(desk_bundle.public, ch, m, rng)
        assert in_encryption_space(
            desk_bundle.secret, desk_bundle.public.repartition, ch, ct, m, fresh_level(ch)
        )


def test_secret_formula_residual_is_leveled_noise(desk_bundle, rng):
    ch = desk_bundle.channel
    sk, rep = desk_bundle.secret, desk_bundle.public.repartition
    for _ in range(1000):
        m, k = rng.below(ch.q), rng.below(50)
        ct = encrypt_with_secret(sk, rep, ch, m, k, rng)
        assert ct.level == k
        residual = ct.cprime - poly_vector_dot(ct.c, sk.polys)
        carrier_gap = residual - sample_message_carrier(ch, m, rng)
        # evaluation of (residual - any carrier of m) is the pure noise term
        assert in_noise_space(ch, carrier_gap, k)
        assert in_encryption_space(sk, rep, ch, ct, m, k)


def test_message_normalization(desk_bundle, rng):
    """Full Z_q messages decrypt to their mod-p digit while the quotient
    fits in the remaining budget."""
    ch = desk_bundle.channel
    sk, rep = desk_bundle.secret, desk_bundle.public.repartition
    budget = ch.max_noise_level()
    for _ in range(300):
        m = rng.below(ch.q)
        k = rng.below(20)
        if k + m // ch.p > budget:
            continue
        ct = encrypt_with_secret(sk, rep, ch, m, k, rng)
        ct = Ciphertext(ct.c, ct.cprime, k + m // ch.p)  # certified after normalization
        assert decrypt(sk, ch, ct) == m % ch.p


def test_worked_normalization_case(desk_bundle, rng):
    ch = desk_bundle.channel
    ct = encrypt_with_secret(desk_bundle.secret, desk_bundle.public.repartition, ch, 7, 2, rng)
    assert decrypt(desk_bundle.secret, ch, ct) == 7 % ch.p == 1


def test_identity_ciphertext_decrypts_directly(desk_bundle):
    ch = desk_bundle.channel
    for m in range(ch.p):
        ct = Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([m]), 0)
        assert decrypt(desk_bundle.secret, ch, ct) == m


@pytest.mark.parametrize("level", [4.5, 4.0, True, "4", None], ids=repr)
def test_ciphertext_refuses_a_non_integer_level(desk_channel, level):
    """A level of 4.5 was accepted and ``hom_mul`` of it with itself
    certified level 58.5; ``True`` read as 1 and ``"4"`` raised TypeError."""
    ch = desk_channel
    with pytest.raises(ParameterError, match="noise level must be an integer"):
        Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([1]), level)


def test_ciphertext_refuses_a_negative_level(desk_channel):
    ch = desk_channel
    with pytest.raises(ParameterError, match="noise level cannot be negative"):
        Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([1]), -1)


def test_decrypt_refuses_past_budget(desk_bundle):
    ch = desk_bundle.channel
    ct = Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([1]), ch.max_noise_level() + 1)
    with pytest.raises(NoiseBudgetError):
        decrypt(desk_bundle.secret, ch, ct)


def test_level_after_examples(desk_channel):
    ch = desk_channel
    assert level_after("add", 0, 0, ch) == 0
    assert level_after("mul", 1, 1, ch) == 6  # (1 + 1 + 1) * p
    assert level_after("mul", 60, 60, ch) == 7440
    assert level_after("add", 4000, 4000, ch) is None  # 8000 >= q/p
    assert level_after("mul", 4800, 4800, ch) is None
    with pytest.raises(ParameterError):
        level_after("xor", 1, 1, ch)


def test_level_guard_boundaries(desk_channel):
    ch = desk_channel
    # add guard: p * (k1 + k2) < q
    assert level_after("add", 3753, 3753, ch) == 7506
    assert level_after("add", 3754, 3754, ch) is None
    assert ch.max_noise_level() == 7506


def test_level_guards_stop_at_the_decrypt_budget(desk_channel):
    from aces.channel import ArithmeticChannel

    ch = desk_channel
    budget = ch.max_noise_level()
    assert level_after("add", 3753, 3753, ch) == budget
    assert level_after("add", 3753, 3754, ch) is None  # 7507 > 7506
    assert level_after("mul", 0, budget // 2, ch) == budget  # 2 * 3753
    assert level_after("mul", 0, budget // 2 + 1, ch) is None
    tiny = ArithmeticChannel(p=2, q=17, omega=1, u=(-1, 0, 1), n=1, big_n=1, k0=1).require_valid()
    assert tiny.max_noise_level() == 7
    assert level_after("mul", 0, 3, tiny) == 6
    assert level_after("mul", 0, 4, tiny) is None  # 8 > 7
    assert level_after("add", 3, 4, tiny) == 7
    assert level_after("add", 4, 4, tiny) is None


def test_every_admitted_level_decrypts(desk_bundle):
    """Whatever level_after admits, decrypt accepts: the two guards agree."""
    ch = desk_bundle.channel
    for k1, k2 in ((3753, 3753), (3753, 3754), (0, 3753), (1, 2501), (1, 2502)):
        for op in ("add", "mul"):
            level = level_after(op, k1, k2, ch)
            if level is None:
                continue
            ct = Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([1]), level)
            assert decrypt(desk_bundle.secret, ch, ct) == 1


def test_budget_predicate_is_the_decrypt_guard(desk_bundle):
    from aces.cipher import within_budget

    ch = desk_bundle.channel
    budget = ch.max_noise_level()
    assert within_budget(ch, budget) and not within_budget(ch, budget + 1)
    at = Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([1]), budget)
    assert decrypt(desk_bundle.secret, ch, at) == 1
    with pytest.raises(NoiseBudgetError):
        decrypt(desk_bundle.secret, ch, Ciphertext(at.c, at.cprime, budget + 1))


def test_packed_public_rows_are_built_on_first_encryption(desk_channel):
    from aces.keygen import PublicKey, keygen

    bundle = keygen(desk_channel, RandomSource(b"lazy-rows"))
    assert "rows" not in vars(bundle.public)  # keygen does not pay for them
    encrypt(bundle.public, desk_channel, 1, RandomSource(b"lazy-rows/enc"))
    rows = vars(bundle.public)["rows"]
    encrypt(bundle.public, desk_channel, 0, RandomSource(b"lazy-rows/enc"))
    assert bundle.public.rows is rows
    public = bundle.public
    loaded = PublicKey(public.seed, public.fprime, desk_channel, public.repartition)
    assert "rows" not in vars(loaded) and "f0" not in vars(loaded)  # nor is f0 expanded
    assert loaded == bundle.public  # the cache is not part of the key's value
    assert loaded.f0 == bundle.public.f0


def test_decrypt_refuses_a_ciphertext_of_the_wrong_length(desk_bundle, rng):
    ch = desk_bundle.channel
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    for c in (ct.c[:2], ct.c + ct.c[:1]):
        with pytest.raises(ParameterError, match=f"ciphertext has {len(c)} vector parts"):
            decrypt(desk_bundle.secret, ch, Ciphertext(c, ct.cprime, ct.level))


def test_refresh_is_due_when_the_headroom_falls_below_the_post_refresh_level(desk_bundle):
    """At desk the budget is 7506 and a refresh lands at 60: an ``add``
    reaching 7446 leaves exactly 60 of headroom, one more step leaves 59."""
    ch = desk_bundle.channel
    assert (ch.max_noise_level(), post_refresh_level(ch)) == (7506, 60)
    assert not refresh_due(ch, 60, "add", 3723, 3723, 3723)
    assert refresh_due(ch, 60, "add", 3723, 3724, 3723)
    assert refresh_due(ch, 60, "add", 3723, 3724, 3724)
    assert refresh_due(ch, 60, "mul", 60, 61, 61)  # (60 + 61 + 3660) * 2 = 7562: overflow


def test_refresh_is_due_only_where_the_gate_fits_at_the_post_refresh_level():
    """At p=3, q=5005 the budget is 1667 and a refresh lands at 127, where a
    ``mul`` of two such wires already overflows: (127 + 127 + 127^2) * 3 =
    49149, so no refresh is due for it."""
    ch = ArithmeticChannel(p=3, q=5005, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    assert level_after("mul", 127, 127, ch) is None
    for k1, k2 in [(128, 128), (200, 1000), (1667, 128)]:
        assert not refresh_due(ch, 127, "mul", k1, k2, k1)
        assert not refresh_due(ch, 127, "mul", k1, k2, k2)
    assert refresh_due(ch, 127, "add", 1000, 1000, 1000)  # 254 fits where 2000 does not
    # An operand below the post-refresh level keeps its own level in the
    # probe: (2 + 127 + 254) * 3 = 1149 fits.
    assert refresh_due(ch, 127, "mul", 2, 600, 600)
    assert not refresh_due(ch, 127, "mul", 2, 600, 2)


@pytest.mark.parametrize("k", [0, 1, 59, 60])
@pytest.mark.parametrize("op", ["add", "mul"])
def test_refresh_is_never_due_for_an_operand_at_or_below_the_post_refresh_level(
        desk_channel, op, k):
    ch = desk_channel
    budget = ch.max_noise_level()
    assert refresh_due(ch, 60, op, budget, k, budget)
    assert not refresh_due(ch, 60, op, budget, k, k)
    assert not refresh_due(ch, 60, op, k, budget, k)
