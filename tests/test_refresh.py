"""Tests for refreshability testing and the refresh operation."""

from fractions import Fraction

import pytest

from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import Ciphertext, decrypt, encrypt, encrypt_with_secret
from aces.errors import NoiseBudgetError
from aces.keygen import SecretKey, keygen
from aces.refresh import (
    director_index,
    locator_index,
    make_refreshable,
    margin,
    margin_test,
    post_refresh_level,
    public_locator_search,
    publicly_refreshable,
    refresh_ct,
    refreshable_index,
    secret_refresh_checker,
    shadow,
)
from aces.rings import lift

from oracles import floor_dot_over_q, margin_fraction

TINY = dict(p=2, q=15, omega=1, u=(-1, 0, 1), n=2, big_n=1, k0=1)


def _secret_evals(bundle):
    ch = bundle.channel
    return tuple(lift(ch.q, ch.eval(x)) for x in bundle.secret.polys)


# -- integer shadows --------------------------------------------------------


def test_shadow_of_zero_vector(desk_bundle):
    ch = desk_bundle.channel
    ct = Ciphertext(tuple(ch.zero() for _ in range(ch.n)), ch.constant(9), 0)
    ps = shadow(ch, ct)
    assert ps.v == (0,) * ch.n
    assert ps.vprime == 9


def test_shadow_negates_evaluations():
    ch = ArithmeticChannel(**TINY)
    ct = Ciphertext((ch.constant(1), ch.constant(0)), ch.constant(3), 0)
    assert shadow(ch, ct).v == (14, 0)


def test_shadow_matches_recomputation(desk_bundle, rng):
    ch = desk_bundle.channel
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    ps = shadow(ch, ct)
    for v, cj in zip(ps.v, ct.c):
        assert (v + ch.eval(cj)) % ch.q == 0


# -- margins ----------------------------------------------------------------


def test_margin_of_zero_vector(desk_bundle):
    ch = desk_bundle.channel
    assert margin(desk_bundle.secret, ch, (0,) * ch.n) == 0


def test_margin_of_exact_multiple():
    ch = ArithmeticChannel(**TINY)
    sk = SecretKey((ch.constant(3), ch.constant(4)))
    # dot product of (1, 3) with (3, 4) is 15, an exact multiple of q
    assert margin(sk, ch, (1, 3)) == 0


def test_margin_matches_rational_oracle(desk_bundle, rng):
    ch = desk_bundle.channel
    evals = _secret_evals(desk_bundle)
    for _ in range(200):
        vec = tuple(rng.below(ch.q) for _ in range(ch.n))
        got = margin(desk_bundle.secret, ch, vec)
        assert got == margin_fraction(vec, evals, ch.q)
        assert 0 <= got < 1


# -- locators and directors -------------------------------------------------


def test_locator_single_slot_example():
    ch = ArithmeticChannel(p=2, q=9, omega=1, u=(-1, 0, 1), n=1, big_n=2, k0=1)
    sk = SecretKey((ch.constant(ch.p),))
    assert locator_index(sk, ch, (0,)) == 1  # sum is p, floor term is 0


def test_locator_index_against_definition(desk_bundle, rng):
    ch = desk_bundle.channel
    evals = _secret_evals(desk_bundle)
    total = sum(evals)
    hits = 0
    for _ in range(500):
        vec = tuple(rng.below(ch.q) for _ in range(ch.n))
        diff = total - floor_dot_over_q(vec, evals, ch.q)
        want = diff // ch.p if diff >= 0 and diff % ch.p == 0 else None
        assert locator_index(desk_bundle.secret, ch, vec) == want
        hits += want is not None
    assert hits > 0


def test_director_index_against_definition(desk_bundle, rng):
    ch = desk_bundle.channel
    evals = _secret_evals(desk_bundle)
    for _ in range(500):
        vec = tuple(rng.below(ch.q) for _ in range(ch.n))
        whole = floor_dot_over_q(vec, evals, ch.q)
        want = whole // ch.p if whole % ch.p == 0 else None
        assert director_index(desk_bundle.secret, ch, vec) == want


# -- refreshability ---------------------------------------------------------


def test_plain_ciphertext_is_refreshable_at_zero(desk_bundle):
    ch = desk_bundle.channel
    ct = Ciphertext(tuple(ch.zero() for _ in range(ch.n)), ch.constant(5), 0)
    assert refreshable_index(desk_bundle.secret, ch, ct) == 0


def test_some_ciphertexts_are_not_refreshable(desk_bundle, rng):
    ch = desk_bundle.channel
    seen_absent = False
    for _ in range(200):
        ct = encrypt(desk_bundle.public, ch, rng.below(ch.p), rng)
        if refreshable_index(desk_bundle.secret, ch, ct) is None:
            seen_absent = True
            break
    assert seen_absent


def test_margin_test_soundness(desk_bundle, rng):
    """A margin certificate never contradicts the exact identity."""
    ch = desk_bundle.channel
    certified = 0
    for _ in range(1000):
        if rng.below(2):
            ct = encrypt(desk_bundle.public, ch, rng.below(ch.p), rng)
        else:
            ct = encrypt_with_secret(
                desk_bundle.secret, desk_bundle.repartition, ch,
                rng.below(ch.p), rng.below(60), rng,
            )
        if margin_test(desk_bundle.secret, ch, ct):
            certified += 1
            assert refreshable_index(desk_bundle.secret, ch, ct) is not None
    assert certified > 100  # the certificate must not be vacuous


def test_margin_inequality_direction(desk_bundle, rng):
    """The certificate flips exactly where the headroom gap crosses the
    margin complement."""
    ch = desk_bundle.channel
    while True:
        ct = encrypt(desk_bundle.public, ch, 1, rng)
        vec = tuple(lift(ch.q, ch.eval(ci)) for ci in ct.c)
        if locator_index(desk_bundle.secret, ch, vec) is None:
            continue
        marg = margin(desk_bundle.secret, ch, vec)
        # smallest level at which (p*(k+1)-1)/q >= 1 - marg
        flip = next(
            k for k in range(ch.q // ch.p + 2)
            if Fraction(ch.p * (k + 1) - 1, ch.q) >= 1 - marg
        )
        if flip > 0:
            break
    assert margin_test(desk_bundle.secret, ch, Ciphertext(ct.c, ct.cprime, flip - 1))
    assert not margin_test(desk_bundle.secret, ch, Ciphertext(ct.c, ct.cprime, flip))


def test_refresh_refuses_oversized_refresher(desk_bundle, rng):
    from aces.keygen import Refresher

    ch = desk_bundle.channel
    bloated = Refresher((3000,) * ch.n, desk_bundle.refresher.rho)
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    with pytest.raises(NoiseBudgetError, match="accumulated"):
        refresh_ct(desk_bundle.public, ch, desk_bundle.tensor, bloated, ct, rng)


def test_refreshable_digit_identity(desk_bundle, rng):
    """For refreshable ciphertexts the mod-p digits of the shadow decrypt
    the message directly."""
    ch = desk_bundle.channel
    evals = _secret_evals(desk_bundle)
    checked = 0
    for _ in range(300):
        m = rng.below(ch.p)
        ct = encrypt(desk_bundle.public, ch, m, rng)
        if refreshable_index(desk_bundle.secret, ch, ct) is None:
            continue
        checked += 1
        ps = shadow(ch, ct)
        got = (ps.vprime % ch.p + sum(
            (v % ch.p) * (x % ch.p) for v, x in zip(ps.v, evals)
        )) % ch.p
        assert got == m
    assert checked > 50


# -- public locator search --------------------------------------------------


def test_search_empty_db_is_unknown(desk_bundle):
    ch = desk_bundle.channel
    assert not public_locator_search([], ch, (1,) * ch.n).verified


def test_search_depth_zero_match(desk_bundle):
    ch = desk_bundle.channel
    entry = next(e for e in desk_bundle.locators if e.kind == "locator")
    verdict = public_locator_search(desk_bundle.locators, ch, entry.vec)
    assert verdict.verified
    assert verdict.k == entry.k
    assert verdict.margin == Fraction(entry.margin_num, ch.q)


def test_search_derived_combinations_match_secret_oracle(desk_channel):
    """Every verified +/- combination agrees with the secret-side index and
    margin, across several keys."""
    ch = desk_channel
    checked = 0
    for seed in range(6):
        bundle = keygen(ch, RandomSource(b"combo" + bytes([seed])),
                        n_locators=5, n_directors=8)
        locs = [e for e in bundle.locators if e.kind == "locator"]
        dirs = [e for e in bundle.locators if e.kind == "director"]
        for loc in locs:
            for d in dirs:
                for sign in (1, -1):
                    vec = tuple(a + sign * b for a, b in zip(loc.vec, d.vec))
                    if any(not 0 <= v < ch.q for v in vec):
                        continue
                    verdict = public_locator_search(bundle.locators, ch, vec)
                    if not verdict.verified:
                        continue
                    checked += 1
                    assert locator_index(bundle.secret, ch, vec) == verdict.k
                    assert margin(bundle.secret, ch, vec) == verdict.margin
    assert checked > 10


def test_sampled_db_entries_verify(desk_bundle):
    ch = desk_bundle.channel
    for e in desk_bundle.locators:
        if e.kind == "locator":
            assert locator_index(desk_bundle.secret, ch, e.vec) == e.k
        else:
            assert director_index(desk_bundle.secret, ch, e.vec) == e.k
        assert margin(desk_bundle.secret, ch, e.vec) == Fraction(e.margin_num, ch.q)


# -- the refresh operation --------------------------------------------------


def test_post_refresh_level_closed_form(desk_bundle):
    # p=2, n=3, N=2, unit refresher levels: 4 + 3*2*(1+4+4) = 58, plus
    # floor((1 + 3) / 2) = 2.
    assert post_refresh_level(desk_bundle.channel, desk_bundle.refresher) == 60


def test_refresh_preserves_plaintext(desk_bundle, rng):
    ch = desk_bundle.channel
    done = 0
    while done < 60:
        m = rng.below(ch.p)
        ct = encrypt(desk_bundle.public, ch, m, rng)
        if not margin_test(desk_bundle.secret, ch, ct):
            continue
        fresh = refresh_ct(
            desk_bundle.public, ch, desk_bundle.tensor, desk_bundle.refresher, ct, rng
        )
        assert fresh.level == 60
        assert decrypt(desk_bundle.secret, ch, fresh) == m
        done += 1


def test_refresh_level_is_input_independent(desk_bundle, rng):
    """Refreshing an already-refreshed ciphertext lands on the same level."""
    ch = desk_bundle.channel
    while True:
        ct = encrypt(desk_bundle.public, ch, 1, rng)
        if margin_test(desk_bundle.secret, ch, ct):
            break
    once = refresh_ct(desk_bundle.public, ch, desk_bundle.tensor, desk_bundle.refresher, ct, rng)
    ready = make_refreshable(
        once, lambda c: margin_test(desk_bundle.secret, ch, c),
        desk_bundle.public, ch, rng,
    )
    twice = refresh_ct(desk_bundle.public, ch, desk_bundle.tensor, desk_bundle.refresher, ready, rng)
    assert once.level == twice.level == 60
    assert decrypt(desk_bundle.secret, ch, twice) == 1


def test_refresh_refuses_past_budget(desk_bundle, rng):
    ch = desk_bundle.channel
    ct = Ciphertext(
        tuple(ch.zero() for _ in range(ch.n)), ch.constant(1), ch.max_noise_level() + 1
    )
    with pytest.raises(NoiseBudgetError):
        refresh_ct(desk_bundle.public, ch, desk_bundle.tensor, desk_bundle.refresher, ct, rng)


def test_make_refreshable_with_secret_checker(desk_bundle, rng):
    ch = desk_bundle.channel
    checker = lambda c: margin_test(desk_bundle.secret, ch, c)
    for m in range(ch.p):
        ct = encrypt(desk_bundle.public, ch, m, rng)
        ready = make_refreshable(ct, checker, desk_bundle.public, ch, rng)
        assert ready is not None
        assert decrypt(desk_bundle.secret, ch, ready) == m
        fresh = refresh_ct(
            desk_bundle.public, ch, desk_bundle.tensor, desk_bundle.refresher, ready, rng
        )
        assert decrypt(desk_bundle.secret, ch, fresh) == m


def test_publicly_refreshable_is_sound(desk_bundle, rng):
    """Whenever the public test passes, the secret-side tests agree."""
    ch = desk_bundle.channel
    verified = 0
    # Random ciphertexts essentially never match the db; also check targets
    # built to hit it.
    for e in desk_bundle.locators:
        if e.kind != "locator":
            continue
        ct = encrypt(desk_bundle.public, ch, 0, rng)
        # Graft the locator evaluations onto a ciphertext shape: the public
        # test only reads the vector evaluations and the level.
        graft = Ciphertext(
            tuple(ch.constant(v) for v in e.vec), ct.cprime, 0
        )
        if publicly_refreshable(desk_bundle.locators, ch, graft):
            verified += 1
            assert locator_index(desk_bundle.secret, ch, e.vec) is not None
    assert verified > 0


def test_refresh_refuses_an_accumulated_level_past_the_budget(rng):
    """k_star = 4 + 3 * 2 * (1 + 4 + 4) = 58 at p=2, N=2; q = 117 leaves a
    budget of 57, which the refresh guard must refuse before any work."""
    from aces.keygen import Refresher

    ch = ArithmeticChannel(p=2, q=117, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    ch.require_valid()
    assert ch.max_noise_level() == 57
    ct = Ciphertext(tuple(ch.zero() for _ in range(ch.n)), ch.constant(1), 0)
    with pytest.raises(NoiseBudgetError, match="accumulated level 58"):
        refresh_ct(None, ch, None, Refresher((1, 1, 1), ()), ct, rng)


@pytest.mark.parametrize("q", [119, 121])
def test_refresh_refuses_a_post_refresh_level_past_the_budget(q):
    """At p=2, N=2 the accumulated level is 58 and the post-refresh level 60.
    Budgets 58 (q=119) and 59 (q=121) admit the first but not the second, so
    the refresh must refuse rather than emit a level-60 ciphertext."""
    ch = ArithmeticChannel(p=2, q=q, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    ch.require_valid()
    rng = RandomSource(b"edge")
    bundle = keygen(ch, rng)
    assert ch.max_noise_level() < post_refresh_level(ch, bundle.refresher) == 60
    ct = encrypt(bundle.public, ch, 1, rng)
    ready = make_refreshable(ct, secret_refresh_checker(bundle.secret, ch), bundle.public, ch, rng)
    assert ready is not None
    with pytest.raises(NoiseBudgetError, match="accumulated level 58"):
        refresh_ct(bundle.public, ch, bundle.tensor, bundle.refresher, ready, rng)


def test_refresh_at_a_budget_equal_to_the_post_refresh_level():
    ch = ArithmeticChannel(p=2, q=123, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    ch.require_valid()
    rng = RandomSource(b"edge")
    bundle = keygen(ch, rng)
    assert ch.max_noise_level() == post_refresh_level(ch, bundle.refresher) == 60
    ct = encrypt(bundle.public, ch, 1, rng)
    ready = make_refreshable(ct, secret_refresh_checker(bundle.secret, ch), bundle.public, ch, rng)
    fresh = refresh_ct(bundle.public, ch, bundle.tensor, bundle.refresher, ready, rng)
    assert fresh.level == 60
    assert decrypt(bundle.secret, ch, fresh) == 1


def test_make_refreshable_gives_up_after_the_attempt_budget(desk_bundle, rng):
    from aces.refresh import REFRESH_ATTEMPTS

    ch = desk_bundle.channel
    calls = []
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    assert make_refreshable(ct, lambda c: calls.append(c.level) and False,
                            desk_bundle.public, ch, rng) is None
    assert len(calls) == REFRESH_ATTEMPTS
    assert calls == [ct.level * (1 + i) for i in range(REFRESH_ATTEMPTS)]
