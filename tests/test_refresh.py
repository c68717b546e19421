"""Tests for refreshability testing and the refresh operation."""

import dataclasses
import functools
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aces import refresh, serial
from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import (
    Ciphertext, _lifted_sum, decrypt, encrypt, encrypt_with_secret, evals, fresh_level,
    has_refresh_headroom, post_refresh_level, shadow,
)
from aces.errors import NoiseBudgetError, ParameterError
from aces.homo import hom_mul
from aces.keygen import ProductTensor, PublicKey, Refresher, SecretKey, keygen
from aces.refresh import (
    EvalKeys,
    director_index,
    draw_refresh,
    locator_index,
    make_refreshable,
    margin,
    margin_test,
    public_certificates,
    publicly_refreshable,
    refresh_ct,
    refreshable_index,
    sample_locator_db,
    secret_refresh_checker,
)
from aces.rings import PackedRows, RingPoly, lift

from conftest import MICRO
from oracles import (floor_dot_over_q, headroom_reference, make_refreshable_reference,
                     margin_fraction, planes, public_search_reference, refresh_reference)

TINY = dict(p=2, q=15, omega=1, u=(-1, 0, 1), n=2, big_n=1, k0=1)


def _secret_evals(bundle):
    ch = bundle.channel
    return tuple(lift(ch.q, ch.eval(x)) for x in bundle.secret.polys)


# -- integer shadows --------------------------------------------------------


def test_shadow_of_zero_vector(desk_bundle):
    ch = desk_bundle.channel
    ct = Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([9]), 0)
    ps = shadow(ch, ct)
    assert ps.v == (0,) * ch.n
    assert ps.vprime == 9


def test_shadow_negates_evaluations():
    ch = ArithmeticChannel(**TINY)
    ct = Ciphertext((ch.ring.poly([1]), ch.ring.poly([0])), ch.ring.poly([3]), 0)
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
    sk = SecretKey((ch.ring.poly([3]), ch.ring.poly([4])))
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
    sk = SecretKey((ch.ring.poly([ch.p]),))
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
    ct = Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([5]), 0)
    assert refreshable_index(desk_bundle.secret, ch, shadow(ch, ct)) == 0


def test_some_ciphertexts_are_not_refreshable(desk_bundle, rng):
    ch = desk_bundle.channel
    seen_absent = False
    for _ in range(200):
        ct = encrypt(desk_bundle.public, ch, rng.below(ch.p), rng)
        if refreshable_index(desk_bundle.secret, ch, shadow(ch, ct)) is None:
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
                desk_bundle.secret, desk_bundle.public.repartition, ch,
                rng.below(ch.p), rng.below(60), rng,
            )
        ps = shadow(ch, ct)
        if margin_test(desk_bundle.secret, ch, ps):
            certified += 1
            assert refreshable_index(desk_bundle.secret, ch, ps) is not None
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
    assert margin_test(desk_bundle.secret, ch, shadow(ch, Ciphertext(ct.c, ct.cprime, flip - 1)))
    assert not margin_test(desk_bundle.secret, ch, shadow(ch, Ciphertext(ct.c, ct.cprime, flip)))


@pytest.mark.parametrize("params", [
    MICRO, dict(p=3, q=35, omega=1, u=(-1, 0, 1), n=2, big_n=1, k0=1),
], ids=["micro", "p3-micro"])
def test_integer_headroom_matches_the_rational_inequality(params):
    """``has_refresh_headroom`` on the margin's numerator over q decides as
    the rational inequality does, at every level from 0 to one past the
    budget and every numerator from 0 to q - 1."""
    ch = ArithmeticChannel(**params).require_valid()
    for level in range(ch.max_noise_level() + 2):
        for num in range(ch.q):
            want = headroom_reference(ch, level, Fraction(num, ch.q))
            assert has_refresh_headroom(ch, level, num) == want, (level, num)


def test_refreshable_digit_identity(desk_bundle, rng):
    """For refreshable ciphertexts the mod-p digits of the shadow decrypt
    the message directly."""
    ch = desk_bundle.channel
    evals = _secret_evals(desk_bundle)
    checked = 0
    for _ in range(300):
        m = rng.below(ch.p)
        ps = shadow(ch, encrypt(desk_bundle.public, ch, m, rng))
        if refreshable_index(desk_bundle.secret, ch, ps) is None:
            continue
        checked += 1
        got = (ps.vprime % ch.p + sum(
            (v % ch.p) * (x % ch.p) for v, x in zip(ps.v, evals)
        )) % ch.p
        assert got == m
    assert checked > 50


# -- public locator search --------------------------------------------------


def test_search_empty_db_is_unknown(desk_bundle):
    ch = desk_bundle.channel
    assert public_certificates([], ch) == {}
    keys = EvalKeys(desk_bundle.public, desk_bundle.tensor, desk_bundle.refresher, ())
    ct = Ciphertext(tuple(ch.ring.poly([1]) for _ in range(ch.n)), ch.ring.poly([1]), 0)
    assert not publicly_refreshable(keys, shadow(ch, ct))


def test_search_depth_zero_match(desk_bundle):
    ch = desk_bundle.channel
    entry = next(e for e in desk_bundle.locators if e.kind == "locator")
    k, num = public_certificates(desk_bundle.locators, ch)[entry.vec]
    assert (k, Fraction(num, ch.q)) == (entry.k, Fraction(entry.margin_num, ch.q))


def test_search_derived_combinations_match_secret_oracle(desk_channel, monkeypatch):
    """Every certified target agrees with the secret-side index and margin,
    across several keys (databases of 5 locators and 8 directors)."""
    ch = desk_channel
    monkeypatch.setattr(refresh, "DB_LOCATORS", 5)
    monkeypatch.setattr(refresh, "DB_DIRECTORS", 8)
    checked = 0
    for seed in range(6):
        rng = RandomSource(b"combo" + bytes([seed]))
        bundle = keygen(ch, rng)
        db = sample_locator_db(bundle.secret, ch, rng)
        for vec, (k, num) in public_certificates(db, ch).items():
            checked += 1
            assert locator_index(bundle.secret, ch, vec) == k
            assert margin(bundle.secret, ch, vec) == Fraction(num, ch.q)
    assert checked > 10


# Keys are seeded ``search-reference/<i>`` for i below the count.  At desk,
# key 3 also has a decomposition that passes the window and index tests with
# a negative combined margin, which the search refuses.
@pytest.mark.parametrize("params, keys", [
    (dict(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1), 4),
    (dict(p=3, q=5 * 7 * 11 * 13, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1), 4),
    (dict(p=2, q=3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37, omega=1,
          u=(-1,) + (0,) * 15 + (1,), n=6, big_n=4, k0=1), 1),
], ids=["desk", "p3", "mid"])
def test_search_matches_reference_on_hits_and_misses(params, keys):
    """The table gives the verdicts of the search that certified every
    candidate: on ``loc +/- d1 +/- d2`` built from the database (in and out
    of range), on random vectors and on a vector of the wrong length."""
    ch = ArithmeticChannel(**params).require_valid()
    for seed in range(keys):
        db = keygen(ch, RandomSource(b"search-reference/%d" % seed)).locators
        locs = [e for e in db if e.kind == "locator"]
        dirs = [e for e in db if e.kind == "director"]
        targets = []
        for loc in locs:
            for r in range(3):
                for combo in combinations_with_replacement(dirs, r):
                    for signs in product((1, -1), repeat=r):
                        vec = tuple(v + sum(s * e.vec[i] for s, e in zip(signs, combo))
                                    for i, v in enumerate(loc.vec))
                        if all(0 <= v < ch.q for v in vec):
                            targets.append(vec)
        rng = RandomSource(b"search-reference/miss")
        targets += [tuple(rng.below(ch.q) for _ in range(ch.n)) for _ in range(20)]
        vec = locs[0].vec
        targets += [(vec[0] + ch.q,) + vec[1:], (vec[0] - ch.q,) + vec[1:], vec + (0,)]
        table = public_certificates(db, ch)
        for target in targets:
            found = table.get(target)
            rational = None if found is None else (found[0], Fraction(found[1], ch.q))
            assert rational == public_search_reference(db, ch, target)
        hits = set(table).intersection(targets)
        assert 0 < len(hits) < len(set(targets))
        assert hits == set(table)


def test_public_certificates_are_built_once(desk_bundle, monkeypatch):
    """Two public checks with one ``EvalKeys`` build its table once."""
    b, ch = desk_bundle, desk_bundle.channel
    keys = EvalKeys(b.public, b.tensor, b.refresher, b.locators)
    builds = []
    monkeypatch.setattr(refresh, "public_certificates",
                        lambda *args: builds.append(args) or public_certificates(*args))
    assert "public_certificates" not in vars(keys)
    loc = next(e for e in b.locators if e.kind == "locator")
    hit = Ciphertext(tuple(ch.ring.poly([v]) for v in loc.vec), ch.ring.poly([0]), 0)
    miss = encrypt(b.public, ch, 1, RandomSource(b"built-once"))
    assert publicly_refreshable(keys, shadow(ch, hit))
    assert not publicly_refreshable(keys, shadow(ch, miss))
    assert builds == [(b.locators, ch)]


def test_sampled_db_entries_verify(desk_bundle):
    ch = desk_bundle.channel
    for e in desk_bundle.locators:
        if e.kind == "locator":
            assert locator_index(desk_bundle.secret, ch, e.vec) == e.k
        else:
            assert director_index(desk_bundle.secret, ch, e.vec) == e.k
        assert margin(desk_bundle.secret, ch, e.vec) == Fraction(e.margin_num, ch.q)


# -- the refresh operation --------------------------------------------------


def test_post_refresh_level_closed_form():
    """The level depends on the channel alone, so no key is made: with the
    fresh level k_d = N*p*k0 and unit refresher levels it is k_d +
    n*p*(1 + 2*k_d) plus floor(((p-1) + n(p-1)^2) / p).  At desk (p=2,
    n=3, N=2) that is 4 + 3*2*9 + 2 = 60, at mid (p=2, n=6, N=4) 8 + 6*2*17
    + 3 = 215 and at large (p=3, n=10, N=8) 24 + 10*3*49 + 14 = 1508."""
    channels = {
        60: (2, 15015, 4, 3, 2),
        215: (2, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37, 16, 6, 4),
        1508: (3, 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47, 64, 10, 8),
    }
    for want, (p, q, degree, n, big_n) in channels.items():
        ch = ArithmeticChannel(p=p, q=q, omega=1, u=(-1,) + (0,) * (degree - 1) + (1,),
                               n=n, big_n=big_n, k0=1).require_valid()
        assert post_refresh_level(ch) == want


def test_refresh_preserves_plaintext(desk_bundle, rng):
    ch = desk_bundle.channel
    done = 0
    while done < 60:
        m = rng.below(ch.p)
        ps = shadow(ch, encrypt(desk_bundle.public, ch, m, rng))
        if not margin_test(desk_bundle.secret, ch, ps):
            continue
        fresh = refresh_ct(desk_bundle, ps, rng)
        assert fresh.level == 60
        assert decrypt(desk_bundle.secret, ch, fresh) == m
        done += 1


def test_refresh_level_is_input_independent(desk_bundle, rng):
    """Refreshing an already-refreshed ciphertext lands on the same level."""
    ch = desk_bundle.channel
    while True:
        ps = shadow(ch, encrypt(desk_bundle.public, ch, 1, rng))
        if margin_test(desk_bundle.secret, ch, ps):
            break
    once = refresh_ct(desk_bundle, ps, rng)
    ready = make_refreshable(
        shadow(ch, once), lambda c: margin_test(desk_bundle.secret, ch, c),
        desk_bundle.public, rng,
    )
    twice = refresh_ct(desk_bundle, ready, rng)
    assert once.level == twice.level == 60
    assert decrypt(desk_bundle.secret, ch, twice) == 1


def test_refresh_refuses_past_budget(desk_bundle, rng):
    ch = desk_bundle.channel
    ct = Ciphertext(
        tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([1]), ch.max_noise_level() + 1
    )
    with pytest.raises(NoiseBudgetError):
        refresh_ct(desk_bundle, shadow(ch, ct), rng)


def test_make_refreshable_with_secret_checker(desk_bundle, rng):
    ch = desk_bundle.channel
    checker = lambda c: margin_test(desk_bundle.secret, ch, c)
    for m in range(ch.p):
        ct = encrypt(desk_bundle.public, ch, m, rng)
        ready = make_refreshable(shadow(ch, ct), checker, desk_bundle.public, rng)
        assert ready is not None
        assert _lifted_sum(evals(ch, desk_bundle.secret.polys), ready) % ch.q % ch.p == m
        fresh = refresh_ct(desk_bundle, ready, rng)
        assert decrypt(desk_bundle.secret, ch, fresh) == m


def test_refresh_certified_defaults_to_the_public_test(desk_bundle, rng, monkeypatch):
    """A ``checker`` of None is ``publicly_refreshable`` on the evaluation
    keys: with the key owner's exact check in its place a desk
    ciphertext is refreshed, and with the real one a random ciphertext is
    not certified within the attempt budget."""
    ch, keys = desk_bundle.channel, desk_bundle
    exact, seen = secret_refresh_checker(desk_bundle.secret, ch), []
    real = refresh.publicly_refreshable
    monkeypatch.setattr(refresh, "publicly_refreshable",
                        lambda checked, ct: seen.append(checked) or exact(ct))
    for m in range(ch.p):
        fresh = refresh.refresh_certified(keys, encrypt(desk_bundle.public, ch, m, rng), None, rng)
        assert fresh.level == post_refresh_level(ch)
        assert decrypt(desk_bundle.secret, ch, fresh) == m
    assert seen and all(checked is keys for checked in seen)
    monkeypatch.setattr(refresh, "publicly_refreshable", real)
    ring = ch.ring
    ct = Ciphertext(tuple(ring.poly(rng.draws(ch.q, ch.degree)) for _ in range(ch.n)),
                    ring.poly(rng.draws(ch.q, ch.degree)), 4)
    assert refresh.refresh_certified(keys, ct, None, rng) is None


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
            tuple(ch.ring.poly([v]) for v in e.vec), ct.cprime, 0
        )
        if publicly_refreshable(desk_bundle, shadow(ch, graft)):
            verified += 1
            assert locator_index(desk_bundle.secret, ch, e.vec) is not None
    assert verified > 0


def test_refresh_refuses_an_accumulated_level_past_the_budget(rng):
    """k_star = 4 + 3 * 2 * (1 + 4 + 4) = 58 at p=2, N=2; q = 117 leaves a
    budget of 57, which the refresh guard must refuse before any work."""
    ch = ArithmeticChannel(p=2, q=117, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    ch.require_valid()
    assert ch.max_noise_level() == 57
    ct = Ciphertext(tuple(ch.ring.zero() for _ in range(ch.n)), ch.ring.poly([1]), 0)
    keys = EvalKeys(PublicKey(bytes(16), (), ch, None), None,
                    Refresher(bytes(16), (ch.ring.zero(),) * 3), ())
    with pytest.raises(NoiseBudgetError, match="accumulated level 58"):
        refresh_ct(keys, shadow(ch, ct), rng)
    assert "refresh_rows" not in vars(keys)


@pytest.mark.parametrize("q", [119, 121])
def test_refresh_refuses_a_post_refresh_level_past_the_budget(q):
    """At p=2, N=2 the accumulated level is 58 and the post-refresh level 60.
    Budgets 58 (q=119) and 59 (q=121) admit the first but not the second, so
    the refresh must refuse rather than emit a level-60 ciphertext."""
    ch = ArithmeticChannel(p=2, q=q, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    ch.require_valid()
    rng = RandomSource(b"edge")
    bundle = keygen(ch, rng)
    assert ch.max_noise_level() < post_refresh_level(ch) == 60
    ct = encrypt(bundle.public, ch, 1, rng)
    ready = make_refreshable(shadow(ch, ct), secret_refresh_checker(bundle.secret, ch),
                             bundle.public, rng)
    assert ready is not None
    with pytest.raises(NoiseBudgetError, match="accumulated level 58"):
        refresh_ct(bundle, ready, rng)


def test_refresh_at_a_budget_equal_to_the_post_refresh_level():
    ch = ArithmeticChannel(p=2, q=123, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    ch.require_valid()
    rng = RandomSource(b"edge")
    bundle = keygen(ch, rng)
    assert ch.max_noise_level() == post_refresh_level(ch) == 60
    ct = encrypt(bundle.public, ch, 1, rng)
    ready = make_refreshable(shadow(ch, ct), secret_refresh_checker(bundle.secret, ch),
                             bundle.public, rng)
    fresh = refresh_ct(bundle, ready, rng)
    assert fresh.level == 60
    assert decrypt(bundle.secret, ch, fresh) == 1


def test_make_refreshable_gives_up_after_the_attempt_budget(desk_bundle, rng):
    from aces.refresh import REFRESH_ATTEMPTS

    ch = desk_bundle.channel
    calls = []
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    assert make_refreshable(shadow(ch, ct), lambda c: calls.append(c.level) and False,
                            desk_bundle.public, rng) is None
    assert len(calls) == REFRESH_ATTEMPTS
    assert calls == [ct.level * (1 + i) for i in range(REFRESH_ATTEMPTS)]


def test_a_refresh_draws_carriers_only_for_its_ciphertext(desk_bundle, rng, monkeypatch):
    """A carrier is drawn only where a ciphertext is read: an exhausted
    public miss (32 checks and the 31 attempts between them) draws none,
    ``draw_refresh`` draws none, and ``DrawnRefresh.ciphertext`` expands
    exactly (n+1)(N+1), one per mask value and then one per digit, in
    ``values`` order."""
    from aces import channel, cipher
    from aces.refresh import REFRESH_ATTEMPTS

    ch, keys, carriers, checks = desk_bundle.channel, desk_bundle, [], []
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    carrier, check = channel.sample_message_carrier, refresh.publicly_refreshable
    for module in (cipher, refresh):
        monkeypatch.setattr(module, "sample_message_carrier",
                            lambda ch, m, rng: carriers.append(m) or carrier(ch, m, rng))
    monkeypatch.setattr(refresh, "publicly_refreshable",
                        lambda *args: checks.append(args) or check(*args))
    assert refresh.refresh_certified(keys, ct, None, rng) is None
    assert (len(checks), carriers) == (REFRESH_ATTEMPTS, [])
    drawn = draw_refresh(keys, shadow(ch, ct), rng)
    assert carriers == []
    drawn.ciphertext(keys)
    assert carriers == list(drawn.values) and len(carriers) == (ch.n + 1) * (ch.big_n + 1)


def test_a_public_miss_multiplies_nothing(desk_bundle, rng, monkeypatch):
    """Re-randomization reads the public key's row shadows: with packed
    products and ``encrypt`` refused, a ciphertext that the public test
    never certifies still spends every attempt, and is not refreshed."""
    from aces import cipher
    from aces.refresh import REFRESH_ATTEMPTS

    ch, keys, checks = desk_bundle.channel, desk_bundle, []
    ct = encrypt(desk_bundle.public, ch, 1, rng)

    def refused(*args):
        raise AssertionError("a refresh attempt multiplied")

    real = refresh.publicly_refreshable
    monkeypatch.setattr(refresh, "publicly_refreshable",
                        lambda *args: checks.append(args) or real(*args))
    monkeypatch.setattr(PackedRows, "combine", refused)
    monkeypatch.setattr(cipher, "encrypt", refused)
    assert refresh.refresh_certified(keys, ct, None, rng) is None
    assert len(checks) == REFRESH_ATTEMPTS


def test_a_refresh_shadow_and_its_attempts_evaluate_no_polynomial(desk_bundle, rng, monkeypatch):
    """A drawn refresh's shadow and every re-randomization attempt read the
    values their masks and digits were drawn to: with the row shadows
    built, neither calls the channel's evaluation map."""
    ch, keys = desk_bundle.channel, desk_bundle
    ps = shadow(ch, encrypt(desk_bundle.public, ch, 1, rng))
    keys.row_shadows
    calls, real = [], ArithmeticChannel.eval
    monkeypatch.setattr(ArithmeticChannel, "eval", lambda self, v: calls.append(v) or real(self, v))
    drawn = draw_refresh(keys, ps, rng)
    got = drawn.shadow(keys)
    assert make_refreshable(ps, lambda c: False, desk_bundle.public, rng) is None
    assert calls == []
    monkeypatch.undo()
    assert got == shadow(ch, drawn.ciphertext(keys))


def test_make_refreshable_stops_at_the_noise_budget(desk_bundle, rng):
    """A failed check at a level that no encryption of zero can join within
    the budget gives up at once."""
    ch, checks = desk_bundle.channel, []
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    top = Ciphertext(ct.c, ct.cprime, ch.max_noise_level() - ct.level + 1)
    assert make_refreshable(shadow(ch, top), lambda c: checks.append(c.level) and False,
                            desk_bundle.public, rng) is None
    assert checks == [top.level]


# Channels on which re-randomizing the shadow is checked against the
# polynomial loop: desk, a p = 3 micro channel and mid.
SHADOW_CHANNELS = {
    "desk": dict(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1),
    "p3": dict(p=3, q=5 * 7 * 11, omega=1, u=(-1, 0, 0, 0, 1), n=2, big_n=2, k0=1),
    "mid": dict(p=2, q=3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37, omega=1,
                u=(-1,) + (0,) * 15 + (1,), n=6, big_n=4, k0=1),
}


@functools.lru_cache(maxsize=None)
def _shadow_bundle(name):
    ch = ArithmeticChannel(**SHADOW_CHANNELS[name]).require_valid()
    return keygen(ch, RandomSource(b"shadow/" + name.encode()))


def _check_against_the_polynomial_loop(name, seed, start, fails):
    """``make_refreshable`` on the shadow of an encryption at level
    ``start``, with a checker that fails ``fails`` times, against
    ``make_refreshable_reference`` on the ciphertext: the same outcome,
    the shadow of the same ciphertext, the same checked shadows in the same
    order, and the same next draw."""
    bundle = _shadow_bundle(name)
    ch, pk = bundle.channel, bundle.public
    rng = RandomSource(seed)
    made = encrypt(pk, ch, rng.below(ch.p), rng)
    ct = Ciphertext(made.c, made.cprime, start)

    def failing(seen):
        return lambda c: seen.append(c) or len(seen) > fails

    checked, want_checked = [], []
    rng, want_rng = RandomSource(seed + b"/attempts"), RandomSource(seed + b"/attempts")
    got = make_refreshable(shadow(ch, ct), failing(checked), pk, rng)
    want = make_refreshable_reference(ct, failing(want_checked), pk, ch, want_rng)
    assert got == (None if want is None else shadow(ch, want))
    assert checked == [shadow(ch, c) for c in want_checked]
    assert rng.below(2**64) == want_rng.below(2**64)
    return got


@given(name=st.sampled_from(sorted(SHADOW_CHANNELS)), seed=st.binary(max_size=8),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_make_refreshable_matches_the_polynomial_loop(name, seed, data):
    """Re-randomizing the shadow is re-randomizing the ciphertext, read
    through its shadow, from levels near zero and near the budget."""
    from aces.refresh import REFRESH_ATTEMPTS

    ch = _shadow_bundle(name).channel
    budget, fresh = ch.max_noise_level(), fresh_level(ch)
    start = data.draw(st.integers(0, 3 * fresh)
                      | st.integers(0, 3 * fresh).map(lambda k: budget - k), label="start level")
    fails = data.draw(st.integers(0, REFRESH_ATTEMPTS), label="failed checks")
    _check_against_the_polynomial_loop(name, seed, start, fails)


@pytest.mark.parametrize("name", sorted(SHADOW_CHANNELS))
def test_make_refreshable_refuses_past_the_budget_after_the_draws(name):
    """A fresh step below the budget, one attempt fits and the next would
    pass it: that attempt draws its encryption of zero and is then refused,
    as ``hom_add`` refuses the sum."""
    from aces.refresh import REFRESH_ATTEMPTS

    ch = _shadow_bundle(name).channel
    start = ch.max_noise_level() - fresh_level(ch)
    assert _check_against_the_polynomial_loop(name, b"edge", start, REFRESH_ATTEMPTS) is None


# Channels on which a drawn refresh is read against its ciphertext, with
# keygen keys: desk, the p = 3 channel at q = 5005 and mid.
DRAWN_CHANNELS = {
    "desk": SHADOW_CHANNELS["desk"],
    "p3": dict(p=3, q=5005, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1),
    "mid": SHADOW_CHANNELS["mid"],
}


@functools.lru_cache(maxsize=None)
def _drawn_bundle(name):
    ch = ArithmeticChannel(**DRAWN_CHANNELS[name]).require_valid()
    return keygen(ch, RandomSource(b"drawn/" + name.encode()))


@given(name=st.sampled_from(sorted(DRAWN_CHANNELS)), seed=st.binary(max_size=8),
       squared=st.booleans())
@settings(max_examples=40, deadline=None)
def test_a_drawn_refresh_reads_as_its_ciphertext(name, seed, squared):
    """On keygen keys, a refresh that the owner's checker certifies, of a
    fresh encryption or of its square, has the shadow of the ciphertext it
    expands to, at the post-refresh level, and that ciphertext decrypts to
    the input's message."""
    bundle = _drawn_bundle(name)
    ch, rng = bundle.channel, RandomSource(seed)
    m = rng.below(ch.p)
    ct = encrypt(bundle.public, ch, m, rng)
    if squared:
        ct, m = hom_mul(ch, bundle.tensor, ct, ct), m * m % ch.p
    drawn = refresh.draw_certified(bundle, shadow(ch, ct),
                                   secret_refresh_checker(bundle.secret, ch), rng)
    got = drawn.ciphertext(bundle)
    assert drawn.shadow(bundle) == shadow(ch, got)
    assert got.level == drawn.level == post_refresh_level(ch)
    assert decrypt(bundle.secret, ch, got) == m


# -- wrong-length vectors ----------------------------------------------------


@pytest.mark.parametrize("length", [0, 2, 4])
def test_secret_side_tests_refuse_wrong_length_vectors(desk_bundle, length):
    """A vector or ciphertext whose length is not n is refused, never read
    against a truncated secret."""
    ch, sk = desk_bundle.channel, desk_bundle.secret
    vec = (5,) * length
    for test in (margin, locator_index, director_index):
        with pytest.raises(ParameterError, match=f"vector has {length} entries"):
            test(sk, ch, vec)
    ct = Ciphertext(tuple(ch.ring.poly([5]) for _ in range(length)), ch.ring.poly([1]), 0)
    with pytest.raises(ParameterError, match=f"vector has {length} entries"):
        margin_test(sk, ch, shadow(ch, ct))


def test_refresh_refuses_a_wrong_length_ciphertext(desk_bundle, rng):
    ch = desk_bundle.channel
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    short = Ciphertext(ct.c[:2], ct.cprime, ct.level)
    with pytest.raises(ParameterError, match="2 vector parts"):
        refresh_ct(desk_bundle, shadow(ch, short), rng)
    with pytest.raises(ParameterError, match="2 vector parts"):
        make_refreshable(shadow(ch, short), lambda c: False, desk_bundle.public, rng)


# Shadows that no ciphertext over the channel has, by name: each is the
# shadow ``ps`` of a desk encryption with one field edited.
MALFORMED_SHADOWS = {
    "short": lambda ps, q: dataclasses.replace(ps, v=ps.v[:-1]),
    "long": lambda ps, q: dataclasses.replace(ps, v=ps.v + (0,)),
    "v shifted by q": lambda ps, q: dataclasses.replace(ps, v=tuple(x + q for x in ps.v)),
    "v entry q": lambda ps, q: dataclasses.replace(ps, v=(q,) + ps.v[1:]),
    "v entry -1": lambda ps, q: dataclasses.replace(ps, v=(-1,) + ps.v[1:]),
    "v entry bool": lambda ps, q: dataclasses.replace(ps, v=(True,) + ps.v[1:]),
    "v entry float": lambda ps, q: dataclasses.replace(ps, v=(1.0,) + ps.v[1:]),
    "vprime q": lambda ps, q: dataclasses.replace(ps, vprime=q),
    "vprime -1": lambda ps, q: dataclasses.replace(ps, vprime=-1),
    "vprime bool": lambda ps, q: dataclasses.replace(ps, vprime=False),
    "vprime str": lambda ps, q: dataclasses.replace(ps, vprime="1"),
    "level -5": lambda ps, q: dataclasses.replace(ps, level=-5),
    "level bool": lambda ps, q: dataclasses.replace(ps, level=True),
    "level float": lambda ps, q: dataclasses.replace(ps, level=4.0),
}


@pytest.mark.parametrize("name", list(MALFORMED_SHADOWS))
def test_a_malformed_shadow_is_refused_before_any_draw(desk_bundle, name):
    """``refresh_ct`` and ``make_refreshable`` refuse a shadow with entries
    outside [0, q), of the wrong length or type, or with a level that is not
    a non-negative integer, with ParameterError and before their first draw;
    the shadow it is edited from is refreshed."""
    ch, keys = desk_bundle.channel, desk_bundle
    ps = shadow(ch, encrypt(desk_bundle.public, ch, 1, RandomSource(b"malformed/enc")))
    bad = MALFORMED_SHADOWS[name](ps, ch.q)
    for call in (lambda rng: refresh_ct(keys, bad, rng),
                 lambda rng: make_refreshable(bad, lambda c: True, desk_bundle.public, rng)):
        rng = RandomSource(b"malformed")
        with pytest.raises(ParameterError):
            call(rng)
        assert rng.below(2**64) == RandomSource(b"malformed").below(2**64)
    assert refresh_ct(keys, ps, RandomSource(b"malformed")).level == post_refresh_level(ch)


# -- the refresh matrix --------------------------------------------------------


def test_evaluation_keys_are_shared_and_built_lazily(desk_channel, tmp_path):
    bundle = keygen(desk_channel, RandomSource(b"lazy"))
    keys = EvalKeys.from_bundle(bundle)
    assert keys is bundle
    assert "refresh_rows" not in vars(keys)
    serial.dump(serial.public_to_dict(bundle), tmp_path / "public.json")
    loaded = serial.public_from_dict(desk_channel, serial.load(tmp_path / "public.json"))
    assert "refresh_rows" not in vars(loaded)


def test_refresh_matrix_is_built_once(desk_channel, monkeypatch):
    ch = desk_channel
    bundle = keygen(ch, RandomSource(b"built-once"))
    rng = RandomSource(b"built-once/refresh")
    contractions, contract = [], refresh._product

    def counted(*args):
        contractions.append(args)
        return contract(*args)

    monkeypatch.setattr(refresh, "_product", counted)
    checker = secret_refresh_checker(bundle.secret, ch)
    for m in (1, 0):
        ps = make_refreshable(shadow(ch, encrypt(bundle.public, ch, m, rng)), checker,
                              bundle.public, rng)
        assert decrypt(bundle.secret, ch, refresh_ct(bundle, ps, rng)) == m
    assert len(contractions) == ch.n * ch.big_n


def _polys(data, ch, count):
    """``count`` canonical ring elements: all q-1, or seeded uniform draws."""
    if data.draw(st.booleans(), label="all q-1"):
        coeffs = [[ch.q - 1] * ch.degree] * count
    else:
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="coefficient seed"))
        coeffs = [[rnd.randrange(ch.q) for _ in range(ch.degree)] for _ in range(count)]
    return tuple(RingPoly(ch.q, ch.u, c) for c in coeffs)


def _symmetric_tensor(data, ch):
    """The all-(q-1) tensor as its one layer, or a drawn symmetric cube as
    one layer per plane."""
    n, top = ch.n, ch.q - 1
    if data.draw(st.booleans(), label="all q-1"):
        return ProductTensor(ch.q, (((1,) * n, ((top,) * n,) * n),))
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="tensor seed"))
    t = [[[rnd.randrange(ch.q) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return planes([[t[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)], ch.q)


# (p, q) pairs with p not dividing q in the second.
REFERENCE_MODULI = ((2, 15015), (3, 5 * 7 * 11 * 13 * 17 * 19))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("big_n", [1, 2, 3, 5])
@pytest.mark.parametrize("degree", [4, 16])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_refresh_matches_the_encrypt_and_fold_reference(n, big_n, degree, data):
    """On arbitrary canonical public rows, a symmetric tensor and refresher
    ciphertexts, the one-combination refresh equals encrypting every digit
    and folding with ``scalar_product``, draw for draw."""
    p, q = data.draw(st.sampled_from(REFERENCE_MODULI), label="moduli")
    ch = ArithmeticChannel(p=p, q=q, omega=1, u=(-1,) + (0,) * (degree - 1) + (1,),
                           n=n, big_n=big_n, k0=1).require_valid()
    _check_against_reference(ch, data)


@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_refresh_matches_the_reference_at_the_large_channel(data):
    """The same at the large channel (d = 64, 57-bit q, n = 10, N = 8),
    where the refresh matrix, ``encrypt`` and ``hom_mul`` evaluate at six
    points."""
    q = 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47
    ch = ArithmeticChannel(p=3, q=q, omega=1, u=(-1,) + (0,) * 63 + (1,),
                           n=10, big_n=8, k0=1).require_valid()
    keys = _check_against_reference(ch, data)
    assert keys.refresh_rows.layout.points == 6


def _check_against_reference(ch, data):
    n, big_n = ch.n, ch.big_n
    f0 = tuple(_polys(data, ch, n) for _ in range(big_n))
    rho = tuple(Ciphertext(_polys(data, ch, n), *_polys(data, ch, 1), 1) for _ in range(n))
    # Arbitrary parts, not drawn from a seed: each is set as its expansion.
    public = PublicKey(bytes(16), _polys(data, ch, big_n), ch, None)
    refresher = Refresher(bytes(16), tuple(r.cprime for r in rho))
    keys = EvalKeys(public, _symmetric_tensor(data, ch), refresher, ())
    vars(public)["f0"], vars(keys)["rho"] = f0, rho
    ct = Ciphertext(_polys(data, ch, n), *_polys(data, ch, 1), 0)
    seed = data.draw(st.binary(max_size=8), label="refresh seed")
    got = refresh_ct(keys, shadow(ch, ct), RandomSource(seed))
    want = refresh_reference(keys, ct, RandomSource(seed))
    assert (got.c, got.cprime) == (want.c, want.cprime)
    assert got.level == post_refresh_level(ch)
    # The drawn refresh's integer shadow is the shadow of its ciphertext.
    assert draw_refresh(keys, shadow(ch, ct), RandomSource(seed)).shadow(keys) == shadow(ch, got)
    return keys
