"""Every ciphertext the library emits is within the decrypt budget.

``hom_add``, ``hom_mul`` and ``refresh_ct`` either refuse with
NoiseBudgetError or return a ciphertext whose level is at most
``max_noise_level()`` and which decrypts to the mod-p result.  The channels
have ``p`` not dividing ``q``, at ``p = 2`` and ``p = 3``; two of them put the
budget between the accumulated level of a refresh and its post-refresh level,
where the refresh must refuse.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import decrypt, encrypt, post_refresh_level, shadow
from aces.errors import NoiseBudgetError
from aces.homo import hom_add, hom_mul
from aces.keygen import keygen
from aces.refresh import make_refreshable, refresh_ct, secret_refresh_checker

CHANNELS = {
    "desk p=2": (2, 15015),
    "p=3": (3, 5005),
    "edge p=2": (2, 119),  # budget 58: accumulated 58, post-refresh 60
    "edge p=3": (3, 377),  # budget 124: accumulated 123, post-refresh 127
}


@cache
def _bundle(name):
    p, q = CHANNELS[name]
    ch = ArithmeticChannel(p=p, q=q, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    return keygen(ch.require_valid(), RandomSource(name.encode()))


def test_edge_channels_sit_between_the_refresh_levels():
    for name in ("edge p=2", "edge p=3"):
        bundle = _bundle(name)
        ch = bundle.channel
        assert post_refresh_level(ch) > ch.max_noise_level()
        assert ch.q % ch.p != 0


OPS = st.tuples(st.sampled_from(("add", "mul", "refresh")), st.integers(0, 63), st.integers(0, 63))


@given(
    name=st.sampled_from(sorted(CHANNELS)),
    messages=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    ops=st.lists(OPS, max_size=8),
    seed=st.binary(max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_emitted_levels_stay_within_the_budget(name, messages, ops, seed):
    bundle = _bundle(name)
    ch, pk = bundle.channel, bundle.public
    budget = ch.max_noise_level()
    checker = secret_refresh_checker(bundle.secret, ch)
    rng = RandomSource(seed)
    pool = [(encrypt(pk, ch, m % ch.p, rng), m % ch.p) for m in messages]
    for op, i, j in ops:
        (a, ma), (b, mb) = pool[i % len(pool)], pool[j % len(pool)]
        try:
            if op == "add":
                ct, m = hom_add(ch, a, b), (ma + mb) % ch.p
            elif op == "mul":
                ct, m = hom_mul(ch, bundle.tensor, a, b), (ma * mb) % ch.p
            else:
                ready = make_refreshable(shadow(ch, a), checker, pk, rng)
                if ready is None:
                    continue
                ct, m = refresh_ct(bundle, ready, rng), ma
        except NoiseBudgetError:
            continue
        assert ct.level <= budget
        assert decrypt(bundle.secret, ch, ct) == m
        pool.append((ct, m))
