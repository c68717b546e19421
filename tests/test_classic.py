"""Cross-checks with the toy classical schemes."""

import pytest

from aces.channel import RandomSource
from aces.classic import (
    AcesScheme,
    ElGamalScheme,
    RsaScheme,
    ToyGroupParams,
    elgamal_decrypt,
    elgamal_encrypt,
    elgamal_keygen,
    rsa_decrypt,
    rsa_encrypt,
    rsa_keygen,
    run_protocol,
)
from aces.errors import ParameterError

G23 = ToyGroupParams.make(23, 5)


def test_elgamal_worked_example():
    f = elgamal_keygen(G23, 6)
    assert f == 8  # 5^6 mod 23
    ct = elgamal_encrypt(G23, f, 8, 3)
    assert ct == (10, 2)  # (5^3, 8^3 * 8) mod 23
    assert elgamal_decrypt(G23, 6, ct) == 8


def test_elgamal_identity_message():
    f = elgamal_keygen(G23, 6)
    c1, c2 = elgamal_encrypt(G23, f, 1, 3)
    assert c2 == pow(f, 3, 23)
    assert elgamal_decrypt(G23, 6, (c1, c2)) == 1


def test_elgamal_zero_exponent_degenerates():
    f = elgamal_keygen(G23, 6)
    ct = elgamal_encrypt(G23, f, 8, 0)
    assert ct == (1, 8)
    assert elgamal_decrypt(G23, 6, ct) == 8


def test_elgamal_rejects_neutral_generator():
    with pytest.raises(ParameterError):
        ToyGroupParams.make(23, 1)


def test_elgamal_exhaustive_roundtrip():
    scheme = ElGamalScheme(G23)
    rng = RandomSource(b"eg")
    for m in scheme.messages():
        recovered, _ = run_protocol(scheme, m, rng)
        assert recovered == m


def test_rsa_worked_example():
    n, e, d = rsa_keygen(3, 5, 3)
    assert (n, e, d) == (15, 3, 3)  # the totient is 4 and 3*3 = 9 = 1 mod 4
    assert rsa_encrypt(n, e, 2) == 8
    assert rsa_decrypt(n, d, 8) == 2  # 8^3 = 512 = 2 mod 15


def test_rsa_fixed_points():
    n, e, d = rsa_keygen(3, 5, 3)
    assert rsa_encrypt(n, e, 1) == 1
    assert rsa_encrypt(n, e, 0) == 0
    assert rsa_decrypt(n, d, 0) == 0


def test_rsa_rejects_non_invertible_exponent():
    with pytest.raises(ParameterError):
        rsa_keygen(3, 5, 2)  # shares a factor with the totient


def test_the_toy_schemes_refuse_input_outside_their_groups():
    with pytest.raises(ParameterError, match="12 has no multiplicative order mod 14"):
        ToyGroupParams.make(14, 12)  # gcd 2: no power of 12 is 1 mod 14
    with pytest.raises(ParameterError, match="message 46 is not in the group mod 23"):
        elgamal_encrypt(G23, elgamal_keygen(G23, 6), 46, 3)
    n, e, _ = rsa_keygen(3, 5, 3)
    for m in (-1, n):
        with pytest.raises(ParameterError, match=f"message {m} out of range"):
            rsa_encrypt(n, e, m)


def test_rsa_exhaustive_roundtrip():
    scheme = RsaScheme(5, 11, 3)
    rng = RandomSource(b"rsa")
    for m in scheme.messages():
        recovered, _ = run_protocol(scheme, m, rng)
        assert recovered == m


def test_transcripts_replay_identically(micro_channel):
    schemes = [
        (ElGamalScheme(G23), 8),
        (RsaScheme(3, 5, 3), 2),
        (AcesScheme(micro_channel), 1),
    ]
    for scheme, m in schemes:
        out1, t1 = run_protocol(scheme, m, RandomSource(b"replay"))
        out2, t2 = run_protocol(scheme, m, RandomSource(b"replay"))
        assert out1 == out2 == m
        assert t1 == t2
        assert [step for step, _ in t1] == ["generate", "publish", "encrypt", "decrypt"]


def test_aces_through_the_same_driver(micro_channel):
    scheme = AcesScheme(micro_channel)
    rng = RandomSource(b"drive")
    for m in scheme.messages():
        recovered, transcript = run_protocol(scheme, m, rng)
        assert recovered == m
        assert len(transcript) == 4


def test_aces_driver_encryptions_share_the_packed_public_rows(micro_channel, monkeypatch):
    """The driver hands ``encrypt`` the bundle's own ``PublicKey``, so its
    packed rows are built once per key, not once per encryption."""
    import importlib

    # ``aces.keygen`` is also the name of the function the package exports.
    keygen_module = importlib.import_module("aces.keygen")
    scheme = AcesScheme(micro_channel)
    rng = RandomSource(b"shared-rows")
    state = scheme.generate(rng)
    published = scheme.publish(state)
    built = []

    class CountingRows(keygen_module.PackedRows):
        def __init__(self, rows):
            built.append(self)
            super().__init__(rows)

    monkeypatch.setattr(keygen_module, "PackedRows", CountingRows)
    for m in (0, 1):
        assert scheme.decrypt(state, scheme.encrypt(published, m, rng)) == m
    assert len(built) == 1
