"""Strict loading: files must hold canonical, exactly-shaped values.

Nothing read from a file is silently reduced or truncated; a malformed
polynomial or tensor layer (an ``alpha`` that is not ``n`` words, a
``beta`` that is not ``n`` rows of ``n`` words, not symmetric, or with a
2x2 minor that is not 0 modulo its slot pair's weight), a word string
that is not exactly the canonical base64 of its fields (one field of
``(q - 1).bit_length()`` bits per residue, the bits past the last field
zero), a field not below q, a seed that is not exactly the canonical
base64 of 16 bytes, a float or boolean where an integer belongs, or a
file of another format is refused with ParameterError (CLI exit 2).  A
wrong container type is malformed input (CLI exit 1).  Word strings
round-trip at every field width from 2 to 64 bits, and the codec itself
refuses a field of q, a set bit past the last field and a byte more or
less.  A written public file loads as keys whose
seeds expand to the parts of the bundle it was written from, and each
command expands only the parts it uses.  ``refresh --secret`` and ``eval
--secret`` refuse a public file that the secret does not own.
"""

import base64
import dataclasses
import json
import math
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aces import cipher, refresh, serial
from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import REFRESHER_LEVEL, encrypt
from aces.cli import main
from aces.errors import ParameterError
from aces.keygen import PublicKey, keygen
from aces.refresh import refresh_certified, secret_refresh_checker
from aces.rings import MAX_Q, Repartition, Ring
from oracles import (
    dumps_compact, render_v1, render_v2, render_v3, render_v4, render_v5, render_v6,
)


@pytest.fixture()
def desk_files(tmp_path):
    keys = tmp_path / "keys"
    assert main(["keygen", "--p", "2", "--q", "15015", "--degree", "4", "--n", "3",
                 "--bigN", "2", "--k0", "1", "--seed", "0a0b", "--out", str(keys)]) == 0
    ct = tmp_path / "ct.json"
    assert main(["encrypt", "--pub", str(keys / "public.json"),
                 "--channel", str(keys / "channel.json"),
                 "--message", "1", "--seed", "c0de", "--out", str(ct)]) == 0
    ch = serial.channel_from_dict(serial.load(keys / "channel.json"))
    return ch, keys, ct


def _bits(ch) -> int:
    """Bits per residue field: the bit length of q - 1."""
    return (ch.q - 1).bit_length()


def _fields(ch, text: str) -> list[int]:
    """The fields of a word string, as many as its bytes hold whole."""
    b, raw = _bits(ch), base64.b64decode(text)
    value = int.from_bytes(raw, "little")
    return [value >> b * i & (1 << b) - 1 for i in range(8 * len(raw) // b)]


def _pack(ch, fields) -> str:
    """The canonical word string of ``fields``, each below ``2^bits``."""
    b = _bits(ch)
    assert max(fields, default=0) < 1 << b
    value = sum(x << b * i for i, x in enumerate(fields))
    return base64.b64encode(value.to_bytes(-(-b * len(fields) // 8), "little")).decode()


def _word(ch, text: str, i: int) -> int:
    return _fields(ch, text)[i]


def _set_word(ch, text: str, i: int, value: int) -> str:
    fields = _fields(ch, text)
    fields[i] = value
    return _pack(ch, fields)


def _resize(ch, text: str, words: int) -> str:
    """The word string with ``words`` zero fields appended, or as many of
    its last fields dropped when negative: canonical base64 either way."""
    fields = _fields(ch, text)
    return _pack(ch, fields + [0] * words if words > 0 else fields[:words])


def _bytes(text: str, change: int) -> str:
    """The word string a zero byte longer (``change`` 1) or its last byte
    shorter (-1): canonical base64 either way."""
    raw = base64.b64decode(text)
    return base64.b64encode(raw + b"\0" if change > 0 else raw[:-1]).decode()


def _field_pad_bit(text: str) -> str:
    """The word string with its top bit set: a bit past the last field when
    the fields do not fill the last byte (at desk, ``n = 3`` fields of 14
    bits in 6 bytes, or one in 2)."""
    raw = base64.b64decode(text)
    return base64.b64encode(raw[:-1] + bytes([raw[-1] | 0x80])).decode()


# The standard base64 alphabet, in the order of the values it encodes.
B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _pad_bits(text: str) -> str:
    """The word string with a pad bit set: the character before the padding
    ends in zero bits in canonical base64; the decoded bytes are the same."""
    i = text.index("=") - 1
    return text[:i] + B64[B64.index(text[i]) | 1] + text[i + 1:]


def _edit(obj, key, change) -> None:
    obj[key] = change(obj[key])


def _decrypt(keys, ct):
    return main(["decrypt", "--secret", str(keys / "secret.json"),
                 "--channel", str(keys / "channel.json"), "--ct", str(ct)])


@pytest.mark.parametrize("corrupt", [
    lambda ch, d: _edit(d, "cprime", lambda t: _set_word(ch, t, 0, 2**_bits(ch) - 1)),  # 2^b - 1
    lambda ch, d: _edit(d, "cprime", lambda t: "-" + t[1:]),  # a minus sign, or URL-safe base64
    lambda ch, d: _edit(d, "cprime", lambda t: "_" + t[1:]),  # URL-safe base64
    lambda ch, d: _edit(d["c"], 0, lambda t: _resize(ch, t, 1)),  # one word long
    lambda ch, d: _edit(d["c"], 1, lambda t: _resize(ch, t, -1)),  # one word short
    lambda ch, d: d["c"].pop(),  # a missing vector slot
    lambda ch, d: d.__setitem__("level", ch.max_noise_level() + 0.5),  # 7506.5, past the budget
    lambda ch, d: d.__setitem__("level", True),
    lambda ch, d: d["c"].__setitem__(0, 4539.75),  # a number for a word string
    lambda ch, d: _edit(d, "cprime", lambda t: t[:4] + "  " + t[6:]),  # whitespace
    lambda ch, d: _edit(d, "cprime", lambda t: t[:4] + "\n" + t[5:]),  # an embedded newline
    lambda ch, d: _edit(d, "cprime", lambda t: "\u00e9" + t[1:]),  # not ASCII
    lambda ch, d: _edit(d, "cprime", lambda t: t[:-1]),  # one character short
    lambda ch, d: _edit(d, "cprime", lambda t: t + "A"),  # one character long
    lambda ch, d: _edit(d, "cprime", lambda t: t.replace("=", "")),  # a missing "="
    lambda ch, d: _edit(d, "cprime", lambda t: t.replace("=", "A")),  # "=" read as data
    lambda ch, d: _edit(d, "cprime", _pad_bits),  # non-zero pad bits, the same bytes
    lambda ch, d: _edit(d, "cprime", lambda t: base64.b64decode(t).hex()),  # format 3's hex
    lambda ch, d: _edit(d, "cprime", lambda t: _set_word(ch, t, 0, ch.q)),  # a word equal to q
    lambda ch, d: _edit(d["c"], 0, lambda t: _bytes(t, 1)),  # one byte long
    lambda ch, d: _edit(d["c"], 1, lambda t: _bytes(t, -1)),  # one byte short
])
def test_corrupted_ciphertext_is_refused(desk_files, tmp_path, corrupt):
    ch, keys, ct = desk_files
    data = serial.load(ct)
    corrupt(ch, data)
    bad = tmp_path / "bad.json"
    serial.dump(data, bad)
    with pytest.raises(ParameterError):
        serial.ciphertext_from_dict(ch, serial.load(bad))
    assert _decrypt(keys, bad) == 2
    assert _decrypt(keys, ct) == 0  # the intact file still loads


@pytest.mark.parametrize("corrupt", [
    lambda ch, lam: lam[0]["beta"].pop(),  # a missing row of beta
    lambda ch, lam: lam.pop(),  # no layer
    lambda ch, lam: _edit(lam[0]["beta"], 0, lambda t: _resize(ch, t, -1)),  # short row of beta
    lambda ch, lam: _edit(lam[0]["beta"], 0, lambda t: _set_word(ch, t, 0, ch.q)),  # a word equal to q
    lambda ch, lam: _edit(lam[0]["beta"], 0,  # beta[0][1] != beta[1][0]: not symmetric
                          lambda t: _set_word(ch, t, 1, (_word(ch, t, 1) + 1) % ch.q)),
    lambda ch, lam: _edit(lam[0], "alpha", lambda t: _resize(ch, t, -1)),  # short alpha
    lambda ch, lam: _edit(lam[0], "alpha", lambda t: _set_word(ch, t, 0, ch.q)),  # a word equal to q
    lambda ch, lam: lam.append({"alpha": lam[0]["alpha"], "beta": lam[0]["beta"][:-1]}),  # n - 1 rows
    lambda ch, lam: _edit(lam[0]["beta"], 2, lambda t: _moved(ch, t, 2)),  # a minor not 0 mod its weight
    lambda ch, lam: _edit(lam[0], "alpha", _field_pad_bit),  # a bit past the last field
    lambda ch, lam: _edit(lam[0]["beta"], 1, _field_pad_bit),
    lambda ch, lam: _edit(lam[0]["beta"], 1, lambda t: _bytes(t, 1)),  # a byte long
])
def test_malformed_tensor_is_refused(desk_files, tmp_path, corrupt):
    ch, keys, ct = desk_files
    data = serial.load(keys / "public.json")
    corrupt(ch, data["lambda"])
    bad = tmp_path / "public.json"
    serial.dump(data, bad)
    with pytest.raises(ParameterError):
        serial.public_from_dict(ch, serial.load(bad))
    circuit = tmp_path / "c.txt"
    circuit.write_text("in a\nt = mul a a\nout t\n")
    assert main(["eval", "--pub", str(bad), "--channel", str(keys / "channel.json"),
                 "--circuit", str(circuit), "--input", f"a={ct}", "--refresh", "off",
                 "--out", str(tmp_path / "out")]) == 2


def test_public_key_rows_must_match_the_channel(desk_files, tmp_path):
    ch, keys, _ = desk_files
    data = serial.load(keys / "public.json")
    data["fprime"].pop()
    with pytest.raises(ParameterError):
        serial.public_from_dict(ch, data)


def test_channel_poly_stays_lenient_in_library_code(desk_files):
    ch, _, _ = desk_files
    assert ch.ring.poly([ch.q + 3, 0, 0, 0, 1]).coeffs == (4, 0, 0, 0)  # X^4 = 1


@pytest.mark.parametrize("corrupt", [
    lambda ch, d: d["sigma"].pop(),  # one slot unassigned
    lambda ch, d: d["sigma"].append(0),  # a surplus slot
    lambda ch, d: d["sigma"].__setitem__(0, len(ch.primes) + 1),  # past the primes of q
    lambda ch, d: d["sigma"].__setitem__(0, -1),
    lambda ch, d: d["refresher"]["cprime"].pop(),  # one ciphertext short
    lambda ch, d: d["refresher"]["cprime"].append(d["refresher"]["cprime"][0]),
    lambda ch, d: _edit(d["locators"][0], "vec", lambda t: _resize(ch, t, -1)),
    lambda ch, d: _edit(d["locators"][0], "vec", lambda t: _resize(ch, t, 1)),
    lambda ch, d: _edit(d["locators"][0], "vec", lambda t: _set_word(ch, t, 0, ch.q)),
    lambda ch, d: _edit(d["locators"][0], "vec", lambda t: "-" + t[1:]),
    lambda ch, d: d["locators"][0].__setitem__("kind", "detector"),
    lambda ch, d: d["lambda"][0].__setitem__("alpha", 0.25),  # a number for a word string
    lambda ch, d: d["sigma"].__setitem__(0, float(d["sigma"][0])),
    lambda ch, d: d["sigma"].__setitem__(0, True),
    lambda ch, d: d.__setitem__("sigma", {"map": d["sigma"], "primes": list(map(str, ch.primes))}),
    lambda ch, d: d["refresher"].__setitem__("kappa", [1] * ch.n),  # format 5's levels
    lambda ch, d: _edit(d["refresher"]["cprime"], 0, lambda t: _set_word(ch, t, 0, ch.q)),
    lambda ch, d: _edit(d["refresher"]["cprime"], 0, lambda t: _resize(ch, t, -1)),
    lambda ch, d: d["refresher"]["cprime"].__setitem__(0, 0.25),
    lambda ch, d: d["locators"][0].__setitem__("k", d["locators"][0]["k"] + 0.5),
    lambda ch, d: d["locators"][0].__setitem__("k", -1),
    lambda ch, d: _edit(d["locators"][0], "margin_num", lambda t: _set_word(ch, t, 0, ch.q)),
    lambda ch, d: _edit(d["locators"][0], "margin_num", _pad_bits),
    lambda ch, d: _edit(d["fprime"], 0, lambda t: t[:-1] + "\n"),
    lambda ch, d: _edit(d, "f0", lambda t: base64.b64encode(base64.b64decode(t)[:-1]).decode()),
    lambda ch, d: _edit(d, "f0", lambda t: base64.b64encode(base64.b64decode(t) + b"\0").decode()),
    lambda ch, d: _edit(d, "f0", _pad_bits),
    lambda ch, d: _edit(d, "f0", lambda t: t.rstrip("=")),
    lambda ch, d: _edit(d, "f0", lambda t: base64.b64decode(t).hex()),  # format 3's hex
    lambda ch, d: d.__setitem__("f0", 7),
    lambda ch, d: _edit(d["refresher"], "c", lambda t: "_" + t[1:]),  # URL-safe base64
    lambda ch, d: _edit(d["refresher"], "c", lambda t: t[:4] + " " + t[5:]),
    lambda ch, d: _edit(d["refresher"], "c", _pad_bits),
    lambda ch, d: d["refresher"].__setitem__("c", d["refresher"]["cprime"][0]),  # a word string
    lambda ch, d: _edit(d["locators"][0], "margin_num", _field_pad_bit),
    lambda ch, d: _edit(d["locators"][0], "vec", _field_pad_bit),
    lambda ch, d: _edit(d["refresher"]["cprime"], 0, lambda t: _bytes(t, -1)),
])
def test_malformed_public_material_is_refused(desk_files, tmp_path, corrupt):
    ch, keys, ct = desk_files
    data = serial.load(keys / "public.json")
    corrupt(ch, data)
    with pytest.raises(ParameterError):
        serial.public_from_dict(ch, data)
    bad = tmp_path / "public.json"
    serial.dump(data, bad)
    assert main(["refresh", "--pub", str(bad), "--channel", str(keys / "channel.json"),
                 "--ct", str(ct), "--seed", "01", "--secret", str(keys / "secret.json"),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_intact_public_material_loads_whole(desk_files):
    ch, keys, _ = desk_files
    data = serial.load(keys / "public.json")
    keys = serial.public_from_dict(ch, data)
    refresher = keys.refresher
    assert len(keys.public.repartition.assignment) == len(refresher.cprime) == ch.n
    assert [ct.level for ct in keys.rho] == [REFRESHER_LEVEL] * ch.n
    assert {e.kind for e in keys.locators} == {"locator", "director"}


@pytest.mark.parametrize("field, value", [("q", 15015.9), ("k0", True)])
def test_channel_numbers_are_never_truncated(desk_files, tmp_path, field, value):
    ch, keys, ct = desk_files
    data = serial.load(keys / "channel.json")
    data[field] = value
    with pytest.raises(ParameterError):
        serial.channel_from_dict(data)
    bad = tmp_path / "channel.json"
    serial.dump(data, bad)
    assert main(["decrypt", "--secret", str(keys / "secret.json"), "--channel", str(bad),
                 "--ct", str(ct)]) == 2


def test_a_string_for_a_coefficient_list_is_exit_1(desk_files, tmp_path):
    """A wrong container type is malformed input, never read character by
    character: a string where the list of polynomials belongs, and a list
    where a polynomial's word string belongs, even one holding that string."""
    ch, keys, ct = desk_files
    for field, value in (("c", "1000"), ("cprime", ["1000"]),
                         ("cprime", [serial.load(ct)["cprime"]])):
        data = serial.load(ct)
        data[field] = value
        with pytest.raises(TypeError):
            serial.ciphertext_from_dict(ch, data)
        bad = tmp_path / "bad.json"
        serial.dump(data, bad)
        assert _decrypt(keys, bad) == 1


def test_a_public_file_without_its_locator_database_is_exit_1(desk_files, tmp_path):
    """Every part of the public file is required; none defaults to empty."""
    ch, keys, ct = desk_files
    data = serial.load(keys / "public.json")
    del data["locators"]
    with pytest.raises(KeyError):
        serial.public_from_dict(ch, data)
    bad = tmp_path / "public.json"
    serial.dump(data, bad)
    assert main(["refresh", "--pub", str(bad), "--channel", str(keys / "channel.json"),
                 "--ct", str(ct), "--seed", "01", "--secret", str(keys / "secret.json"),
                 "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("params", [
    dict(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1),
    dict(p=2, q=math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), omega=1,
         u=(-1,) + (0,) * 15 + (1,), n=6, big_n=4, k0=1),
    dict(p=3, q=math.prod((5, 7, 11, 13, 17, 19)), omega=1, u=(-1,) + (0,) * 7 + (1,),
         n=4, big_n=5, k0=1),
    dict(p=3, q=math.prod((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)), omega=1,
         u=(-1,) + (0,) * 63 + (1,), n=10, big_n=8, k0=1),
], ids=["desk", "mid", "odd-rows", "large"])
def test_public_file_round_trips_through_eval_keys(params):
    ch = ArithmeticChannel(**params).require_valid()
    bundle = keygen(ch, RandomSource(b"round-trip"))
    data = json.loads(json.dumps(serial.public_to_dict(bundle)))
    keys = serial.public_from_dict(ch, data)
    assert serial.public_to_dict(keys) == data
    assert keys.public.repartition == bundle.public.repartition


def test_a_public_file_with_no_locators_round_trips(desk_bundle):
    """An empty locator database is written as an empty list and read back
    as one: no word string at all, not an empty one."""
    keys = dataclasses.replace(desk_bundle, locators=())
    data = json.loads(json.dumps(serial.public_to_dict(keys)))
    assert data["locators"] == []
    back = serial.public_from_dict(desk_bundle.channel, data)
    assert back.locators == () and serial.public_to_dict(back) == data


# Channels whose public files round-trip through their seeds, by name; the
# keygen seeds, 2 bytes each, include four at desk (38, 87, 104, 142) whose
# keygen redraws the repartition.
SEEDED_CHANNELS = {
    "desk": dict(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1),
    "odd": dict(p=3, q=math.prod((5, 7, 11, 13, 17, 19)), omega=1, u=(-1,) + (0,) * 7 + (1,),
                n=4, big_n=5, k0=1),
    "mid": dict(p=2, q=math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), omega=1,
                u=(-1,) + (0,) * 15 + (1,), n=6, big_n=4, k0=1),
}
KEYGEN_SEEDS = [*range(50), 87, 104, 142]


def _keygen_flags(ch) -> list[str]:
    return ["--p", str(ch.p), "--q", str(ch.q), "--degree", str(ch.degree), "--n", str(ch.n),
            "--bigN", str(ch.big_n), "--k0", str(ch.k0)]


@pytest.mark.parametrize("name", list(SEEDED_CHANNELS))
def test_a_written_public_file_expands_to_the_bundles_parts(name, tmp_path, capsys, monkeypatch):
    """For each keygen seed: the public file read back expands ``f0`` and
    the refresher's ciphertexts, on first use, to the bundle's own, and
    ``aces encrypt`` and ``aces refresh --secret`` on the files ``aces
    keygen`` writes give the bytes of the library calls on the bundle."""
    ch = ArithmeticChannel(**SEEDED_CHANNELS[name]).require_valid()
    sample = Repartition.sample
    draws = []
    monkeypatch.setattr(Repartition, "sample",
                        staticmethod(lambda ch, rng: draws.append(1) or sample(ch, rng)))
    redrawn = 0
    for i in KEYGEN_SEEDS:
        seed = i.to_bytes(2, "little")
        draws.clear()
        bundle = keygen(ch, RandomSource(seed))
        redrawn += len(draws) > 1
        keys = serial.public_from_dict(ch, json.loads(json.dumps(serial.public_to_dict(bundle))))
        assert "f0" not in vars(keys.public) and "rho" not in vars(keys)
        assert keys.public.f0 == bundle.public.f0
        assert keys.rho == bundle.rho
        assert keys.public.repartition == bundle.public.repartition

        out = tmp_path / seed.hex()
        files = ["--pub", str(out / "public.json"), "--channel", str(out / "channel.json")]
        assert main(["keygen", *_keygen_flags(ch), "--seed", seed.hex(), "--out", str(out)]) == 0
        m = i % ch.p
        assert main(["encrypt", *files, "--message", str(m), "--seed", "e1",
                     "--out", str(out / "a.json")]) == 0
        ct = encrypt(bundle.public, ch, m, RandomSource.from_hex("e1"))
        assert (out / "a.json").read_bytes() == dumps_compact(serial.ciphertext_to_dict(ct))
        fresh = refresh_certified(bundle, ct, secret_refresh_checker(bundle.secret, ch),
                                  RandomSource.from_hex("f1"))
        code = main(["refresh", *files, "--ct", str(out / "a.json"), "--seed", "f1",
                     "--secret", str(out / "secret.json"), "--out", str(out / "fresh.json")])
        if fresh is None:
            assert code == 2 and not (out / "fresh.json").exists()
        else:
            assert code == 0
            assert (out / "fresh.json").read_bytes() == dumps_compact(serial.ciphertext_to_dict(fresh))
    assert redrawn >= 4 if name == "desk" else redrawn == 0
    capsys.readouterr()


def test_each_command_expands_only_the_parts_it_uses(desk_files, tmp_path, monkeypatch):
    """A spy on the seed expansion, where ``PublicKey.f0`` and
    ``EvalKeys.rho`` look it up, and on the sampler it draws through:
    ``aces encrypt`` expands ``f0`` alone (one seed, N divisible vectors),
    ``aces eval`` with no refresh due expands nothing, and ``aces refresh
    --secret`` expands ``f0`` and the refresher's vector parts (two seeds,
    n more vectors)."""
    ch, keys, ct = desk_files
    expansions, vectors = [], []
    for module, name, calls in ((sys.modules[PublicKey.__module__], "expand_seed", expansions),
                                (refresh, "expand_seed", expansions),
                                (cipher, "sample_divisible_vector", vectors)):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, calls=calls: calls.append(1) or real(*args))
    files = ["--pub", str(keys / "public.json"), "--channel", str(keys / "channel.json")]
    (tmp_path / "c.txt").write_text("in a\nt = mul a a\nout t\n")
    for argv, want in (
        (["encrypt", *files, "--message", "1", "--seed", "01", "--out", str(tmp_path / "b.json")],
         (1, ch.big_n)),
        (["eval", *files, "--circuit", str(tmp_path / "c.txt"), "--input", f"a={ct}",
          "--refresh", "off", "--out", str(tmp_path / "off")], (0, 0)),
        (["eval", *files, "--circuit", str(tmp_path / "c.txt"), "--input", f"a={ct}",
          "--out", str(tmp_path / "auto")], (0, 0)),
        (["refresh", *files, "--ct", str(ct), "--secret", str(keys / "secret.json"),
          "--out", str(tmp_path / "r.json")], (2, ch.big_n + ch.n)),
    ):
        expansions.clear()
        vectors.clear()
        assert main(argv) == 0
        assert (len(expansions), len(vectors)) == want, argv[0]


def _moved(ch, text: str, i: int) -> str:
    """``text`` with word ``i`` moved by 1 mod q."""
    return _set_word(ch, text, i, (_word(ch, text, i) + 1) % ch.q)


def test_the_key_owner_refuses_a_public_file_that_is_not_the_secrets(desk_files, tmp_path):
    """``refresh --secret`` and ``eval --secret`` check the public file
    against the secret (``keygen.owns``): a public row, a tensor weight or
    a refresher scalar part with one word moved by 1, or the public file of
    another key, exits 2 and writes nothing.  The public loader accepts
    each of them (``encrypt`` exits 0), and the intact file passes."""
    ch, keys, ct = desk_files
    public = json.loads((keys / "public.json").read_text())
    assert main(["keygen", *_keygen_flags(ch), "--seed", "0c0d", "--out", str(tmp_path / "other")]) == 0
    variants = {"intact": public,
                "another key": json.loads((tmp_path / "other" / "public.json").read_text())}
    for r in range(ch.big_n):
        variants[f"fprime {r}"] = data = json.loads(json.dumps(public))
        data["fprime"][r] = _moved(ch, data["fprime"][r], 0)
    for k in range(ch.n):
        variants[f"alpha {k}"] = data = json.loads(json.dumps(public))
        data["lambda"][0]["alpha"] = _moved(ch, data["lambda"][0]["alpha"], k)
        variants[f"cprime {k}"] = data = json.loads(json.dumps(public))
        data["refresher"]["cprime"][k] = _moved(ch, data["refresher"]["cprime"][k], 0)
    (tmp_path / "c.txt").write_text("in a\nt = mul a a\nout t\n")
    for name, data in variants.items():
        work = tmp_path / name.replace(" ", "-")
        work.mkdir()
        (work / "public.json").write_text(json.dumps(data))
        files = ["--pub", str(work / "public.json"), "--channel", str(keys / "channel.json")]
        secret = ["--secret", str(keys / "secret.json")]
        assert main(["encrypt", *files, "--message", "1", "--seed", "01",
                     "--out", str(work / "e.json")]) == 0, name
        for argv, out in (
            (["refresh", *files, "--ct", str(ct), *secret, "--out", str(work / "r.json")],
             work / "r.json"),
            (["eval", *files, "--circuit", str(tmp_path / "c.txt"), "--input", f"a={ct}",
              *secret, "--out", str(work / "out")], work / "out"),
        ):
            if name == "intact":
                assert main(argv) == 0 and out.exists(), argv[0]
            else:
                assert main(argv) == 2, (name, argv[0])
                assert not out.exists(), (name, argv[0])



# kind -> (file, reader, a command line that reads the file as bad.json and
# the other files intact; each .json argument is relative to the test's tmp_path)
FILE_KINDS = {
    "channel": ("keys/channel.json", lambda ch, d: serial.channel_from_dict(d),
                ["decrypt", "--secret", "keys/secret.json", "--channel", "bad.json", "--ct", "ct.json"]),
    "public": ("keys/public.json", serial.public_from_dict,
               ["encrypt", "--pub", "bad.json", "--channel", "keys/channel.json", "--message", "1",
                "--seed", "01", "--out", "out.json"]),
    "secret": ("keys/secret.json", serial.secret_from_dict,
               ["decrypt", "--secret", "bad.json", "--channel", "keys/channel.json", "--ct", "ct.json"]),
    "ciphertext": ("ct.json", serial.ciphertext_from_dict, ["inspect", "--ct", "bad.json"]),
}


@pytest.mark.parametrize("kind", list(FILE_KINDS))
@pytest.mark.parametrize("found", [None, 1, 2.0, "2", 2, 3.0, "3"],
                         ids=["missing", "1", "2.0", "str", "2", "3.0", "str-3"])
def test_a_file_of_another_format_is_exit_2(desk_files, tmp_path, capsys, kind, found):
    ch, _, _ = desk_files
    rel, read, argv = FILE_KINDS[kind]
    data = serial.load(tmp_path / rel)
    if found is None:
        del data["format"]
    else:
        data["format"] = found
    with pytest.raises(ParameterError, match="regenerate the keys"):
        read(ch, data)
    serial.dump(data, tmp_path / "bad.json")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "regenerate the keys" in err


@pytest.mark.parametrize("kind", list(FILE_KINDS))
def test_a_file_with_an_unknown_top_level_field_is_exit_2(desk_files, tmp_path, capsys, kind):
    """A field the format does not define is refused, not ignored: before,
    ``decrypt`` printed the message and ``encrypt`` wrote a file."""
    ch, _, _ = desk_files
    rel, read, argv = FILE_KINDS[kind]
    data = serial.load(tmp_path / rel)
    data["extra"] = 1
    with pytest.raises(ParameterError, match="unknown field 'extra'"):
        read(ch, data)
    serial.dump(data, tmp_path / "bad.json")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown field 'extra'" in err
    assert not (tmp_path / "out.json").exists()


# The objects inside the public file, each as its container, its key there
# and the name a refusal gives it.
NESTED = {
    "refresher": (lambda pub: pub, "refresher", "refresher"),
    "lambda": (lambda pub: pub["lambda"], 0, "lambda layer"),
    "locator": (lambda pub: pub["locators"], -1, "locator"),
}


@pytest.mark.parametrize("place", list(NESTED))
def test_a_non_object_inside_the_public_file_is_malformed(desk_files, tmp_path, capsys, place):
    """A list where one of the public file's objects belongs is a TypeError
    naming the object: malformed input, exit 1."""
    ch, keys, _ = desk_files
    container, key, what = NESTED[place]
    data = serial.load(keys / "public.json")
    container(data)[key] = [container(data)[key]]
    with pytest.raises(TypeError, match=f"^{what}: expected JSON objects$"):
        serial.public_from_dict(ch, data)
    serial.dump(data, tmp_path / "bad.json")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in FILE_KINDS["public"][2]]
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"{what}: expected JSON objects" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("place", list(NESTED))
@pytest.mark.parametrize("added", [True, False], ids=["unknown", "missing"])
def test_a_field_inside_the_public_file_is_checked(desk_files, tmp_path, capsys, place, added):
    """No field is ignored at any depth: an unknown one is exit 2 (before,
    each of these objects loaded with ``"extra": 1`` in it and ``encrypt``
    wrote a file) and a missing one malformed input, exit 1, each named
    with its object."""
    ch, keys, _ = desk_files
    container, key, what = NESTED[place]
    data = serial.load(keys / "public.json")
    obj = container(data)[key]
    if added:
        obj["extra"] = 1
        error, code, message = ParameterError, 2, f"{what}: unknown field 'extra'"
    else:
        field = sorted(obj)[0]
        del obj[field]
        error, code, message = KeyError, 1, f"{what}: missing field '{field}'"
    with pytest.raises(error, match=message):
        serial.public_from_dict(ch, data)
    serial.dump(data, tmp_path / "bad.json")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in FILE_KINDS["public"][2]]
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("kind", list(FILE_KINDS))
@pytest.mark.parametrize("text, code, message", [
    ("[1, 2]\n", 1, "expected a JSON object"),
    ('{"format": 3,\n', 2, "not valid JSON"),
], ids=["not-an-object", "not-json"])
def test_a_file_that_is_not_a_json_object_is_refused(desk_files, tmp_path, capsys, kind, text,
                                                     code, message):
    """A top level other than an object is exit 1 (a malformed file); text
    that does not parse as JSON is exit 2."""
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in FILE_KINDS[kind][2]]
    (tmp_path / "bad.json").write_text(text)
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and message in err


def _render_v1(path, ch) -> bytes:
    """The file at ``path``, over the channel ``ch``, as format 1 held it."""
    v3 = render_v3(render_v4(render_v5(render_v6(serial.load(path), ch), ch.q), ch))
    return render_v1(render_v2(json.loads(v3), ch.q), ch.q)


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "eval", "refresh", "inspect",
                                     "inspect-with-keys"])
def test_a_format_1_key_directory_is_exit_2(desk_files, tmp_path, capsys, command):
    """Files of format 1 (decimal strings, no format field), as an earlier
    release wrote them, are refused by every command that reads them."""
    ch, keys, ct = desk_files
    old = tmp_path / "v1"
    old.mkdir()
    for name in ("channel.json", "public.json", "secret.json"):
        (old / name).write_bytes(_render_v1(keys / name, ch))
    (old / "ct.json").write_bytes(_render_v1(ct, ch))
    assert b'"format"' not in (old / "public.json").read_bytes()
    files = ["--pub", str(old / "public.json"), "--channel", str(old / "channel.json")]
    circuit = tmp_path / "c.txt"
    circuit.write_text("in a\nt = mul a a\nout t\n")
    argv = {
        "encrypt": ["encrypt", *files, "--message", "1", "--seed", "01", "--out", str(tmp_path / "o.json")],
        "decrypt": ["decrypt", "--secret", str(old / "secret.json"), "--channel", str(old / "channel.json"),
                    "--ct", str(old / "ct.json")],
        "eval": ["eval", *files, "--circuit", str(circuit), "--input", f"a={old / 'ct.json'}",
                 "--out", str(tmp_path / "out")],
        "refresh": ["refresh", *files, "--ct", str(old / "ct.json"), "--secret", str(old / "secret.json"),
                    "--out", str(tmp_path / "r.json")],
        "inspect": ["inspect", "--ct", str(old / "ct.json")],
        "inspect-with-keys": ["inspect", "--ct", str(old / "ct.json"), *files],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "regenerate the keys" in err


# Each command that reads a file of the kind, as arguments relative to the
# test's tmp_path; each writes, if anything, under out.
READERS_OF = {
    "channel": ["encrypt", "decrypt", "eval", "refresh", "inspect-with-keys"],
    "public": ["encrypt", "eval", "refresh", "inspect-with-keys"],
    "secret": ["decrypt", "refresh"],
    "ciphertext": ["decrypt", "eval", "refresh", "inspect", "inspect-with-keys"],
}


def _command(name: str, files: dict) -> list[str]:
    keys = ["--pub", files["public"], "--channel", files["channel"]]
    return {
        "encrypt": ["encrypt", *keys, "--message", "1", "--seed", "01", "--out", "out/o.json"],
        "decrypt": ["decrypt", "--secret", files["secret"], "--channel", files["channel"],
                    "--ct", files["ciphertext"]],
        "eval": ["eval", *keys, "--circuit", "c.txt", "--input", f"a={files['ciphertext']}",
                 "--out", "out/eval"],
        "refresh": ["refresh", *keys, "--ct", files["ciphertext"], "--secret", files["secret"],
                    "--seed", "01", "--out", "out/r.json"],
        "inspect": ["inspect", "--ct", files["ciphertext"]],
        "inspect-with-keys": ["inspect", "--ct", files["ciphertext"], *keys],
    }[name]


@pytest.mark.parametrize("kind, command", [(kind, command) for kind, commands in READERS_OF.items()
                                           for command in commands])
def test_a_format_3_file_is_exit_2(desk_files, tmp_path, capsys, monkeypatch, kind, command):
    """A file as format 5 wrote it (the public file with ``sigma``'s primes
    and the refresher's levels), one as format 4 wrote it (the public file
    with ``f0`` and the refresher's vector parts in full) and one as format
    3 wrote it (hex word strings, indented), the other files intact: every
    command that reads it exits 2 with the message to regenerate the keys,
    prints nothing and writes no file."""
    ch, _, _ = desk_files
    monkeypatch.chdir(tmp_path)
    files = {k: rel for k, (rel, _, _) in FILE_KINDS.items()}
    v5 = render_v5(render_v6(serial.load(files[kind]), ch), ch.q)
    v4 = render_v4(v5, ch)
    Path("c.txt").write_text("in a\nt = mul a a\nout t\n")
    Path("out").mkdir()
    for found, old in ((5, dumps_compact(v5)), (4, dumps_compact(v4)), (3, render_v3(v4))):
        assert json.loads(old)["format"] == found
        Path(f"v{found}.json").write_bytes(old)
        capsys.readouterr()
        assert main(_command(command, {**files, kind: f"v{found}.json"})) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"file format {found}, expected 7; regenerate the keys" in err
        assert not any(Path("out").iterdir())


@pytest.mark.parametrize("kind", list(FILE_KINDS))
def test_a_format_6_file_is_exit_2(desk_files, tmp_path, capsys, monkeypatch, kind):
    """A file as format 6 wrote it (every residue in a word of 1, 2, 4 or 8
    bytes), the other files intact: its loader refuses it with the message
    to regenerate the keys, and so does every command that reads it, with
    exit 2, printing nothing and writing no file.  Relabelled as format 7,
    its word strings are refused too (at desk a polynomial of four 2-byte
    words is 8 bytes, where format 7 packs four 14-bit fields in 7)."""
    ch, _, _ = desk_files
    monkeypatch.chdir(tmp_path)
    files = {k: rel for k, (rel, _, _) in FILE_KINDS.items()}
    _, read, _ = FILE_KINDS[kind]
    v6 = render_v6(serial.load(files[kind]), ch)
    assert v6["format"] == 6
    with pytest.raises(ParameterError, match="file format 6, expected 7; regenerate the keys"):
        read(ch, v6)
    if kind != "channel":  # a channel file holds no word string
        with pytest.raises(ParameterError, match="expected canonical base64 of"):
            read(ch, {**v6, "format": serial.FORMAT})
    Path("v6.json").write_bytes(dumps_compact(v6))
    Path("c.txt").write_text("in a\nt = mul a a\nout t\n")
    Path("out").mkdir()
    for command in READERS_OF[kind]:
        capsys.readouterr()
        assert main(_command(command, {**files, kind: "v6.json"})) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and "file format 6, expected 7; regenerate the keys" in err, command
        assert not any(Path("out").iterdir()), command


@pytest.mark.parametrize("q", ["0", 0], ids=["str", "int"])
@pytest.mark.parametrize("command", READERS_OF["channel"])
def test_a_channel_of_modulus_0_is_exit_2(desk_files, tmp_path, capsys, monkeypatch, command, q):
    """A channel file whose ``q`` is 0, as a decimal string or, with ``p``,
    ``n``, ``N`` and ``k0``, as a JSON integer: every command that reads it
    exits 2 with a guard failure, prints nothing and writes no file."""
    monkeypatch.chdir(tmp_path)
    files = {k: rel for k, (rel, _, _) in FILE_KINDS.items()}
    data = serial.load(files["channel"])
    fields = ("p", "n", "N", "k0") if type(q) is int else ()
    data.update({"q": q, **{k: int(data[k]) for k in fields}})
    serial.dump(data, Path("q0.json"))
    Path("c.txt").write_text("in a\nt = mul a a\nout t\n")
    Path("out").mkdir()
    capsys.readouterr()
    assert main(_command(command, {**files, "channel": "q0.json"})) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("guard failure")
    assert not any(Path("out").iterdir())


@pytest.mark.parametrize("command", READERS_OF["channel"])
def test_a_channel_may_mix_integers_and_decimal_strings(desk_files, tmp_path, capsys, monkeypatch,
                                                        command):
    """A structural integer is a JSON integer or a decimal string wherever
    one belongs, also beside integers of the other kind: a channel file
    with ``"q": 15015`` beside string scalars, and ``u`` mixing both, is
    the desk channel to every command that reads it."""
    ch, _, _ = desk_files
    monkeypatch.chdir(tmp_path)
    files = {k: rel for k, (rel, _, _) in FILE_KINDS.items()}
    data = serial.load(files["channel"])
    data["q"] = int(data["q"])
    data["u"] = [int(c) if i % 2 else c for i, c in enumerate(data["u"])]
    assert serial.channel_from_dict(data) == ch
    serial.dump(data, Path("mixed.json"))
    Path("c.txt").write_text("in a\nt = mul a a\nout t\n")
    Path("out").mkdir()
    capsys.readouterr()
    assert main(_command(command, {**files, "channel": "mixed.json"})) == 0
    assert capsys.readouterr().err == ""


# Every residue width b from 2 to 64: q = 2^b - 1, 2^b and 2^b + 1, so q - 1
# fills its b bits or q itself is a value of b + 1 bits that no residue takes;
# and a composite near 2^62.  The counts are a margin's, and n and d at desk,
# mid and large.
QS = sorted({q for b in range(2, 65) for q in (2**b - 1, 2**b, 2**b + 1) if q <= MAX_Q}
            | {(1 << 62) - 57})
COUNTS = (1, 3, 4, 6, 10, 16, 64)


def test_the_field_width_is_the_bit_length_of_q_minus_1():
    assert [Ring(q, (-1, 0, 1)).bits for q in QS] == [(q - 1).bit_length() for q in QS]
    assert {Ring(q, (-1, 0, 1)).bits for q in QS} == set(range(2, 65))


@pytest.mark.parametrize("q", QS)
@given(data=st.data())
@settings(max_examples=2, deadline=None)
def test_word_strings_round_trip_at_every_word_width(q, data):
    """At every count, an all-(q - 1) row and rows of residues drawn from
    the two ends of ``[0, q)`` or anywhere in it, written and read back
    (``serial._words_out``, ``serial._words``): each string is the canonical
    base64 of ``ceil(count * b / 8)`` bytes for the bit length ``b`` of
    ``q - 1``."""
    ring, rnd = Ring(q, (-1, 0, 1)), data.draw(st.randoms(use_true_random=False))
    for count in COUNTS:
        rows = [(q - 1,) * count] + [
            tuple(rnd.choice((0, 1, q - 1, rnd.randrange(q))) for _ in range(count))
            for _ in range(rnd.randrange(4))]
        texts = serial._words_out(ring, rows)
        assert all(base64.b64encode(base64.b64decode(t)).decode() == t for t in texts)
        assert {len(base64.b64decode(t)) for t in texts} == {math.ceil(count * ring.bits / 8)}
        assert serial._words(ring, texts, "leaf", (None,), count) == tuple(rows)


@given(q=st.sampled_from(QS), count=st.sampled_from(COUNTS),
       kind=st.sampled_from(["field q", "pad bit", "longer", "shorter"]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_field_of_q_a_pad_bit_or_a_byte_more_or_less_is_refused(q, count, kind, data):
    """One change to the string of a row of drawn residues: a field set to q
    (where q has ``b`` bits), a set bit past the last field, or a byte put in
    or taken out.  The string stays canonical base64, so the codec's own
    checks refuse it with ParameterError."""
    ring = Ring(q, (-1, 0, 1))
    bits, size = ring.bits, math.ceil(ring.bits * count / 8)
    row = data.draw(st.tuples(*[st.integers(0, q - 1)] * count))
    raw = base64.b64decode(serial._words_out(ring, [row])[0])
    value = int.from_bytes(raw, "little")
    if kind == "field q":
        assume(q < 1 << bits)  # 2^b itself is no b-bit value
        at = data.draw(st.integers(0, count - 1)) * bits
        raw = (value & ~((1 << bits) - 1 << at) | q << at).to_bytes(size, "little")
    elif kind == "pad bit":
        assume(8 * size > bits * count)
        bit = data.draw(st.integers(bits * count, 8 * size - 1))
        raw = (value | 1 << bit).to_bytes(size, "little")
    elif kind == "longer":
        at = data.draw(st.integers(0, size))
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at:]
    else:
        at = data.draw(st.integers(0, size - 1))
        raw = raw[:at] + raw[at + 1:]
    with pytest.raises(ParameterError):
        serial._words(ring, [base64.b64encode(raw).decode()], "leaf", (None,), count)


@pytest.mark.parametrize("q", [256, 2**64], ids=["1-byte", "8-byte"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_word_string_is_read_exactly_when_it_is_canonical(q, data):
    """``_words`` reads a leaf exactly when the stdlib's strict decoding of
    it has the string's bytes and encodes back to it; every padding occurs
    (1 to 4 words).  Leaves are canonical ones with up to two characters
    replaced, by base64 characters, the padding, URL-safe ones or
    whitespace.  At ``q = 2^8`` and ``2^64`` each field is whole bytes and
    every value is below q, so the base64 alone decides."""
    ring = Ring(q, (-1, 0, 1))
    count = data.draw(st.integers(1, 4), label="count")
    size = count * ring.bits // 8  # whole bytes: no bit past the last field
    leaf = list(base64.b64encode(data.draw(st.binary(min_size=size, max_size=size))).decode())
    for _ in range(data.draw(st.integers(0, 2), label="edits")):
        leaf[data.draw(st.integers(0, len(leaf) - 1))] = data.draw(st.sampled_from(B64 + "=-_ \n"))
    leaf = "".join(leaf)
    try:
        raw = base64.b64decode(leaf, validate=True)
        canonical = len(raw) == size and base64.b64encode(raw).decode() == leaf
    except ValueError:
        canonical = False
    try:
        words = serial._words(ring, [leaf], "leaf", (None,), count)
    except ParameterError:
        words = None
    assert (words is not None) == canonical
    if canonical:
        assert words == (struct.unpack(f"<{count}{ring.word[0]}", raw),)


def test_a_ring_above_2_to_the_64_has_no_word():
    """The word rule is the ring's: the largest q takes 8-byte words, and a
    larger one is refused when its ring is built."""
    assert Ring(2**64, (-1, 0, 1)).word == ("Q", 8)
    with pytest.raises(ParameterError, match="q = 18446744073709551617 is above 2\\*\\*64"):
        Ring(2**64 + 1, (-1, 0, 1))


def test_a_file_over_a_modulus_above_2_to_the_64_is_refused():
    """A channel above ``2^64`` is invalid (``violations()`` names it), and
    a file of one built without the check is refused too: the file readers
    meet the ring's refusal."""
    ch = ArithmeticChannel(p=2, q=2**64 + 1, omega=1, u=(-1, 0, 1), n=1, big_n=1, k0=1)
    word_string = "A" * 22 + "=="  # two 8-byte words
    with pytest.raises(ParameterError, match="2\\*\\*64"):
        serial.ciphertext_from_dict(ch, {"format": serial.FORMAT, "c": [word_string],
                                         "cprime": word_string, "level": 0})
    with pytest.raises(ParameterError, match="2\\*\\*64"):
        serial.secret_from_dict(ch, {"format": serial.FORMAT, "secret": [word_string]})
