"""Strict loading: files must hold canonical, exactly-shaped values.

Nothing read from a file is silently reduced or truncated; a malformed
polynomial or tensor, or a float or boolean where an integer belongs, is
refused with ParameterError (CLI exit 2).
"""

import json
import math

import pytest

from aces import serial
from aces.channel import ArithmeticChannel, RandomSource
from aces.cli import main
from aces.errors import ParameterError
from aces.keygen import keygen


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


def _decrypt(keys, ct):
    return main(["decrypt", "--secret", str(keys / "secret.json"),
                 "--channel", str(keys / "channel.json"), "--ct", str(ct)])


@pytest.mark.parametrize("corrupt", [
    lambda ch, d: d["cprime"].__setitem__(0, str(int(d["cprime"][0]) + ch.q)),  # q + c
    lambda ch, d: d["cprime"].__setitem__(0, "-1"),
    lambda ch, d: d["c"][0].append("0"),  # a surplus coefficient
    lambda ch, d: d["c"][1].pop(),  # a missing coefficient
    lambda ch, d: d["c"].pop(),  # a missing vector slot
    lambda ch, d: d.__setitem__("level", ch.max_noise_level() + 0.5),  # 7506.5, past the budget
    lambda ch, d: d.__setitem__("level", True),
    lambda ch, d: d["cprime"].__setitem__(0, 4539.75),
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
    lambda ch, lam: lam[-1].pop(),  # truncated plane
    lambda ch, lam: lam.pop(),  # missing plane
    lambda ch, lam: lam[0][0].pop(),  # short row
    lambda ch, lam: lam[0][0].__setitem__(0, str(ch.q)),  # non-canonical entry
    lambda ch, lam: lam[0][1].__setitem__(0, str((int(lam[0][1][0]) + 1) % ch.q)),  # asymmetric
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
    data["f0"][0].pop()
    with pytest.raises(ParameterError):
        serial.public_from_dict(ch, data)


def test_channel_poly_stays_lenient_in_library_code(desk_files):
    ch, _, _ = desk_files
    assert ch.ring.poly([ch.q + 3, 0, 0, 0, 1]).coeffs == (4, 0, 0, 0)  # X^4 = 1


@pytest.mark.parametrize("corrupt", [
    lambda ch, d: d["sigma"]["primes"].pop(),  # a prime factor of q missing
    lambda ch, d: d["sigma"]["primes"].append("17"),  # a prime that does not divide q
    lambda ch, d: d["sigma"]["primes"].reverse(),  # out of order
    lambda ch, d: d["sigma"]["map"].pop(),  # one slot unassigned
    lambda ch, d: d["sigma"]["map"].append(0),  # a surplus slot
    lambda ch, d: d["refresher"]["kappa"].pop(),
    lambda ch, d: d["refresher"]["kappa"].__setitem__(0, -1),
    lambda ch, d: d["refresher"]["rho"].pop(),
    lambda ch, d: d["refresher"]["rho"].append(d["refresher"]["rho"][0]),
    lambda ch, d: d["locators"][0]["vec"].pop(),
    lambda ch, d: d["locators"][0]["vec"].append("0"),
    lambda ch, d: d["locators"][0]["vec"].__setitem__(0, str(ch.q)),
    lambda ch, d: d["locators"][0]["vec"].__setitem__(0, "-1"),
    lambda ch, d: d["locators"][0].__setitem__("kind", "detector"),
    lambda ch, d: d["lambda"][0][0].__setitem__(0, int(d["lambda"][0][0][0]) + 0.25),
    lambda ch, d: d["sigma"]["map"].__setitem__(0, float(d["sigma"]["map"][0])),
    lambda ch, d: d["refresher"]["kappa"].__setitem__(0, 1.5),
    lambda ch, d: d["refresher"]["kappa"].__setitem__(0, True),
    lambda ch, d: d["refresher"].__setitem__("kappa", [0] * ch.n),  # rho sits at level 1
    lambda ch, d: d["locators"][0].__setitem__("k", d["locators"][0]["k"] + 0.5),
    lambda ch, d: d["locators"][0].__setitem__("k", -1),
    lambda ch, d: d["locators"][0].__setitem__("margin_num", str(ch.q)),
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
                 "--ct", str(ct), "--seed", "01", "--assume-refreshable",
                 "--out", str(tmp_path / "r.json")]) == 2


def test_intact_public_material_loads_whole(desk_files):
    ch, keys, _ = desk_files
    data = serial.load(keys / "public.json")
    keys = serial.public_from_dict(ch, data)
    refresher = keys.refresher
    assert len(keys.repartition.assignment) == len(refresher.kappa) == len(refresher.rho) == ch.n
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
    character."""
    ch, keys, ct = desk_files
    data = serial.load(ct)
    data["cprime"] = "1000"
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
                 "--ct", str(ct), "--seed", "01", "--assume-refreshable",
                 "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("params", [
    dict(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1),
    dict(p=2, q=math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), omega=1,
         u=(-1,) + (0,) * 15 + (1,), n=6, big_n=4, k0=1),
    dict(p=3, q=math.prod((5, 7, 11, 13, 17, 19)), omega=1, u=(-1,) + (0,) * 7 + (1,),
         n=4, big_n=5, k0=1),
], ids=["desk", "mid", "odd-rows"])
def test_public_file_round_trips_through_eval_keys(params):
    ch = ArithmeticChannel(**params).require_valid()
    bundle = keygen(ch, RandomSource(b"round-trip"))
    data = json.loads(json.dumps(serial.public_to_dict(bundle)))
    keys = serial.public_from_dict(ch, data)
    assert serial.public_to_dict(keys) == data
    assert keys.repartition == bundle.repartition
