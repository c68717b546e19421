"""Property tests at the command-line boundary.

Random add/mul circuits of depth at most 3 go through ``aces eval --secret
... --refresh auto``, and fresh or multiplied ciphertexts through ``aces
refresh --secret``, at the desk channel and at ``p = 3, q = 5*7*11*13``
(p does not divide q).  Every ciphertext a command writes must decrypt,
through ``aces decrypt``, to the plain result (``eval_plain``, or the
message).  Otherwise the command exits 2, a guard's refusal, and writes no
ciphertext and no ``report.json``.  Keys are made once per module.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aces.circuit import eval_plain, parse_circuit
from aces.cli import main

# name -> (p, q); both at degree 4 with n = 3, N = 2.
CHANNELS = {"desk": (2, 15015), "p3": (3, 5 * 7 * 11 * 13)}
SEEDS = st.binary(min_size=1, max_size=4).map(bytes.hex)


def _aces(*argv) -> tuple[int, str]:
    """``aces`` in process: its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    """Per channel name, ``(p, key directory)``."""
    made = {}
    for name, (p, q) in CHANNELS.items():
        path = tmp_path_factory.mktemp(f"keys-{name}")
        assert _aces("keygen", "--p", p, "--q", q, "--degree", 4, "--n", 3, "--bigN", 2,
                     "--k0", 1, "--seed", "c1", "--out", path)[0] == 0
        made[name] = (p, path)
    return made


def _public(path: Path) -> tuple:
    return ("--pub", path / "public.json", "--channel", path / "channel.json")


def _decrypt(path: Path, ct: Path) -> str:
    code, out = _aces("decrypt", "--secret", path / "secret.json",
                      "--channel", path / "channel.json", "--ct", ct)
    assert code == 0
    return out.strip()


@st.composite
def circuits(draw):
    """The text of an add/mul circuit of depth at most 3, and its inputs."""
    names = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    depth = dict.fromkeys(names, 0)
    lines = ["in " + " ".join(names)]
    for g in range(draw(st.integers(1, 5))):
        ready = [wire for wire, k in depth.items() if k < 3]
        op = draw(st.sampled_from(("add", "mul")))
        a, b = draw(st.sampled_from(ready)), draw(st.sampled_from(ready))
        depth[f"g{g}"] = 1 + max(depth[a], depth[b])
        lines.append(f"g{g} = {op} {a} {b}")
    outputs = draw(st.lists(st.sampled_from(list(depth)), min_size=1, max_size=3, unique=True))
    return "\n".join([*lines, "out " + " ".join(outputs)]) + "\n", names


@given(name=st.sampled_from(list(CHANNELS)), circuit=circuits(), data=st.data())
@settings(max_examples=10, deadline=None)
def test_eval_writes_only_ciphertexts_that_decrypt(keys, name, circuit, data):
    p, path = keys[name]
    text, inputs = circuit
    plain = {wire: data.draw(st.integers(0, p - 1)) for wire in inputs}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "circ.txt").write_text(text)
        out = work / "out"
        argv = ["eval", *_public(path), "--circuit", work / "circ.txt", "--refresh", "auto",
                "--secret", path / "secret.json", "--seed", data.draw(SEEDS), "--out", out]
        for wire, m in plain.items():
            ct = work / f"{wire}.json"
            assert _aces("encrypt", *_public(path), "--message", m, "--seed", data.draw(SEEDS),
                         "--out", ct)[0] == 0
            argv += ["--input", f"{wire}={ct}"]
        code, _ = _aces(*argv)
        if code:
            assert code == 2
            assert not out.exists()
            return
        want = eval_plain(parse_circuit(text), plain, p)
        assert sorted(f.name for f in out.iterdir()) == sorted(
            [f"{wire}.json" for wire in want] + ["report.json"])
        for wire, m in want.items():
            assert _decrypt(path, out / f"{wire}.json") == str(m)


@given(name=st.sampled_from(list(CHANNELS)), multiplied=st.booleans(), data=st.data())
@settings(max_examples=10, deadline=None)
def test_refresh_writes_only_ciphertexts_that_decrypt(keys, name, multiplied, data):
    """A fresh encryption, or the product of two made by ``aces eval
    --refresh off``, refreshed with the key owner's exact check."""
    p, path = keys[name]
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for wire, m in (("a", a), ("b", b)):
            assert _aces("encrypt", *_public(path), "--message", m, "--seed", data.draw(SEEDS),
                         "--out", work / f"{wire}.json")[0] == 0
        ct, want = work / "a.json", a
        if multiplied:
            (work / "circ.txt").write_text("in a b\nt = mul a b\nout t\n")
            assert _aces("eval", *_public(path), "--circuit", work / "circ.txt",
                         "--input", f"a={work / 'a.json'}", "--input", f"b={work / 'b.json'}",
                         "--refresh", "off", "--out", work / "prod")[0] == 0
            ct, want = work / "prod" / "t.json", a * b % p
        fresh = work / "fresh.json"
        code, _ = _aces("refresh", *_public(path), "--ct", ct, "--secret", path / "secret.json",
                        "--seed", data.draw(SEEDS), "--out", fresh)
        if code:
            assert code == 2
            assert not fresh.exists()
            return
        assert _decrypt(path, fresh) == str(want)
