"""Property tests at the command-line boundary.

Random add/mul circuits of depth at most 3 go through ``aces eval --secret
... --refresh auto``, and fresh or multiplied ciphertexts through ``aces
refresh --secret``, at the desk channel and at ``p = 3, q = 5*7*11*13``
(p does not divide q).  Every ciphertext a command writes must decrypt,
through ``aces decrypt``, to the plain result (``eval_plain``, or the
message).  Otherwise the command exits 2, a guard's refusal, and writes no
ciphertext and no ``report.json``.  Keys are made once per module.

A desk channel, public, secret or ciphertext file with one mutation (a
field dropped or added at any depth, a structural integer of another type,
or in a base64 word string or one of the public file's two seeds: a word
a byte narrower or wider, a residue set to q (word strings only: any bytes
are a seed), the string truncated, a pad bit set, the padding dropped, a
URL-safe character, a space or newline, or format 3's hex in its place) is
read by ``encrypt``, ``eval``, ``refresh --secret`` or ``decrypt``: each
exits 1 or 2 and writes nothing, or exits 0 with outputs that decrypt to
the plain result.
"""

import base64
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
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


# The mutation test: one change to one file of a desk key directory or to a
# ciphertext of 1, then one command that reads that file.
CIRCUIT = "in a\nt = mul a a\nout t\n"
READERS = {  # file kind -> the commands that read it
    "channel": ("encrypt", "eval", "refresh", "decrypt"),
    "public": ("encrypt", "eval", "refresh"),
    "secret": ("refresh", "decrypt"),
    "ciphertext": ("eval", "refresh", "decrypt"),
}
# The standard base64 alphabet, in the order of the values it encodes.
B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# A string under one of these fields is a word string, or a seed at one of
# SEED_PATHS; a value under one of the others is a structural integer (a level
# among them).
WORD_FIELDS = {"f0", "fprime", "alpha", "beta", "c", "cprime", "vec", "margin_num", "secret"}
SEED_PATHS = {("f0",), ("refresher", "c")}
INT_FIELDS = {"format", "level", "k", "sigma", "p", "q", "omega", "u", "n", "N", "k0"}


@pytest.fixture(scope="module")
def files(keys, tmp_path_factory):
    """Per file kind, its path: the desk key files and a ciphertext of 1."""
    _, path = keys["desk"]
    ct = tmp_path_factory.mktemp("ct") / "ct.json"
    assert _aces("encrypt", *_public(path), "--message", 1, "--seed", "01", "--out", ct)[0] == 0
    return {"channel": path / "channel.json", "public": path / "public.json",
            "secret": path / "secret.json", "ciphertext": ct}


def _nodes(tree, path=()):
    """Every ``(path, value)`` of a JSON tree, containers included."""
    yield path, tree
    if isinstance(tree, (dict, list)):
        for key, value in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from _nodes(value, (*path, key))


def _field(path) -> str:
    return next((key for key in reversed(path) if isinstance(key, str)), "")


def _mutate(draw, tree, q: int) -> None:
    """Apply one drawn mutation to ``tree`` in place."""
    nodes = list(_nodes(tree))
    dicts = [v for _, v in nodes if isinstance(v, dict) and v]
    words = [(path, v) for path, v in nodes if isinstance(v, str) and _field(path) in WORD_FIELDS]
    ints = [(path, v) for path, v in nodes
            if not isinstance(v, (dict, list)) and _field(path) in INT_FIELDS]
    kind = draw(st.sampled_from(["drop", "add"] + ["retype"] * bool(ints) + [
        "narrower", "wider", "residue q", "truncate", "pad bit", "unpadded", "url-safe",
        "whitespace", "hex"] * bool(words)), label="mutation")
    if kind in ("drop", "add"):
        obj = draw(st.sampled_from(dicts), label="object")
        if kind == "drop":
            del obj[draw(st.sampled_from(sorted(obj)), label="field")]
        else:
            obj[draw(st.sampled_from([k for k in ("extra", "level", "vec") if k not in obj]),
                     label="field")] = 1
        return
    residues = [(path, v) for path, v in words if path not in SEED_PATHS]  # any bytes are a seed
    path, v = draw(st.sampled_from(
        {"retype": ints, "residue q": residues}.get(kind, words)), label="target")
    # Bytes per word; a seed's bytes are its words.
    width = 1 if path in SEED_PATHS else next(w for w in (1, 2, 4, 8) if q - 1 < 256**w)
    if kind == "retype":
        new = draw(st.sampled_from(
            [float(int(v)), bool(int(v)), None, [v], str(v) if type(v) is int else int(v)]))
    elif kind == "truncate":
        new = v[:draw(st.integers(0, len(v) - 1))]
    elif kind in ("narrower", "wider", "residue q"):
        raw = base64.b64decode(v)
        i = draw(st.integers(0, len(raw) // width - 1)) * width  # one word's start
        new = base64.b64encode(
            raw[:i] + raw[i + 1:] if kind == "narrower"
            else raw[:i + width] + b"\0" + raw[i + width:] if kind == "wider"
            else raw[:i] + q.to_bytes(width, "little") + raw[i + width:]).decode()
    elif kind == "pad bit":  # the last data character's low bit: a pad bit when padded
        j = len(v.rstrip("=")) - 1
        new = v[:j] + B64[B64.index(v[j]) | 1] + v[j + 1:]
    elif kind == "unpadded":
        new = v.rstrip("=")
    elif kind == "hex":
        new = base64.b64decode(v).hex()
    else:  # one character replaced by a URL-safe one, or whitespace inserted
        j = draw(st.integers(0, len(v) - 1), label="at")
        new = (v[:j] + draw(st.sampled_from("-_")) + v[j + 1:] if kind == "url-safe"
               else v[:j] + draw(st.sampled_from(" \n")) + v[j:])
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new


@given(kind=st.sampled_from(list(READERS)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_mutated_file_is_refused_or_runs_right(keys, files, kind, data):
    """Every command that reads the mutated file either exits 1 or 2 and
    writes nothing, or exits 0 with outputs that decrypt to the plain result
    under the intact key."""
    p, path = keys["desk"]
    tree = json.loads(files[kind].read_text())
    _mutate(data.draw, tree, int(json.loads(files["channel"].read_text())["q"]))
    command = data.draw(st.sampled_from(READERS[kind]), label="command")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        given_files = {**files, kind: work / f"{kind}.json"}
        given_files[kind].write_text(json.dumps(tree))
        (work / "circ.txt").write_text(CIRCUIT)
        keys_flags = ("--pub", given_files["public"], "--channel", given_files["channel"])
        out = work / "out"
        argv = {
            "encrypt": ("encrypt", *keys_flags, "--message", 1, "--seed", "02", "--out", out),
            "eval": ("eval", *keys_flags, "--circuit", work / "circ.txt",
                     "--input", f"a={given_files['ciphertext']}", "--out", out),
            "refresh": ("refresh", *keys_flags, "--ct", given_files["ciphertext"],
                        "--secret", given_files["secret"], "--seed", "03", "--out", out),
            "decrypt": ("decrypt", "--secret", given_files["secret"],
                        "--channel", given_files["channel"], "--ct", given_files["ciphertext"]),
        }[command]
        code, printed = _aces(*argv)
        event(f"exit {code}")
        if code:
            assert code in (1, 2)
            assert printed == "" and not out.exists()
            return
        want = eval_plain(parse_circuit(CIRCUIT), {"a": 1}, p)["t"] if command == "eval" else 1
        if command == "decrypt":
            assert printed.strip() == str(want)
        else:
            assert _decrypt(path, out / "t.json" if command == "eval" else out) == str(want)
