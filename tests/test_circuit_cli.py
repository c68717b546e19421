"""Tests for circuit parsing, the evaluator, serialization, and the CLI."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aces
import aces.circuit as circuit_module
from aces import serial
from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import (
    Ciphertext, decrypt, encrypt, encrypt_with_secret, post_refresh_level, shadow,
)
from aces.circuit import (
    EvalKeys,
    Gate,
    RefreshPolicy,
    eval_plain,
    evaluate,
    parse_circuit,
)
from aces.cli import main
from aces.errors import CircuitError, NoiseBudgetError, ParameterError
from aces.keygen import keygen
from aces.refresh import secret_refresh_checker
from aces.rings import PackedRows

from oracles import dumps, evaluate_reference

# -- parsing ----------------------------------------------------------------


def test_parse_identity_circuit():
    c = parse_circuit("in a\nout a")
    assert c.inputs == ("a",)
    assert c.gates == ()
    assert c.outputs == ("a",)


def test_parse_one_gate_adder():
    c = parse_circuit("in a b\nt = add a b\nout t")
    assert len(c.gates) == 1
    assert c.gates[0].op == "add"


def test_parse_comments_and_blanks():
    c = parse_circuit("# header\n\nin a  # trailing\nt = mul a a\nout t\n")
    assert c.gates[0].op == "mul"


def test_parse_undeclared_operand_reports_line():
    with pytest.raises(CircuitError) as err:
        parse_circuit("t = add a a")
    assert "line 1" in str(err.value)


def test_parse_duplicate_name():
    with pytest.raises(CircuitError) as err:
        parse_circuit("in a a")
    assert "duplicate" in str(err.value)


def test_parse_requires_output():
    with pytest.raises(CircuitError):
        parse_circuit("in a\nt = add a a")


@pytest.mark.parametrize("text, message", [
    ("in\nout", "line 1: 'in' needs at least one name"),
    ("in a\nout", "line 2: 'out' needs at least one name"),
    ("in a\nout b", "line 2: unknown output 'b'"),
    ("in a\nt = add a a\nt = mul a a\nout t", "line 3: duplicate name 't'"),
], ids=["in-without-names", "out-without-names", "unknown-output", "duplicate-gate-output"])
def test_parse_refuses_a_statement(text, message):
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    assert str(err.value) == message


def test_parse_malformed_line():
    with pytest.raises(CircuitError) as err:
        parse_circuit("in a\nt = xor a a\nout t")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("op", ["xor", "Add", ""])
def test_a_gate_built_directly_refuses_an_unknown_operation(op):
    """Not only the parser: a ``Gate`` itself refuses an op other than
    ``add`` or ``mul``, so neither ``evaluate`` nor ``eval_plain`` can run
    one as a product."""
    with pytest.raises(CircuitError) as err:
        Gate("t", op, "a", "a")
    assert str(err.value) == f"unknown operation {op!r} for gate 't'"


# -- evaluation -------------------------------------------------------------


def _secret_policy(bundle):
    return RefreshPolicy(
        mode="auto", checker=secret_refresh_checker(bundle.secret, bundle.channel)
    )


def test_evaluate_identity_passthrough(desk_bundle, rng):
    ch = desk_bundle.channel
    keys = desk_bundle
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    outputs, report = evaluate(parse_circuit("in a\nout a"), {"a": ct}, keys)
    assert outputs["a"] == ct
    assert report.refresh_events == []


def test_evaluate_single_add(desk_bundle, rng):
    ch = desk_bundle.channel
    keys = desk_bundle
    circuit = parse_circuit("in a b\nt = add a b\nout t")
    for m1 in range(ch.p):
        for m2 in range(ch.p):
            env = {
                "a": encrypt(desk_bundle.public, ch, m1, rng),
                "b": encrypt(desk_bundle.public, ch, m2, rng),
            }
            outputs, _ = evaluate(circuit, env, keys)
            assert decrypt(desk_bundle.secret, ch, outputs["t"]) == (m1 + m2) % ch.p


def test_evaluate_rejects_unbound_inputs(desk_bundle):
    keys = desk_bundle
    with pytest.raises(CircuitError, match="unbound"):
        evaluate(parse_circuit("in a\nout a"), {}, keys)


DEPTH3 = "in a\nt1 = mul a a\nt2 = mul t1 t1\nt3 = mul t2 t2\nout t3"


def test_mul_chain_fails_without_refresh(desk_bundle, rng):
    keys = desk_bundle
    env = {"a": encrypt(desk_bundle.public, desk_bundle.channel, 1, rng)}
    with pytest.raises(NoiseBudgetError, match="t3"):
        evaluate(parse_circuit(DEPTH3), env, keys, RefreshPolicy(mode="off"), rng)


@pytest.mark.parametrize("mode", ["Auto", "OFF", "on", ""])
def test_refresh_policy_refuses_unknown_modes(mode):
    with pytest.raises(ParameterError, match="refresh mode"):
        RefreshPolicy(mode=mode)
    policy = RefreshPolicy(mode="off")
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.mode = mode  # the check cannot be bypassed after construction
    assert policy.mode == "off" and RefreshPolicy().mode == "auto"


def test_evaluation_keys_are_one_class_everywhere():
    assert aces.EvalKeys is EvalKeys is aces.refresh.EvalKeys


def test_mul_chain_succeeds_with_refresh(desk_bundle, rng):
    ch = desk_bundle.channel
    keys = desk_bundle
    env = {"a": encrypt(desk_bundle.public, ch, 1, rng)}
    outputs, report = evaluate(
        parse_circuit(DEPTH3), env, keys, _secret_policy(desk_bundle), rng
    )
    assert len(report.refresh_events) >= 1
    for _, _, post in report.refresh_events:
        assert post == 60
    assert decrypt(desk_bundle.secret, ch, outputs["t3"]) == 1
    assert outputs["t3"].level <= ch.max_noise_level()


def test_auto_refresh_without_a_random_source_is_refused(desk_bundle, rng):
    env = {"a": encrypt(desk_bundle.public, desk_bundle.channel, 1, rng)}
    with pytest.raises(CircuitError, match="auto refresh needs a random source"):
        evaluate(parse_circuit(DEPTH3), env, desk_bundle, _secret_policy(desk_bundle))


@cache
def _p3_bundle():
    """Keys at p=3, q=5005: budget 1667, post-refresh level 127."""
    ch = ArithmeticChannel(p=3, q=5005, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    return keygen(ch.require_valid(), RandomSource(b"found-50"))


def test_gate_past_the_budget_at_the_post_refresh_level_refreshes_nothing():
    """At p=3, q=5005 the budget is 1667 and the post-refresh level 127, so
    ``mul`` of a level-144 product with a fresh level-6 wire is over budget
    even with the product refreshed ((127 + 6 + 762) * 3 = 2685): the gate
    is refused at its operands' own levels before any refresh attempt."""
    bundle = _p3_bundle()
    ch = bundle.channel
    keys, rng = bundle, RandomSource(b"found-50/run")
    assert (post_refresh_level(ch), ch.max_noise_level()) == (127, 1667)
    exact, checked = secret_refresh_checker(bundle.secret, ch), []
    policy = RefreshPolicy(checker=lambda ct: checked.append(ct.level) or exact(ct))
    env = {m: encrypt(bundle.public, ch, 1, rng) for m in "ab"}
    circuit = parse_circuit("in a b\nt = mul a b\ns = mul t a\nout s")
    with pytest.raises(NoiseBudgetError,
                       match=r"gate 's' \(mul t a\) exceeds the noise budget at levels 144, 6$"):
        evaluate(circuit, env, keys, policy, rng)
    assert checked == []


def test_a_gate_whose_operands_are_at_or_below_the_post_refresh_level_needs_no_rng():
    """At p=3, q=5005 ``mul`` of levels 78 and 6 reaches 1656: past the
    threshold 1667 - 127 = 1540, but both operands are already below the
    post-refresh level 127, so no refresh is due and none is attempted."""
    bundle = _p3_bundle()
    ch = bundle.channel
    env = {"a": encrypt(bundle.public, ch, 1, RandomSource(b"no-refresh-due"))}
    circuit = parse_circuit("in a\nt1 = add a a\nt2 = add t1 t1\nt3 = add t2 t2\n"
                            "t4 = add t3 t2\nt5 = add t4 a\ns = mul t5 a\nout s")
    outputs, report = evaluate(circuit, env, bundle)
    assert report.refresh_events == []
    assert (report.levels["t5"], report.levels["s"]) == (78, 1656)
    assert decrypt(bundle.secret, ch, outputs["s"]) == 13 % ch.p


def _same_as_the_reference(bundle, circuit, levels, seed, policy=None):
    """Run ``evaluate`` and ``oracles.evaluate_reference`` (with the exact
    checker) on the key owner's encryptions of random messages at
    ``levels``: their output bytes, refresh events, levels, refusals and
    next draw must agree.  Returns them."""
    ch = bundle.channel
    checker = secret_refresh_checker(bundle.secret, ch)

    def run(evaluator):
        rng = RandomSource(seed)
        env = {name: encrypt_with_secret(bundle.secret, bundle.public.repartition, ch,
                                         rng.below(ch.p), level, rng)
               for name, level in zip(circuit.inputs, levels)}
        try:
            outputs, *report = evaluator(env, rng)
        except NoiseBudgetError as exc:
            return str(exc), rng.below(2**64)
        return ({name: dumps(serial.ciphertext_to_dict(ct)) for name, ct in outputs.items()},
                *report, rng.below(2**64))

    def new(env, rng):
        outputs, report = evaluate(circuit, env, bundle,
                                   policy or RefreshPolicy(checker=checker), rng)
        return outputs, report.refresh_events, report.levels

    def old(env, rng):
        return evaluate_reference(circuit, env, bundle, checker, rng)

    got = run(new)
    assert got == run(old)
    return got


def _random_gates(data, ch):
    """A random add/mul circuit over ``ch`` that outputs every wire, or
    only the last, and levels for its inputs, drawn from either end of the
    budget or where an add of two meets the refresh threshold."""
    names = [f"i{k}" for k in range(data.draw(st.integers(1, 3), label="inputs"))]
    lines = ["in " + " ".join(names)]
    for g in range(data.draw(st.integers(1, 10), label="gates")):
        # Operands count back from the newest wire, so chains run deep, and
        # adds outnumber muls: at p=3 a mul of two wires past level 22 overflows.
        op, i, j = data.draw(st.tuples(st.sampled_from(["add", "add", "mul"]),
                                       st.integers(1, len(names)), st.integers(1, len(names))))
        lines.append(f"g{g} = {op} {names[-i]} {names[-j]}")
        names.append(f"g{g}")
    outputs = names if data.draw(st.booleans(), label="every wire out") else names[-1:]
    circuit = parse_circuit("\n".join(lines + ["out " + " ".join(outputs)]))
    budget, post = ch.max_noise_level(), post_refresh_level(ch)
    a_level = (st.integers(0, budget) | st.integers(0, budget).map(lambda k: budget - k)
               | st.integers(-1, 1).map(lambda d: (budget - post) // 2 + d))
    levels = data.draw(st.lists(a_level, min_size=len(circuit.inputs),
                                max_size=len(circuit.inputs)), label="levels")
    return circuit, levels


@given(data=st.data(), seed=st.binary(min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_evaluate_refreshes_as_the_inline_rule_did(desk_bundle, data, seed):
    """On random add/mul circuits at desk and at p=3, q=5005 that output
    every wire or only the last, with the exact checker, ``evaluate`` gives
    the outputs, refresh events, levels and refusals of
    ``oracles.evaluate_reference`` and draws as much randomness.  With only
    the last wire read, the wires that feed only refreshes get no
    polynomials."""
    bundle = desk_bundle if data.draw(st.booleans(), label="desk") else _p3_bundle()
    _same_as_the_reference(bundle, *_random_gates(data, bundle.channel), seed)


def test_the_power_chain_multiplies_only_the_wire_its_output_reads(desk_bundle, monkeypatch):
    """The benchmark's 10-gate power chain at desk with the key owner's
    checker refreshes t3, t5, t7 and t9, and t1 to t9 and the refreshed t3,
    t5 and t7 feed only refreshes: one ``hom_mul`` (t10, of the refreshed
    t9 by a) and one combination of the refresh matrix, where the eager
    loop ran 10 and 4."""
    ch, keys = desk_bundle.channel, desk_bundle
    products, combined = [], []
    hom_mul, combine = circuit_module.hom_mul, PackedRows.combine
    monkeypatch.setattr(circuit_module, "hom_mul", lambda *a: products.append(a) or hom_mul(*a))
    monkeypatch.setattr(PackedRows, "combine", lambda rows, w: (
        combined.append(rows is keys.refresh_rows) or combine(rows, w)))
    chain = "in a\nt1 = mul a a\n" + "".join(f"t{i} = mul t{i - 1} a\n" for i in range(2, 11))
    rng = RandomSource(b"power chain")
    env = {"a": encrypt(desk_bundle.public, ch, 1, rng)}
    combined.clear()
    outputs, report = evaluate(parse_circuit(chain + "out t10"), env, keys,
                               _secret_policy(desk_bundle), rng)
    assert [wire for wire, _, _ in report.refresh_events] == ["t3", "t5", "t7", "t9"]
    assert len(products) == 1 and combined == [True]
    assert decrypt(desk_bundle.secret, ch, outputs["t10"]) == 1


def test_the_owner_reads_the_secret_evaluations_keygen_kept(desk_channel, monkeypatch):
    """After ``keygen``, the power chain with the key owner's checker and
    the decryption of its output read the secret's evaluations that key
    generation kept (``SecretKey.values``): the channel evaluates no
    polynomial of the secret."""
    ch = desk_channel
    bundle = keygen(ch, RandomSource(b"secret kept"))
    calls, real = [], ArithmeticChannel.eval
    monkeypatch.setattr(ArithmeticChannel, "eval", lambda self, v: calls.append(v) or real(self, v))
    rng = RandomSource(b"secret kept/run")
    env = {"a": encrypt(bundle.public, ch, 1, rng)}
    outputs, report = evaluate(parse_circuit(POWER_CHAIN), env, bundle, _secret_policy(bundle), rng)
    assert report.refresh_events and decrypt(bundle.secret, ch, outputs["t10"]) == 1
    assert calls and not any(v is x for v in calls for x in bundle.secret.polys)


@pytest.mark.parametrize("mode, gates", [("off", 1500), ("auto", 3000)])
def test_a_long_add_chain_evaluates_without_recursion(desk_bundle, mode, gates):
    """An add chain as long as the budget allows with refresh off (the last
    wire at level 6004), and twice that with auto refresh, which refreshes
    t1859 once, evaluates (no ``RecursionError`` from its passes) and
    equals the reference."""
    lines = ["in a", "t0 = add a a", *(f"t{i} = add t{i - 1} a" for i in range(1, gates))]
    circuit = parse_circuit("\n".join(lines + [f"out t{gates - 1}"]))
    policy = None if mode == "auto" else RefreshPolicy(mode="off")
    _, events, levels, _ = _same_as_the_reference(desk_bundle, circuit, [4], b"long chain", policy)
    assert events == ([("t1859", 7444, 60)] if mode == "auto" else [])
    assert levels[f"t{gates - 1}"] == (4620 if mode == "auto" else 6004)


MALFORMED_INPUTS = {
    "n - 1 vector parts": lambda ct: Ciphertext(ct.c[:-1], ct.cprime, ct.level),
    "another ring": lambda ct: encrypt(_p3_bundle().public, _p3_bundle().channel, 1,
                                       RandomSource(b"another ring")),
}


@pytest.mark.parametrize("name", [*MALFORMED_INPUTS, "another channel's tensor"])
def test_a_malformed_input_is_refused_before_any_draw(desk_bundle, name):
    """An input with n - 1 vector parts or over another ring, or a tensor of
    another channel, is refused with ParameterError before the refresh that
    the first gate would draw (``a`` is at level 7000, so ``mul a a`` is
    due one)."""
    ch, keys = desk_bundle.channel, desk_bundle
    rng = RandomSource(b"malformed input")
    a = encrypt_with_secret(desk_bundle.secret, desk_bundle.public.repartition, ch, 1, 7000, rng)
    b = encrypt(desk_bundle.public, ch, 1, rng)
    if name in MALFORMED_INPUTS:
        b = MALFORMED_INPUTS[name](b)
    else:
        keys = dataclasses.replace(keys, tensor=_p3_bundle().tensor)
    circuit = parse_circuit("in a b\nt = mul a a\nu = add t b\nout u")
    rng = RandomSource(b"malformed input/run")
    with pytest.raises(ParameterError):
        evaluate(circuit, {"a": a, "b": b}, keys, _secret_policy(desk_bundle), rng)
    assert rng.below(2**64) == RandomSource(b"malformed input/run").below(2**64)


def _random_circuit(rng, n_inputs, n_gates):
    names = [f"i{k}" for k in range(n_inputs)]
    lines = ["in " + " ".join(names)]
    for g in range(n_gates):
        op = "add" if rng.below(2) else "mul"
        left = names[rng.below(len(names))]
        right = names[rng.below(len(names))]
        out = f"g{g}"
        lines.append(f"{out} = {op} {left} {right}")
        names.append(out)
    lines.append(f"out {names[-1]}")
    return parse_circuit("\n".join(lines))


def test_random_circuits_match_plain_evaluation(desk_bundle):
    ch = desk_bundle.channel
    keys = desk_bundle
    policy = _secret_policy(desk_bundle)
    rng = RandomSource(b"random-circuits")
    for trial in range(8):
        circuit = _random_circuit(rng, n_inputs=3, n_gates=20)
        plain = {name: rng.below(ch.p) for name in circuit.inputs}
        env = {
            name: encrypt(desk_bundle.public, ch, m, rng)
            for name, m in plain.items()
        }
        outputs, report = evaluate(circuit, env, keys, policy, rng)
        want = eval_plain(circuit, plain, ch.p)
        for name, ct in outputs.items():
            assert ct.level <= ch.max_noise_level()
            assert decrypt(desk_bundle.secret, ch, ct) == want[name]


# -- serialization ----------------------------------------------------------


def test_channel_roundtrip(desk_channel, tmp_path):
    path = tmp_path / "channel.json"
    serial.dump(serial.channel_to_dict(desk_channel), path)
    assert serial.channel_from_dict(serial.load(path)) == desk_channel


def test_ciphertext_roundtrip(desk_bundle, rng, tmp_path):
    ch = desk_bundle.channel
    ct = encrypt(desk_bundle.public, ch, 1, rng)
    path = tmp_path / "ct.json"
    serial.dump(serial.ciphertext_to_dict(ct), path)
    assert serial.ciphertext_from_dict(ch, serial.load(path)) == ct
    data = serial.load(path)
    assert data["format"] == 7
    assert isinstance(data["level"], int)
    assert isinstance(data["cprime"], str) and all(isinstance(c, str) for c in data["c"])


def test_public_bundle_roundtrip(desk_bundle, tmp_path):
    ch = desk_bundle.channel
    path = tmp_path / "public.json"
    serial.dump(serial.public_to_dict(desk_bundle), path)
    keys = serial.public_from_dict(ch, serial.load(path))
    assert keys.public == desk_bundle.public
    assert keys.public.repartition == desk_bundle.public.repartition
    assert keys.tensor == desk_bundle.tensor
    assert keys.refresher == desk_bundle.refresher
    assert keys.locators == desk_bundle.locators
    assert "secret" not in serial.load(path)


def test_secret_roundtrip(desk_bundle, tmp_path):
    ch = desk_bundle.channel
    path = tmp_path / "secret.json"
    serial.dump(serial.secret_to_dict(desk_bundle.secret), path)
    assert serial.secret_from_dict(ch, serial.load(path)) == desk_bundle.secret


# -- command-line interface -------------------------------------------------


@pytest.fixture()
def cli_keys(tmp_path):
    out = tmp_path / "keys"
    code = main([
        "keygen", "--p", "2", "--q", "15015", "--degree", "4", "--n", "3",
        "--bigN", "2", "--k0", "1", "--seed", "00ff", "--out", str(out),
    ])
    assert code == 0
    return out


def test_cli_keygen_writes_three_files(cli_keys):
    for name in ("channel.json", "public.json", "secret.json"):
        assert (cli_keys / name).exists()
    assert "secret" not in json.loads((cli_keys / "public.json").read_text())


def test_cli_roundtrip(cli_keys, tmp_path, capsys):
    ct = tmp_path / "m.json"
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "1", "--seed", "0a", "--out", str(ct),
    ]) == 0
    capsys.readouterr()
    assert main([
        "decrypt", "--secret", str(cli_keys / "secret.json"),
        "--channel", str(cli_keys / "channel.json"), "--ct", str(ct),
    ]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_eval_and_inspect(cli_keys, tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("in a b\nt = mul a b\nr = add t a\nout r\n")
    for name, seed in (("a", "01"), ("b", "02")):
        assert main([
            "encrypt", "--pub", str(cli_keys / "public.json"),
            "--channel", str(cli_keys / "channel.json"),
            "--message", "1", "--seed", seed, "--out", str(tmp_path / f"{name}.json"),
        ]) == 0
    out = tmp_path / "evalout"
    assert main([
        "eval", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"), "--lambda-in-pub",
        "--circuit", str(circ),
        "--input", f"a={tmp_path / 'a.json'}", "--input", f"b={tmp_path / 'b.json'}",
        "--refresh", "auto", "--out", str(out),
    ]) == 0
    assert (out / "r.json").exists() and (out / "report.json").exists()
    capsys.readouterr()
    assert main([
        "decrypt", "--secret", str(cli_keys / "secret.json"),
        "--channel", str(cli_keys / "channel.json"), "--ct", str(out / "r.json"),
    ]) == 0
    assert capsys.readouterr().out.strip() == "0"  # (1*1 + 1) mod 2
    assert main(["inspect", "--ct", str(out / "r.json"),
                 "--channel", str(cli_keys / "channel.json"),
                 "--pub", str(cli_keys / "public.json")]) == 0
    assert "level: 52" in capsys.readouterr().out


def _eval_with_inputs(cli_keys, tmp_path, inputs, output="t"):
    """``aces eval`` of a two-input circuit with ``--input`` for each
    ``(name, file stem)``, whose one output is named ``output``."""
    circ = tmp_path / "circ.txt"
    circ.write_text(f"in a b\n{output} = mul a b\nout {output}\n")
    for name in ("a", "b"):
        assert main([
            "encrypt", "--pub", str(cli_keys / "public.json"),
            "--channel", str(cli_keys / "channel.json"),
            "--message", "1", "--seed", "0" + name, "--out", str(tmp_path / f"{name}.json"),
        ]) == 0
    args = [arg for name, stem in inputs for arg in ("--input", f"{name}={tmp_path / stem}.json")]
    return main([
        "eval", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"), "--circuit", str(circ),
        *args, "--refresh", "off", "--out", str(tmp_path / "out"),
    ])


def test_cli_eval_refuses_an_input_without_a_file(cli_keys, tmp_path, capsys):
    (tmp_path / "circ.txt").write_text("in a\nt = mul a a\nout t\n")
    assert main([
        "eval", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"), "--circuit", str(tmp_path / "circ.txt"),
        "--input", "a", "--refresh", "off", "--out", str(tmp_path / "out"),
    ]) == 1
    assert "--input expects NAME=FILE, got 'a'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_eval_of_a_malformed_circuit_is_exit_1(cli_keys, tmp_path, capsys):
    (tmp_path / "circ.txt").write_text("in a\nt = frob a a\nout t\n")
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "1", "--seed", "0a", "--out", str(tmp_path / "a.json"),
    ]) == 0
    capsys.readouterr()
    assert main([
        "eval", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"), "--circuit", str(tmp_path / "circ.txt"),
        "--input", f"a={tmp_path / 'a.json'}", "--refresh", "off", "--out", str(tmp_path / "out"),
    ]) == 1
    assert "circuit error: line 2: malformed statement" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_eval_refuses_an_undeclared_input(cli_keys, tmp_path):
    assert _eval_with_inputs(cli_keys, tmp_path, [("a", "a"), ("b", "b"), ("zz", "b")]) == 1
    assert not (tmp_path / "out").exists()


def test_cli_eval_refuses_a_repeated_input(cli_keys, tmp_path):
    assert _eval_with_inputs(cli_keys, tmp_path, [("a", "b"), ("a", "a"), ("b", "b")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", ["../escaped", "report"])
def test_cli_eval_refuses_an_output_name_it_cannot_write(cli_keys, tmp_path, output):
    """Outputs are written as ``<out>/<name>.json`` beside ``report.json``: a
    name that would leave ``--out`` or overwrite the report is a usage error."""
    assert _eval_with_inputs(cli_keys, tmp_path, [("a", "a"), ("b", "b")], output) == 1
    assert not (tmp_path / "out").exists() and not (tmp_path / "escaped.json").exists()


def test_cli_eval_budget_failure_is_exit_2(cli_keys, tmp_path):
    circ = tmp_path / "deep.txt"
    circ.write_text("in a\nt1 = mul a a\nt2 = mul t1 t1\nt3 = mul t2 t2\nout t3\n")
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "1", "--seed", "03", "--out", str(tmp_path / "a.json"),
    ]) == 0
    code = main([
        "eval", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--circuit", str(circ), "--input", f"a={tmp_path / 'a.json'}",
        "--refresh", "off", "--out", str(tmp_path / "out"),
    ])
    assert code == 2


def test_cli_usage_error_is_exit_1():
    assert main(["encrypt", "--message", "1"]) == 1
    assert main(["bogus"]) == 1


def test_cli_without_a_command_is_exit_1():
    assert main([]) == 1
    assert main(["--", "decrypt", "--secret", "s.json"]) == 1


# The help line of each subcommand and its option strings, as ``aces -h`` and
# ``aces <cmd> -h`` print them.
CLI_SURFACE = {
    "keygen": ("generate channel, public, and secret files", [
        "-h", "--help", "--p", "--q", "--degree", "--n", "--bigN", "--k0", "--seed",
        "--out", "--omega", "--u"]),
    "encrypt": ("encrypt one plaintext residue", [
        "-h", "--help", "--pub", "--channel", "--message", "--seed", "--out"]),
    "decrypt": ("decrypt a ciphertext and print the residue", [
        "-h", "--help", "--secret", "--channel", "--ct"]),
    "eval": ("evaluate a circuit over ciphertexts", [
        "-h", "--help", "--pub", "--channel", "--lambda-in-pub", "--circuit", "--input",
        "--refresh", "--out", "--seed", "--secret"]),
    "refresh": ("refresh a ciphertext to the fixed post-refresh level", [
        "-h", "--help", "--pub", "--channel", "--ct", "--out", "--seed",
        "--secret"]),
    "inspect": ("print level and divisibility diagnostics", [
        "-h", "--help", "--ct", "--channel", "--pub"]),
}


def test_cli_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["-h"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for name, (summary, _) in CLI_SURFACE.items():
        assert re.search(rf"^ +{name} +{re.escape(summary)}$", out, re.M), name


@pytest.mark.parametrize("name", list(CLI_SURFACE))
def test_cli_command_help_lists_its_flags(capsys, name):
    with pytest.raises(SystemExit) as exit_:
        main([name, "-h"])
    assert exit_.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", capsys.readouterr().out))
    assert flags == set(CLI_SURFACE[name][1])


@pytest.mark.parametrize("message", ["2", "5", "-1"])
def test_cli_encrypt_refuses_a_message_outside_zp(cli_keys, tmp_path, message):
    """The message is encrypted as given, never reduced mod p (2 here)."""
    out = tmp_path / "m.json"
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", message, "--seed", "0a", "--out", str(out),
    ]) == 2
    assert not out.exists()


def test_cli_keygen_refuses_u_of_another_degree(tmp_path):
    out = tmp_path / "keys"
    assert main([
        "keygen", "--p", "2", "--q", "15015", "--degree", "4", "--n", "3", "--bigN", "2",
        "--k0", "1", "--seed", "00ff", "--u=-1,0,0,0,0,0,0,0,1", "--out", str(out),
    ]) == 1
    assert not out.exists()


@pytest.mark.parametrize("u", ["--u=-1,0,0,0,x", "--u=-1,0,0,0, 1", "--u=-1,,0,0,1", "--u=1.0,0,0,0,1"])
def test_cli_keygen_refuses_a_malformed_u_as_usage(tmp_path, capsys, u):
    """``--u`` is parsed as the flag's value: a non-integer entry or a blank
    is a usage error naming ``--u``, not a malformed file."""
    out = tmp_path / "keys"
    capsys.readouterr()
    assert main([
        "keygen", "--p", "2", "--q", "15015", "--degree", "4", "--n", "3", "--bigN", "2",
        "--k0", "1", "--seed", "00ff", u, "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert "--u" in err and "malformed input file" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["0", "xyz", "0a 0b", " 0a0b", "0a0b\n"])
@pytest.mark.parametrize("command", ["keygen", "encrypt", "eval", "refresh"])
def test_cli_refuses_a_malformed_seed_as_usage(cli_keys, tmp_path, capsys, command, seed):
    """``--seed`` is parsed as the flag's value: an odd digit count, a
    non-hex digit or whitespace (which ``bytes.fromhex`` alone skips, so
    ``"0a 0b"`` once seeded as ``0a0b`` did) is a usage error naming
    ``--seed``, not a malformed file, and nothing is written."""
    keys = ["--pub", str(cli_keys / "public.json"), "--channel", str(cli_keys / "channel.json")]
    ct = tmp_path / "a.json"
    assert main(["encrypt", *keys, "--message", "1", "--seed", "0a", "--out", str(ct)]) == 0
    circ = tmp_path / "circ.txt"
    circ.write_text("in a\nt = mul a a\nout t\n")
    out = tmp_path / "out"
    argv = {
        "keygen": ["keygen", "--p", "2", "--q", "15015", "--degree", "4", "--n", "3",
                   "--bigN", "2", "--k0", "1"],
        "encrypt": ["encrypt", *keys, "--message", "1"],
        "eval": ["eval", *keys, "--circuit", str(circ), "--input", f"a={ct}"],
        "refresh": ["refresh", *keys, "--ct", str(ct), "--secret", str(cli_keys / "secret.json")],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--seed", seed, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --seed") and "malformed input file" not in err
    assert not out.exists()


def test_cli_keygen_takes_a_modulus_up_to_2_to_the_64(tmp_path, capsys):
    """``factorize`` takes every q a word holds: ``q = 2**63 + 1`` makes a
    key whose encryption of 1 decrypts to 1."""
    keys, ct = tmp_path / "keys", tmp_path / "a.json"
    files = ["--channel", str(keys / "channel.json")]
    assert main(["keygen", "--p", "2", "--q", "9223372036854775809", "--degree", "4", "--n", "3",
                 "--bigN", "2", "--k0", "1", "--seed", "01", "--out", str(keys)]) == 0
    assert main(["encrypt", "--pub", str(keys / "public.json"), *files, "--message", "1",
                 "--seed", "02", "--out", str(ct)]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--secret", str(keys / "secret.json"), *files, "--ct", str(ct)]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("command, blocked", [("keygen", "public.json"), ("eval", "report.json")])
def test_cli_writes_no_file_when_a_later_target_is_a_directory(cli_keys, tmp_path, capsys,
                                                                command, blocked):
    """keygen writes channel.json before public.json, and eval each output
    before report.json: a later target that is a directory is refused before
    the earlier files are written, with the one ``file error:`` line."""
    keys = ["--pub", str(cli_keys / "public.json"), "--channel", str(cli_keys / "channel.json")]
    assert main(["encrypt", *keys, "--message", "1", "--seed", "0a",
                 "--out", str(tmp_path / "a.json")]) == 0
    (tmp_path / "circ.txt").write_text("in a\nt = mul a a\nout t\n")
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = {
        "keygen": ["keygen", "--p", "2", "--q", "15015", "--degree", "4", "--n", "3",
                   "--bigN", "2", "--k0", "1", "--seed", "00ff"],
        "eval": ["eval", *keys, "--circuit", str(tmp_path / "circ.txt"),
                 "--input", f"a={tmp_path / 'a.json'}", "--refresh", "off"],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("file error: ") and err.count("\n") == 1
    assert f"Is a directory: '{out / blocked}'" in err
    assert [path.name for path in out.iterdir()] == [blocked]


def test_cli_keygen_generation_failure_is_exit_2(tmp_path, capsys):
    """At q=11, u=X^2-1 every repartition draw leaves a tensor slot with only
    degenerate rows: keygen's GenerationError is one ``error:`` line."""
    out = tmp_path / "keys"
    assert main(["keygen", "--p", "2", "--q", "11", "--degree", "2", "--n", "2", "--bigN", "2",
                 "--k0", "1", "--seed", "00", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: key generation failed: ")
    assert err.count("\n") == 1 and not out.exists()


def test_cli_missing_file_is_exit_1(tmp_path):
    assert main([
        "decrypt", "--secret", str(tmp_path / "nope.json"),
        "--channel", str(tmp_path / "nope.json"), "--ct", str(tmp_path / "nope.json"),
    ]) == 1


_KEY_FLAGS = ["--pub", "{K}/public.json", "--channel", "{K}/channel.json"]


@pytest.mark.parametrize("argv", [
    ["decrypt", "--secret", "{K}/secret.json", "--channel", "{T}/dir", "--ct", "{T}/ct.json"],
    ["encrypt", "--pub", "{T}/dir", "--channel", "{K}/channel.json", "--message", "1",
     "--seed", "01", "--out", "{T}/out.json"],
    ["eval", *_KEY_FLAGS, "--circuit", "{T}/dir", "--input", "a={T}/ct.json",
     "--out", "{T}/outdir"],
    ["keygen", "--p", "2", "--q", "15015", "--degree", "4", "--n", "3", "--bigN", "2",
     "--k0", "1", "--seed", "00ff", "--out", "{T}/file/sub"],
    ["encrypt", *_KEY_FLAGS, "--message", "1", "--seed", "01", "--out", "{T}/file/out.json"],
    ["eval", *_KEY_FLAGS, "--circuit", "{T}/circ.txt", "--input", "a={T}/ct.json",
     "--out", "{T}/file/sub"],
], ids=["decrypt-dir", "encrypt-dir", "eval-dir", "keygen-under-file", "encrypt-under-file",
        "eval-under-file"])
def test_cli_unusable_path_is_exit_1(cli_keys, tmp_path, capsys, argv):
    """A directory where a file is read, or an output path under a regular
    file, is one message line and exit 1, not a traceback; nothing is written."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("keep\n")
    (tmp_path / "circ.txt").write_text("in a\nt = mul a a\nout t\n")
    assert main(["encrypt", *[a.format(K=cli_keys) for a in _KEY_FLAGS], "--message", "1",
                 "--seed", "0a", "--out", str(tmp_path / "ct.json")]) == 0
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([a.format(K=cli_keys, T=tmp_path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("file error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
    assert (tmp_path / "file").read_text() == "keep\n" and not any((tmp_path / "dir").iterdir())


def test_cli_wrong_file_shape_is_exit_1(cli_keys):
    # a public bundle is not a ciphertext
    assert main(["inspect", "--ct", str(cli_keys / "public.json")]) == 1


def test_cli_decrypt_past_budget_is_exit_2(cli_keys, tmp_path):
    ch = serial.channel_from_dict(serial.load(cli_keys / "channel.json"))
    hot = Ciphertext((ch.ring.zero(),) * ch.n, ch.ring.poly([1]), ch.max_noise_level() + 1)
    path = tmp_path / "hot.json"
    serial.dump(serial.ciphertext_to_dict(hot), path)
    assert main([
        "decrypt", "--secret", str(cli_keys / "secret.json"),
        "--channel", str(cli_keys / "channel.json"), "--ct", str(path),
    ]) == 2


def test_cli_refresh_with_the_secret_key(cli_keys, tmp_path, capsys):
    ch = serial.channel_from_dict(serial.load(cli_keys / "channel.json"))
    sk = serial.secret_from_dict(ch, serial.load(cli_keys / "secret.json"))
    pk = serial.public_from_dict(ch, serial.load(cli_keys / "public.json")).public
    # find a seed whose encryption of 1 is refreshable, then refresh via CLI
    seed = 0
    while True:
        rng = RandomSource(seed.to_bytes(2, "big"))
        ct = encrypt(pk, ch, 1, rng)
        if secret_refresh_checker(sk, ch)(shadow(ch, ct)):
            break
        seed += 1
    src = tmp_path / "refreshable.json"
    serial.dump(serial.ciphertext_to_dict(ct), src)
    out = tmp_path / "fresh.json"
    assert main([
        "refresh", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--ct", str(src), "--out", str(out), "--seed", "0abc",
        "--secret", str(cli_keys / "secret.json"),
    ]) == 0
    fresh = serial.ciphertext_from_dict(ch, serial.load(out))
    assert fresh.level == 60
    assert decrypt(sk, ch, fresh) == 1


def test_cli_refresh_unverifiable_is_exit_2(cli_keys, tmp_path):
    ct = tmp_path / "ct.json"
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "1", "--seed", "77", "--out", str(ct),
    ]) == 0
    # a random ciphertext will not decompose over the published database
    assert main([
        "refresh", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--ct", str(ct), "--out", str(tmp_path / "fresh.json"), "--seed", "00",
    ]) == 2


@pytest.mark.parametrize("seed", ["e1", "e2", "e3"])
def test_cli_refresh_writes_only_certified_ciphertexts(tmp_path, capsys, seed):
    """Mid encryptions of 1 that are not refreshable as they stand.  Once an
    unchecked refresh wrote them as ciphertexts that decrypt to 0 (exit 0).
    With ``--secret`` the exact check re-randomizes them until they are
    refreshable, and the output decrypts to 1; without it the public test
    certifies none, so the command exits 2, names ``--secret`` and writes
    nothing."""
    q = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
    keys = tmp_path / "keys"
    assert main(["keygen", "--p", "2", "--q", str(q), "--degree", "16", "--n", "6",
                 "--bigN", "4", "--k0", "1", "--seed", "7e74", "--out", str(keys)]) == 0
    files = ["--pub", str(keys / "public.json"), "--channel", str(keys / "channel.json")]
    ct = tmp_path / "a.json"
    assert main(["encrypt", *files, "--message", "1", "--seed", seed, "--out", str(ct)]) == 0
    ch = serial.channel_from_dict(serial.load(keys / "channel.json"))
    sk = serial.secret_from_dict(ch, serial.load(keys / "secret.json"))
    assert not secret_refresh_checker(sk, ch)(
        shadow(ch, serial.ciphertext_from_dict(ch, serial.load(ct))))
    refresh = ["refresh", *files, "--ct", str(ct), "--seed", "f1"]
    public = tmp_path / "public-fresh.json"
    capsys.readouterr()
    assert main([*refresh, "--out", str(public)]) == 2
    assert "--secret" in capsys.readouterr().err
    assert not public.exists()
    fresh = tmp_path / "fresh.json"
    assert main([*refresh, "--secret", str(keys / "secret.json"), "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--secret", str(keys / "secret.json"),
                 "--channel", str(keys / "channel.json"), "--ct", str(fresh)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_bare_inspect(cli_keys, tmp_path, capsys):
    ct = tmp_path / "ct.json"
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "0", "--seed", "55", "--out", str(ct),
    ]) == 0
    capsys.readouterr()
    assert main(["inspect", "--ct", str(ct)]) == 0
    assert "level: 4" in capsys.readouterr().out


def test_cli_bare_inspect_refuses_a_vector_that_is_not_a_list(cli_keys, tmp_path, capsys):
    ct = tmp_path / "ct.json"
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "0", "--seed", "55", "--out", str(ct),
    ]) == 0
    data = serial.load(ct)
    data["c"] = data["cprime"]
    serial.dump(data, ct)
    capsys.readouterr()
    assert main(["inspect", "--ct", str(ct)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("malformed input file: TypeError('ciphertext vector: expected a list')")


@pytest.mark.parametrize("flag", ["--channel", "--pub"])
def test_cli_inspect_refuses_half_of_the_key_pair(cli_keys, tmp_path, capsys, flag):
    ct = tmp_path / "ct.json"
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "0", "--seed", "55", "--out", str(ct),
    ]) == 0
    path = cli_keys / ("channel.json" if flag == "--channel" else "public.json")
    capsys.readouterr()
    assert main(["inspect", "--ct", str(ct), flag, str(path)]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("with_keys", [False, True])
def test_cli_inspect_reads_the_level_through_the_reader(cli_keys, tmp_path, capsys, with_keys):
    """A level of 7506.5 (past the desk budget) is refused before anything
    is printed, with or without the key files."""
    ct = tmp_path / "ct.json"
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "0", "--seed", "55", "--out", str(ct),
    ]) == 0
    ch = serial.channel_from_dict(serial.load(cli_keys / "channel.json"))
    data = serial.load(ct)
    data["level"] = ch.max_noise_level() + 0.5
    serial.dump(data, ct)
    keys = ["--channel", str(cli_keys / "channel.json"), "--pub", str(cli_keys / "public.json")]
    capsys.readouterr()
    assert main(["inspect", "--ct", str(ct), *(keys if with_keys else [])]) == 2
    assert capsys.readouterr().out == ""


def test_cli_outputs_are_deterministic(tmp_path):
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main([
            "keygen", "--p", "2", "--q", "105", "--degree", "2", "--n", "2",
            "--bigN", "1", "--k0", "1", "--seed", "beef", "--out", str(out),
        ]) == 0
        assert main([
            "encrypt", "--pub", str(out / "public.json"),
            "--channel", str(out / "channel.json"),
            "--message", "1", "--seed", "cafe", "--out", str(out / "ct.json"),
        ]) == 0
        outs.append(out)
    for name in ("channel.json", "public.json", "secret.json", "ct.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _run_module(*args):
    """``python -m aces.cli ARGS`` in a child that imports the same ``aces`` as
    this process, installed or not, so ``main`` reads ``sys.argv``."""
    src = str(Path(aces.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "aces.cli", *args], capture_output=True, text=True, env=env,
    )


def test_cli_entry_point_runs_as_module(tmp_path):
    proc = _run_module(
        "keygen", "--p", "2", "--q", "105", "--degree", "2", "--n", "2", "--bigN", "1",
        "--k0", "1", "--seed", "01", "--out", str(tmp_path / "k"),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "k" / "public.json").exists()


def test_cli_module_reads_the_command_from_sys_argv(cli_keys, tmp_path):
    ct = tmp_path / "ct.json"
    assert main([
        "encrypt", "--pub", str(cli_keys / "public.json"),
        "--channel", str(cli_keys / "channel.json"),
        "--message", "1", "--seed", "55", "--out", str(ct),
    ]) == 0
    proc = _run_module("inspect", "--ct", str(ct))
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^level: \d+$", proc.stdout, re.M)
    proc = _run_module("bogus")
    assert proc.returncode == 1
    assert "invalid choice: 'bogus'" in proc.stderr


# -- reading flags ----------------------------------------------------------

# ``{k}`` is the key directory and ``{t}`` a scratch directory; each argv is
# split on blanks before they are filled in.
_PUB = "--pub {k}/public.json --channel {k}/channel.json"
_KEYGEN = "keygen --p 2 --q 15015 --degree 4 --n 3 --bigN 2 --k0 1 --seed 00ff --out {t}/k"
_DECRYPT = "decrypt --secret {k}/secret.json --channel {k}/channel.json"
_EVAL = f"eval {_PUB} --circuit {{t}}/circ.txt --input a={{t}}/a.json --out {{t}}/out"


@pytest.mark.parametrize("argv, code, prefix", [
    (f"encrypt {_PUB} --message=1 --seed=0a --out={{t}}/m.json", 0, ""),
    (f"encrypt {_PUB} --message 1 --seed 0a --out {{t}}/m.json", 0, ""),
    (f"encrypt {_PUB} --message -1 --seed 0a --out {{t}}/m.json", 2, "guard failure"),
    ("keygen --p 2 --q 0 --degree 4 --n 3 --bigN 2 --k0 1 --seed 01 --out {t}/out", 2,
     "guard failure: p < q violated: p=2, q=0; q must be >= 2, got 0"),
    (f"{_KEYGEN} --omega -1", 0, ""),
    (f"{_KEYGEN} --u=-1,0,0,0,1", 0, ""),
    (f"{_KEYGEN} --u -1,0,0,0,1", 1, "usage error: argument --u: expected one argument"),
    (f"{_DECRYPT} --ct", 1, "usage error: argument --ct: expected one argument"),
    (f"{_DECRYPT} --ct --ct", 1, "usage error: argument --ct: expected one argument"),
    (f"{_DECRYPT} --ct {{t}}/a.json --bogus 1", 1, "usage error: unrecognized arguments: --bogus"),
    (f"{_DECRYPT} --ct {{t}}/a.json {{t}}/a.json", 1, "usage error: unrecognized arguments: "),
    (f"encrypt {_PUB} --mess 1 --seed 0a --out {{t}}/m.json", 1,
     "usage error: unrecognized arguments: --mess"),
    (f"encrypt {_PUB} --message one --seed 0a --out {{t}}/m.json", 1,
     "usage error: argument --message: invalid int value: 'one'"),
    (f"{_EVAL} --refresh bogus", 1,
     "usage error: argument --refresh: invalid choice: 'bogus' (choose from 'auto', 'off')"),
    (f"{_EVAL} --lambda-in-pub=yes", 1,
     "usage error: argument --lambda-in-pub: ignored explicit argument 'yes'"),
    (f"{_EVAL} --refresh off --secret {{k}}/secret.json", 1, "usage error: --secret"),
    ("encrypt --message 1", 1,
     "usage error: the following arguments are required: --pub, --channel, --seed, --out"),
    ("bogus", 1, "usage error: argument command: invalid choice: 'bogus'"),
    ("", 1, "usage error: the following arguments are required: command"),
])
def test_cli_reads_flags_as_before(cli_keys, tmp_path, capsys, argv, code, prefix):
    """``--flag value`` and ``--flag=value`` parse alike; a separate value
    may start with ``-`` only as a negative integer; unknown, abbreviated,
    valueless and missing flags are usage errors (exit 1) with the messages
    argparse gave."""
    (tmp_path / "circ.txt").write_text("in a\nout a\n")
    assert main(["encrypt", "--pub", str(cli_keys / "public.json"),
                 "--channel", str(cli_keys / "channel.json"),
                 "--message", "1", "--seed", "01", "--out", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    assert main([arg.format(k=cli_keys, t=tmp_path) for arg in argv.split()]) == code
    assert capsys.readouterr().err.startswith(prefix)
    if code:
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (f"encrypt {_PUB} --message 1 --seed 01 --seed 02 --out {{t}}/m.json", "--seed"),
    (f"encrypt {_PUB} --message 1 --seed 01 --out {{t}}/m.json --out={{t}}/n.json", "--out"),
    (f"encrypt {_PUB} --pub {{k}}/public.json --message 1 --seed 01 --out {{t}}/m.json", "--pub"),
    (f"{_EVAL} --lambda-in-pub --lambda-in-pub", "--lambda-in-pub"),
    (f"{_EVAL} --refresh auto --refresh off", "--refresh"),
    (f"{_DECRYPT} --ct {{t}}/a.json --secret {{k}}/secret.json", "--secret"),
])
def test_cli_refuses_a_repeated_flag(cli_keys, tmp_path, capsys, argv, flag):
    """Every flag but ``eval --input`` is given at most once: a repeat is a
    usage error (exit 1), not the last value silently kept."""
    (tmp_path / "circ.txt").write_text("in a\nout a\n")
    assert main(["encrypt", "--pub", str(cli_keys / "public.json"),
                 "--channel", str(cli_keys / "channel.json"),
                 "--message", "1", "--seed", "01", "--out", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    assert main([arg.format(k=cli_keys, t=tmp_path) for arg in argv.split()]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: argument {flag}: given more than once")
    assert captured.out == ""
    assert not any((tmp_path / name).exists() for name in ("m.json", "n.json", "out"))


def test_cli_help_after_other_flags_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["encrypt", "--pub", "p.json", "--message=1", "-h", "--bogus"])
    assert exit_.value.code == 0
    assert "--message MESSAGE" in capsys.readouterr().out


def test_cli_imports_no_argparse():
    src = str(Path(aces.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c",
                    "import sys, aces.cli; assert 'argparse' not in sys.modules"],
                   check=True, env=env)


# ``t1 = a*a``, then ``t_i = t_(i-1)*a``: a^11, which refreshes at the desk
# channel (as the ``chain-desk`` benchmark workload does).
POWER_CHAIN = "in a\n" + "".join(
    f"t{i} = mul {'a' if i == 1 else f't{i - 1}'} a\n" for i in range(1, 11)) + "out t10\n"


def test_cli_eval_refreshes_with_the_secret_key(cli_keys, tmp_path, capsys):
    """``eval --secret`` certifies each refresh with the key owner's exact
    checker: the chain refreshes and decrypts to its plain value.  Without a
    ``--seed`` two calls draw the same refresh randomness.  Without
    ``--secret`` the public test certifies no refresh, so the chain runs out
    of budget: exit 2 and no file."""
    circ = tmp_path / "chain.txt"
    circ.write_text(POWER_CHAIN)
    files = ["--pub", str(cli_keys / "public.json"), "--channel", str(cli_keys / "channel.json")]
    assert main(["encrypt", *files, "--message", "1", "--seed", "0c",
                 "--out", str(tmp_path / "a.json")]) == 0
    argv = ["eval", *files, "--circuit", str(circ), "--input", f"a={tmp_path / 'a.json'}",
            "--refresh", "auto"]
    secret = ["--secret", str(cli_keys / "secret.json")]
    outs = [tmp_path / "one", tmp_path / "two"]
    for out in outs:
        assert main([*argv, *secret, "--out", str(out)]) == 0
    assert json.loads((outs[0] / "report.json").read_text())["refresh_events"]
    for name in ("t10.json", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    capsys.readouterr()
    assert main(["decrypt", *secret, "--channel", str(cli_keys / "channel.json"),
                 "--ct", str(outs[0] / "t10.json")]) == 0
    want = eval_plain(parse_circuit(POWER_CHAIN), {"a": 1}, 2)["t10"]
    assert capsys.readouterr().out.strip() == str(want)
    public = tmp_path / "public"
    assert main([*argv, "--out", str(public)]) == 2
    assert "noise budget" in capsys.readouterr().err
    assert not public.exists()
