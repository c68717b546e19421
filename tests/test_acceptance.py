"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (no float tolerances anywhere in the scheme) and
carries a wall-clock budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

from aces.channel import RandomSource, sample_message_carrier
from aces.cipher import (
    decrypt,
    encrypt,
    encrypt_with_secret,
    shadow,
)
from aces.circuit import EvalKeys, RefreshPolicy, evaluate, parse_circuit
from aces.classic import (
    AcesScheme,
    ElGamalScheme,
    RsaScheme,
    ToyGroupParams,
    run_protocol,
)
from aces.cli import main
from aces.errors import NoiseBudgetError
from aces.homo import hom_add, hom_mul, tensor_contract
from aces.keygen import keygen
from aces.refresh import (
    margin_test,
    refresh_ct,
    refreshable_index,
    secret_refresh_checker,
)
from aces.rings import lift, reduce_mod

from oracles import brute_decrypt, poly_vector_dot


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {number:>2}. {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget_seconds else "FAIL (over time budget)"
    print(f"[ACCEPTANCE] {number:>2}. {name}: {status} ({elapsed:.2f}s / {budget_seconds}s)")
    assert elapsed <= budget_seconds, f"{name} exceeded {budget_seconds}s"


def test_01_modulo_map_laws():
    with criterion(1, "modulo-map laws", 1):
        for p in (2, 3, 5, 17):
            for m in range(p):
                assert reduce_mod(p, lift(p, m)) == m
        assert lift(5, 4) * lift(5, 3) == 12
        assert lift(5, reduce_mod(5, 4 * 3)) == 2
        assert lift(5, 4) * lift(5, 3) != lift(5, reduce_mod(5, 4 * 3))
        assert lift(5, 4) * lift(5, 3) - 10 == 2
        assert lift(5, reduce_mod(5, 4 * 3 - 10)) == 2


def test_02_channel_homomorphism(desk_channel):
    with criterion(2, "channel homomorphism", 5):
        ch = desk_channel
        assert ch.violations() == []
        rng = RandomSource(b"criterion-2")
        for _ in range(10_000):
            v1, v2 = ch.random_poly(rng), ch.random_poly(rng)
            assert ch.eval(v1 * v2) == (ch.eval(v1) * ch.eval(v2)) % ch.q
            assert ch.eval(v1 + v2) == (ch.eval(v1) + ch.eval(v2)) % ch.q


def test_03_encryption_roundtrip(desk_bundle):
    with criterion(3, "encryption roundtrip", 10):
        ch = desk_bundle.channel
        for seed in range(100):
            rng = RandomSource(b"criterion-3" + seed.to_bytes(2, "big"))
            for m in range(ch.p):
                ct = encrypt(desk_bundle.public, ch, m, rng)
                assert decrypt(desk_bundle.secret, ch, ct) == m


def test_04_tensor_invariants(desk_channel):
    with criterion(4, "relinearization tensor invariants", 30):
        ch = desk_channel
        for seed in range(50):
            bundle = keygen(ch, RandomSource(b"criterion-4" + bytes([seed])))
            rep, xs = bundle.public.repartition, bundle.secret.polys
            evals = [lift(ch.q, ch.eval(x)) for x in xs]
            weighted = [rep.prime_of(i) * evals[i] for i in range(ch.n)]
            assert math.gcd(*weighted) == 1
            from aces.keygen import _bezout

            g, mu = _bezout(weighted)
            assert sum(w * c for w, c in zip(weighted, mu)) == 1
            lam = bundle.tensor.coeffs
            for i in range(ch.n):
                for j in range(ch.n):
                    assert lam[i][j] == lam[j][i]
                    for k in range(ch.n):
                        assert lam[i][j][k] % rep.prime_of(k) == 0
                    combo = ch.ring.zero()
                    for k in range(ch.n):
                        combo = combo + xs[k].scale(lam[i][j][k])
                    defect = xs[i] * xs[j] - combo
                    assert lift(ch.q, ch.eval(defect)) % rep.weight(i, j) == 0


def test_05_contraction_identity(desk_bundle):
    with criterion(5, "tensor contraction identity", 10):
        ch, rep = desk_bundle.channel, desk_bundle.public.repartition
        xs = desk_bundle.secret.polys
        rng = RandomSource(b"criterion-5")
        for _ in range(1_000):
            v1, v2 = (
                tuple(
                    sample_message_carrier(
                        ch, (rep.prime_of(j) * rng.below(ch.q)) % ch.q, rng
                    )
                    for j in range(ch.n)
                )
                for _ in range(2)
            )
            direct = poly_vector_dot(v1, xs) * poly_vector_dot(v2, xs)
            folded = poly_vector_dot(tensor_contract(desk_bundle.tensor, v1, v2), xs)
            assert ch.eval(direct - folded) == 0


def test_06_leveled_homomorphism(desk_bundle):
    with criterion(6, "leveled homomorphic operations", 30):
        ch = desk_bundle.channel
        rng = RandomSource(b"criterion-6")
        fresh = ch.big_n * ch.p
        for m1 in range(ch.p):
            for m2 in range(ch.p):
                c1 = encrypt(desk_bundle.public, ch, m1, rng)
                c2 = encrypt(desk_bundle.public, ch, m2, rng)
                added = hom_add(ch, c1, c2)
                assert added.level == c1.level + c2.level == 2 * fresh
                assert decrypt(desk_bundle.secret, ch, added) == (m1 + m2) % ch.p
                mul = hom_mul(ch, desk_bundle.tensor, c1, c2)
                assert mul.level == (2 * fresh + fresh * fresh) * ch.p
                assert decrypt(desk_bundle.secret, ch, mul) == (m1 * m2) % ch.p


def test_07_refresh_correctness(desk_bundle):
    with criterion(7, "refresh correctness and the depth-3 chain", 60):
        ch = desk_bundle.channel
        rng = RandomSource(b"criterion-7")
        refreshed = 0
        while refreshed < 100:
            m = rng.below(ch.p)
            ct = encrypt(desk_bundle.public, ch, m, rng)
            if refreshable_index(desk_bundle.secret, ch, shadow(ch, ct)) is None:
                continue
            fresh = refresh_ct(desk_bundle.eval_keys, shadow(ch, ct), rng)
            assert fresh.level == 60
            assert decrypt(desk_bundle.secret, ch, fresh) == decrypt(
                desk_bundle.secret, ch, ct
            )
            refreshed += 1

        chain = parse_circuit(
            "in a\nt1 = mul a a\nt2 = mul t1 t1\nt3 = mul t2 t2\nout t3"
        )
        keys = EvalKeys.from_bundle(desk_bundle)
        env = {"a": encrypt(desk_bundle.public, ch, 1, rng)}
        try:
            evaluate(chain, dict(env), keys, RefreshPolicy(mode="off"), rng)
            raise AssertionError("depth-3 chain must fail without refresh")
        except NoiseBudgetError:
            pass
        policy = RefreshPolicy(
            mode="auto", checker=secret_refresh_checker(desk_bundle.secret, ch)
        )
        outputs, report = evaluate(chain, dict(env), keys, policy, rng)
        assert len(report.refresh_events) >= 1
        assert all(post == 60 for _, _, post in report.refresh_events)
        assert decrypt(desk_bundle.secret, ch, outputs["t3"]) == 1


def test_08_refreshability_test_soundness(desk_bundle):
    with criterion(8, "refreshability test soundness", 30):
        ch = desk_bundle.channel
        rng = RandomSource(b"criterion-8")
        certified = 0
        for i in range(1_000):
            if i % 2:
                ct = encrypt(desk_bundle.public, ch, rng.below(ch.p), rng)
            else:
                ct = encrypt_with_secret(
                    desk_bundle.secret, desk_bundle.public.repartition, ch,
                    rng.below(ch.p), rng.below(60), rng,
                )
            if margin_test(desk_bundle.secret, ch, shadow(ch, ct)):
                certified += 1
                assert refreshable_index(desk_bundle.secret, ch, shadow(ch, ct)) is not None
        assert certified > 0


def test_09_small_instance_oracle_equivalence(micro_bundle):
    with criterion(9, "small-instance decryption oracle", 10):
        ch = micro_bundle.channel
        assert ch.violations() == []
        rng = RandomSource(b"criterion-9")
        sk, rep = micro_bundle.secret, micro_bundle.public.repartition
        sk_coeffs = [list(x.coeffs) for x in sk.polys]
        budget = ch.max_noise_level()
        for _ in range(10_000):
            m = rng.below(ch.p)
            k = rng.below(budget + 1)
            ct = encrypt_with_secret(sk, rep, ch, m, k, rng)
            want = brute_decrypt(
                sk_coeffs, ch, [list(c.coeffs) for c in ct.c], list(ct.cprime.coeffs)
            )
            assert decrypt(sk, ch, ct) == want == m


def test_10_classic_cross_checks(micro_channel):
    with criterion(10, "classic scheme cross-checks", 5):
        elgamal = ElGamalScheme(ToyGroupParams.make(23, 5))
        rsa = RsaScheme(5, 11, 3)
        rng = RandomSource(b"criterion-10")
        for m in elgamal.messages():
            assert run_protocol(elgamal, m, rng)[0] == m
        for m in rsa.messages():
            assert run_protocol(rsa, m, rng)[0] == m
        for scheme, m in ((elgamal, 8), (rsa, 2), (AcesScheme(micro_channel), 1)):
            first = run_protocol(scheme, m, RandomSource(b"replay-10"))
            second = run_protocol(scheme, m, RandomSource(b"replay-10"))
            assert first == second


def test_11_cli_end_to_end(tmp_path, capsys):
    with criterion(11, "command-line end to end", 10):
        results = []
        for attempt in ("first", "second"):
            base = tmp_path / attempt
            keys = base / "keys"
            assert main([
                "keygen", "--p", "2", "--q", "15015", "--degree", "4",
                "--n", "3", "--bigN", "2", "--k0", "1",
                "--seed", "00ff", "--out", str(keys),
            ]) == 0
            for name, seed in (("a", "01"), ("b", "02")):
                assert main([
                    "encrypt", "--pub", str(keys / "public.json"),
                    "--channel", str(keys / "channel.json"),
                    "--message", "1", "--seed", seed,
                    "--out", str(base / f"{name}.json"),
                ]) == 0
            circ = base / "circ.txt"
            circ.write_text("in a b\nt = mul a b\nr = add t a\nout r\n")
            assert main([
                "eval", "--pub", str(keys / "public.json"),
                "--channel", str(keys / "channel.json"), "--lambda-in-pub",
                "--circuit", str(circ),
                "--input", f"a={base / 'a.json'}",
                "--input", f"b={base / 'b.json'}",
                "--refresh", "auto", "--out", str(base / "out"),
            ]) == 0
            capsys.readouterr()
            assert main([
                "decrypt", "--secret", str(keys / "secret.json"),
                "--channel", str(keys / "channel.json"),
                "--ct", str(base / "out" / "r.json"),
            ]) == 0
            assert capsys.readouterr().out.strip() == "0"  # (1*1 + 1) mod 2
            results.append(base)
        for rel in ("keys/public.json", "keys/secret.json", "a.json", "out/r.json"):
            assert (results[0] / rel).read_bytes() == (results[1] / rel).read_bytes()
