#!/usr/bin/env python3
"""Trace noise-level growth along a multiplication chain.

Shows where the budget guard trips without refresh and how the evaluator's
auto-refresh policy keeps the chain alive.
"""

from aces import ArithmeticChannel, RandomSource, encrypt, keygen
from aces.cipher import fresh_level, level_after, post_refresh_level
from aces.circuit import RefreshPolicy, evaluate, parse_circuit
from aces.refresh import secret_refresh_checker


def main():
    ch = ArithmeticChannel(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    rng = RandomSource(b"levels")
    bundle = keygen(ch, rng)
    budget = ch.max_noise_level()
    refreshed = post_refresh_level(ch)
    print(f"budget {budget}, post-refresh level {refreshed}\n")

    print("squaring chain without refresh:")
    level, depth = fresh_level(ch), 0
    while level is not None:
        print(f"  depth {depth}: level {level}")
        level = level_after("mul", level, level, ch)
        depth += 1
    print(f"  depth {depth}: overflow\n")

    depth = 6
    lines = ["in a"] + [
        f"t{i} = mul {'a' if i == 1 else f't{i-1}'} {'a' if i == 1 else f't{i-1}'}"
        for i in range(1, depth + 1)
    ] + [f"out t{depth}"]
    circuit = parse_circuit("\n".join(lines))
    policy = RefreshPolicy(mode="auto",
                           checker=secret_refresh_checker(bundle.secret, ch))
    env = {"a": encrypt(bundle.public, ch, 1, rng)}
    outputs, report = evaluate(circuit, env, bundle.eval_keys, policy, rng)
    print(f"depth-{depth} chain with auto refresh:")
    for wire, pre, post in report.refresh_events:
        print(f"  refreshed {wire}: {pre} -> {post}")
    for name, level in sorted(report.levels.items()):
        print(f"  wire {name}: final level {level}")


if __name__ == "__main__":
    main()
