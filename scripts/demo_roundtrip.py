#!/usr/bin/env python3
"""End-to-end walkthrough: keygen, encrypt, compute, refresh, decrypt."""

from aces import ArithmeticChannel, RandomSource, decrypt, encrypt, hom_add, hom_mul, keygen
from aces.cipher import shadow
from aces.refresh import make_refreshable, refresh_ct, refreshable_index, secret_refresh_checker


def main():
    ch = ArithmeticChannel(p=2, q=15015, omega=1, u=(-1, 0, 0, 0, 1), n=3, big_n=2, k0=1)
    ch.require_valid()
    rng = RandomSource(b"demo")
    print(f"channel: p={ch.p} q={ch.q} degree={ch.degree} n={ch.n} N={ch.big_n}")
    print(f"noise budget: levels up to {ch.max_noise_level()}")

    bundle = keygen(ch, rng)
    rep = bundle.public.repartition
    print(f"repartition: primes {rep.primes}, assignment {rep.assignment}")

    a = encrypt(bundle.public, ch, 1, rng)
    b = encrypt(bundle.public, ch, 1, rng)
    print(f"\nencrypted two bits at level {a.level}")

    total = hom_add(ch, a, b)
    product = hom_mul(ch, bundle.tensor, a, b)
    print(f"1 + 1 -> {decrypt(bundle.secret, ch, total)} (level {total.level})")
    print(f"1 * 1 -> {decrypt(bundle.secret, ch, product)} (level {product.level})")

    # The refresh reads only the product's integer shadow: re-randomize it
    # until the key owner's check passes, then rebuild it at a fixed level.
    checker = secret_refresh_checker(bundle.secret, ch)
    ready = make_refreshable(shadow(ch, product), checker, bundle.public, rng)
    fresh = refresh_ct(bundle, ready, rng)
    print(f"\nrefreshed the product: level {product.level} -> {fresh.level}, "
          f"still decrypts to {decrypt(bundle.secret, ch, fresh)}")
    print(f"refreshable index of the fresh ciphertext: "
          f"{refreshable_index(bundle.secret, ch, shadow(ch, fresh))}")


if __name__ == "__main__":
    main()
