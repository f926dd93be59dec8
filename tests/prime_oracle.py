"""The prime search in draw order, one candidate at a time: the reference that
`primes.generate_prime` must agree with, in the prime it returns and in where
it leaves the rng. Each candidate takes the adversarial-bound test whole, so
the oracle shares neither the round table nor the pairing with the search."""

from __future__ import annotations

import random

from gridseal.primes import is_probable_prime


def sequential_generate_prime(bits: int, rng: random.Random) -> int:
    """The first prime among up to 200 * bits candidates of exactly `bits` bits."""
    for _ in range(200 * bits):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate
    raise RuntimeError("no prime within the retry budget")
