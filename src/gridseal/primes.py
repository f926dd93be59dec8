"""Probabilistic prime testing and generation on plain Python integers.

Miller-Rabin with the deterministic base set below 3.3e24 and 48
derived-witness rounds above, keeping the error bound under 2^-80.
"""

from __future__ import annotations

import hashlib
import random

try:  # optional fast path for the witness exponentiations
    from gmpy2 import powmod as _powmod
except ImportError:  # pragma: no cover
    _powmod = pow

_SMALL_PRIME_LIMIT = 2000


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(_SMALL_PRIME_LIMIT)

# Deterministic Miller-Rabin witnesses valid for n < 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_LARGE_ROUNDS = 48


def _miller_rabin_round(n: int, d: int, r: int, base: int) -> bool:
    x = int(_powmod(base, d, n))
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _derived_witnesses(n: int, count: int):
    """Deterministic witness stream keyed on n, so primality checks are reproducible."""
    seed = n.to_bytes((n.bit_length() + 7) // 8, "big")
    counter = 0
    produced = 0
    while produced < count:
        digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
        w = int.from_bytes(digest, "big") % (n - 3) + 2
        produced += 1
        yield w


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_LIMIT:
        bases = _DETERMINISTIC_BASES
    else:
        bases = _derived_witnesses(n, _LARGE_ROUNDS)
    return all(_miller_rabin_round(n, d, r, b) for b in bases)


def generate_prime(bits: int, rng: random.Random) -> int:
    """Draw a random prime with exactly `bits` bits (top bit forced)."""
    if bits < 2:
        raise ValueError("prime size must be at least 2 bits")
    attempts = 200 * bits
    for _ in range(attempts):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if candidate.bit_length() != bits:
            continue
        if is_probable_prime(candidate):
            return candidate
    raise RuntimeError(f"prime generation exceeded retry budget ({attempts} attempts at {bits} bits)")
