"""Probabilistic prime testing and generation on plain Python integers.

Miller-Rabin with the deterministic base set below 3.3e24. Above it, a
number a caller supplies gets 48 derived-witness rounds, the adversarial
bound 4^-48 < 2^-80. A random candidate drawn by `generate_prime` needs far
fewer rounds for the same 2^-80: the average-case count of Damgard, Landrock
and Pomerance (Math. Comp. 1993), as tabulated in the Handbook of Applied
Cryptography, Table 4.4. Both take a prefix of the same witness stream
keyed on n, so a seed draws the same prime either way, unless a composite
passes the shorter test, which has probability under 2^-80. The table's rows
are the smallest round counts that meet 2^-80 under the closed-form bounds
of HAC Fact 4.48 (ii)-(iv), with two rows evaluated the same way for the
128- and 256-bit primes of 256- and 512-bit keys.

Before any round, a candidate is trial-divided by the primes below 2,000.
A candidate of 512 bits or more then takes one gcd with the product of the
primes in (2,000, 2^16), built on first use: about a third of the random
composites that survive trial division have such a factor, and at 1,024
bits the gcd costs about a twentieth of the modexp it saves. Below 512
bits the gcd costs more than the rounds it saves, so smaller candidates
never build or use the product. Both filters refuse only composites, so
they change no prime a seed draws.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random

try:  # optional fast path for modexp: the witness rounds here, every Paillier operation
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

# Candidates of at least this many bits take one gcd with the primes in
# (_SMALL_PRIME_LIMIT, _SIEVE_LIMIT) before their first round.
_SIEVE_FLOOR_BITS = 512
_SIEVE_LIMIT = 1 << 16


@functools.cache
def _sieve_product() -> int:
    return math.prod(_sieve(_SIEVE_LIMIT)[len(_SMALL_PRIMES):])

# Deterministic Miller-Rabin witnesses valid for n < 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_LARGE_ROUNDS = 48

# (bits at least, rounds): error at most 2^-80 for a random candidate of that size
_AVERAGE_CASE_ROUNDS = (
    (1300, 2), (850, 3), (650, 4), (550, 5), (450, 6), (400, 7),
    (350, 8), (300, 9), (256, 11), (250, 12), (200, 15), (150, 18),
    (128, 21), (100, 27),
)


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
    for counter in range(count):
        digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        yield int.from_bytes(digest, "big") % (n - 3) + 2


def is_probable_prime(n: int) -> bool:
    """Primality of a number from outside, at the adversarial bound."""
    return _passes_miller_rabin(n, _LARGE_ROUNDS)


def _passes_miller_rabin(n: int, rounds: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n.bit_length() >= _SIEVE_FLOOR_BITS and math.gcd(n, _sieve_product()) != 1:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_LIMIT:
        bases = _DETERMINISTIC_BASES
    else:
        bases = _derived_witnesses(n, rounds)
    return all(_miller_rabin_round(n, d, r, b) for b in bases)


def generate_prime(bits: int, rng: random.Random) -> int:
    """Draw a random prime with exactly `bits` bits (top bit forced)."""
    if bits < 2:
        raise ValueError("prime size must be at least 2 bits")
    attempts = 200 * bits
    rounds = next((t for k, t in _AVERAGE_CASE_ROUNDS if bits >= k), _LARGE_ROUNDS)
    for _ in range(attempts):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _passes_miller_rabin(candidate, rounds):
            return candidate
    raise RuntimeError(f"prime generation exceeded retry budget ({attempts} attempts at {bits} bits)")
