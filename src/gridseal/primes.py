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
A candidate of 1,300 bits or more then takes one gcd with the product of the
primes in (2,000, 2^16), built on first use: about a third of the random
composites that survive trial division have such a factor. The gcd costs
0.25-0.39 ms from 1,024 to 2,048 bits, so it pays only where a round costs
more than about three times that: it lost 0.12-0.15 ms a candidate at 1,024
bits, had either sign within 0.05 ms between 1,088 and 1,280, and gained
0.03-0.37 ms in every measurement from 1,344 to 2,048 bits. Smaller
candidates, the primes of keys up to 2,048 bits included, never build or use
the product. Both filters refuse only composites, so they change no prime a
seed draws.

Every modular exponentiation of the package, here and in `paillier`, goes
through `_powmod`: libcrypto's BN_mod_exp, bound through ctypes to the
OpenSSL library the interpreter's `_hashlib` module already loaded, or the
built-in pow where that module, the library or one of its symbols cannot be
loaded. At 2,048-bit N, r^N mod N^2 takes about 9-13 ms through libcrypto
against 100-150 ms through pow, and a 1,024-bit Miller-Rabin round about
0.35 ms against 3.4-3.8 ms.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import random


def _load_powmod():
    """libcrypto's BN_mod_exp behind pow's three-argument signature, or the
    built-in pow where the library or one of its symbols cannot be loaded.
    A symbol looked up on `_hashlib`'s handle resolves in its libcrypto."""
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        ctx_new, ctx_free = lib.BN_CTX_new, lib.BN_CTX_free
        bn_new, bn_free = lib.BN_new, lib.BN_free
        bin2bn, bn2binpad, mod_exp = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp
    except (ImportError, OSError, AttributeError):
        return pow

    def nonnull(result, func, args):
        if not result:
            raise RuntimeError(f"libcrypto {func.__name__} failed")
        return result

    ptr = ctypes.c_void_p
    for func, restype, argtypes in (
        (ctx_new, ptr, ()),
        (ctx_free, None, (ptr,)),
        (bn_new, ptr, ()),
        (bn_free, None, (ptr,)),
        (bin2bn, ptr, (ctypes.c_char_p, ctypes.c_int, ptr)),
        (bn2binpad, ctypes.c_int, (ptr, ctypes.c_char_p, ctypes.c_int)),
        (mod_exp, ctypes.c_int, (ptr, ptr, ptr, ptr, ptr)),
    ):
        func.restype, func.argtypes = restype, argtypes
        if restype is not None:
            func.errcheck = nonnull

    def powmod(base: int, exponent: int, modulus: int) -> int:
        """base^exponent mod modulus, on a BN_CTX of its own, so threads share nothing."""
        if base < 0 or exponent < 0 or modulus < 2:
            raise ValueError("powmod takes a base and exponent >= 0 and a modulus >= 2")
        size = (modulus.bit_length() + 7) // 8
        bns, ctx = [], None
        try:  # BN_free and BN_CTX_free do nothing on NULL
            ctx = ctx_new()
            for value in (base, exponent, modulus):
                data = value.to_bytes((value.bit_length() + 7) // 8, "big")
                bns.append(bin2bn(data, len(data), None))
            bns.append(bn_new())
            a, p, m, r = bns
            mod_exp(r, a, p, m, ctx)
            out = ctypes.create_string_buffer(size)
            if bn2binpad(r, out, size) != size:
                raise RuntimeError("libcrypto BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")
        finally:
            for bn in bns:
                bn_free(bn)
            ctx_free(ctx)

    return powmod


# The one modexp of the package: the witness rounds here, every Paillier encryption and decryption
_powmod = _load_powmod()

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
_SIEVE_FLOOR_BITS = 1300
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
    x = _powmod(base, d, n)
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
