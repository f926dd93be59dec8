"""Additive homomorphic encryption for meter readings.

Key generation, encryption, decryption and ciphertext addition for the
cryptosystem used between meters and the substation terminal unit: the
modulus N is a product of two primes, encryption computes g^m * r^N mod N^2,
and multiplying two ciphertexts decrypts to the sum of their plaintexts.

The generator is always g = N + 1, which has order N modulo N^2 and gives
the fast encryption path (1 + mN) * r^N mod N^2. Decryption works modulo
each prime's square (Paillier, EUROCRYPT 1999, section 7): with N = p*q and
L_p(u) = (u - 1) / p, it recovers m mod p = L_p(c^(p-1) mod p^2) * h_p mod p,
likewise m mod q, and joins the two by Garner's recombination. That is two
exponentiations of half the modulus and half the exponent in place of one
c^lambda mod N^2. The constants need no exponentiation: with g = N + 1,
g^(p-1) = 1 + (p-1)*N mod p^2, so L_p(g^(p-1) mod p^2) = (p-1)*q = -q mod p
and h_p = (-q)^-1 mod p; symmetrically h_q = (-p)^-1 mod q.

Every exponentiation, the blinding r^N mod N^2 and the two half-size ones of
decryption, is `primes._powmod`: libcrypto's BN_mod_exp where the library
loads, else the built-in pow. At 2,048 bits the blinding takes about 9-13 ms
through libcrypto, against 100-150 ms through pow.

All values are immutable after construction and every operation takes its
randomness source explicitly, so keys and ciphertexts can be shared freely
across threads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .primes import _powmod, generate_prime, is_probable_prime
from .wire import decode_uint, encode_uint

MIN_KEY_BITS = 16
MAX_KEY_BITS = 8192  # keygen time grows with about the fourth power of the size
DEFAULT_KEY_BITS = 2048

_ENCRYPT_R_ATTEMPTS = 128


class MalformedCiphertextError(ValueError):
    """Raised when decryption is given a secret key whose primes do not multiply
    to the ciphertext's modulus, or a ciphertext outside the L-function domain."""


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public half of an aggregation keypair.

    Attributes:
        modulus: N, the product of two distinct primes.
    """

    modulus: int

    def __post_init__(self):
        if self.modulus <= 1:
            raise ValueError("modulus must exceed 1")

    @property
    def modulus_squared(self) -> int:
        return self.modulus * self.modulus

    @property
    def bit_length(self) -> int:
        return self.modulus.bit_length()


@dataclass(frozen=True)
class PaillierSecretKey:
    """Secret half: the two primes of N, from which the decryption constants are derived.

    Construction does not test the primes: keygen does, the injected ones
    included.
    """

    q1: int
    q2: int

    def __post_init__(self):
        if self.q1 == self.q2:
            raise ValueError("the primes must be distinct")
        if math.gcd(self.q1 * self.q2, (self.q1 - 1) * (self.q2 - 1)) != 1:
            raise ValueError("phi(N) shares a factor with N; L-denominator not invertible")

    @cached_property
    def q1_squared(self) -> int:
        return self.q1 * self.q1

    @cached_property
    def q2_squared(self) -> int:
        return self.q2 * self.q2

    @cached_property
    def h1(self) -> int:
        """L_q1((N + 1)^(q1 - 1) mod q1^2)^-1 mod q1, which is (-q2)^-1 mod q1."""
        return pow(-self.q2, -1, self.q1)

    @cached_property
    def h2(self) -> int:
        """L_q2((N + 1)^(q2 - 1) mod q2^2)^-1 mod q2, which is (-q1)^-1 mod q2."""
        return pow(-self.q1, -1, self.q2)

    @cached_property
    def q2_inverse(self) -> int:
        """q2^-1 mod q1, the constant of Garner's recombination."""
        return pow(self.q2, -1, self.q1)


@dataclass(frozen=True)
class PaillierCiphertext:
    """A blinded residue c in Z_{N^2}^*, tagged with its modulus for domain checks."""

    value: int
    modulus: int

    def __post_init__(self):
        if not 0 < self.value < self.modulus * self.modulus:
            raise ValueError("ciphertext value out of range")
        # a unit modulo N^2 exactly when no prime of N divides it, so the gcd with N decides
        if math.gcd(self.value, self.modulus) != 1:
            raise ValueError("ciphertext not invertible modulo N^2")

    def to_bytes(self) -> bytes:
        return encode_uint(self.value)

    @classmethod
    def from_bytes(cls, data: bytes, pk: PaillierPublicKey) -> "PaillierCiphertext":
        value, off = decode_uint(data)
        if off != len(data):
            raise ValueError("trailing bytes after ciphertext")
        return cls(value, pk.modulus)


def paillier_keygen(
    bit_length: int = DEFAULT_KEY_BITS,
    rng: random.Random | None = None,
    q1: int | None = None,
    q2: int | None = None,
) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    """Generate an aggregation keypair.

    Args:
        bit_length: target size of N, 16 to 8192 bits (2048 by default).
            Each prime has its exact share of the bits, so N has
            `bit_length` or `bit_length - 1` bits.
        rng: randomness source; the system CSPRNG when omitted.
        q1, q2: test hook injecting both primes for deterministic desk-scale
            vectors. Injected values are validated, never retried.

    Returns:
        (public key, secret key) with N = q1*q2, g = N + 1.
    """
    if (q1 is None) != (q2 is None):
        raise ValueError("inject both primes or neither")
    if q1 is not None and q2 is not None:
        if not (is_probable_prime(q1) and is_probable_prime(q2)):
            raise ValueError("injected factors must be prime")
        return PaillierPublicKey(q1 * q2), PaillierSecretKey(q1, q2)

    if not MIN_KEY_BITS <= bit_length <= MAX_KEY_BITS:
        raise ValueError(f"bit_length must lie in {MIN_KEY_BITS}..{MAX_KEY_BITS}")
    rng = rng if rng is not None else random.SystemRandom()
    half = bit_length // 2
    for _ in range(64):
        p = generate_prime(half, rng)
        q = generate_prime(bit_length - half, rng)
        try:
            return PaillierPublicKey(p * q), PaillierSecretKey(p, q)
        except ValueError:  # equal primes, or gcd(phi(N), N) != 1
            continue
    raise RuntimeError("prime generation exceeded retry budget for a usable keypair")


def paillier_encrypt(
    pk: PaillierPublicKey,
    message: int,
    rng: random.Random | None = None,
    r: int | None = None,
) -> PaillierCiphertext:
    """Encrypt a message in Z_N.

    The blinding factor r is drawn from Z_N^* (retrying until coprime with N)
    unless supplied explicitly for pinned test vectors. Repeated encryption of
    the same message yields distinct ciphertexts.
    """
    n = pk.modulus
    if not 0 <= message < n:
        raise ValueError("message out of range for Z_N")
    n_sq = pk.modulus_squared
    if r is not None:
        if not 0 < r < n or math.gcd(r, n) != 1:
            raise ValueError("supplied blinding factor not in Z_N^*")
    else:
        rng = rng if rng is not None else random.SystemRandom()
        for _ in range(_ENCRYPT_R_ATTEMPTS):
            candidate = rng.randrange(1, n)
            if math.gcd(candidate, n) == 1:
                r = candidate
                break
        else:
            raise RuntimeError("randomness source exhausted drawing a unit modulo N")
    value = (1 + message * n) * _powmod(r, n, n_sq) % n_sq
    return PaillierCiphertext(value, n)


def paillier_decrypt(
    sk: PaillierSecretKey,
    pk: PaillierPublicKey,
    ciphertext: PaillierCiphertext,
) -> int:
    """Recover the plaintext; exact for every message in Z_N.

    Raises:
        ValueError: ciphertext bound to a different modulus.
        MalformedCiphertextError: the secret key's primes do not multiply to
            N, or c^(q1-1) mod q1^2 or c^(q2-1) mod q2^2 falls outside its
            L-function domain {u | u = 1 mod q}.
    """
    n = pk.modulus
    if ciphertext.modulus != n:
        raise ValueError("ciphertext was produced under a different modulus")
    p, q = sk.q1, sk.q2
    if p * q != n:
        raise MalformedCiphertextError("secret key does not belong to the modulus")
    x_p = _powmod(ciphertext.value, p - 1, sk.q1_squared)
    x_q = _powmod(ciphertext.value, q - 1, sk.q2_squared)
    if x_p % p != 1 or x_q % q != 1:
        raise MalformedCiphertextError("ciphertext escapes the L-function domain")
    m_p = (x_p - 1) // p * sk.h1 % p
    m_q = (x_q - 1) // q * sk.h2 % q
    return m_q + q * ((m_p - m_q) * sk.q2_inverse % p)


def paillier_add(
    pk: PaillierPublicKey,
    c1: PaillierCiphertext,
    c2: PaillierCiphertext,
) -> PaillierCiphertext:
    """Multiply ciphertexts modulo N^2; decrypts to (m1 + m2) mod N."""
    if c1.modulus != pk.modulus or c2.modulus != pk.modulus:
        raise ValueError("ciphertext modulus mismatch")
    return PaillierCiphertext(c1.value * c2.value % pk.modulus_squared, pk.modulus)
