"""Textbook Paillier decryption, c^lambda mod N^2 times mu: the oracle for paillier_decrypt."""

import math

from gridseal.paillier import PaillierCiphertext, PaillierPublicKey, PaillierSecretKey


def oracle_lam(sk: PaillierSecretKey) -> int:
    """lambda(N) = lcm(q1 - 1, q2 - 1)."""
    return math.lcm(sk.q1 - 1, sk.q2 - 1)


def oracle_mu(sk: PaillierSecretKey) -> int:
    """L((N + 1)^lambda mod N^2)^-1 mod N, which for g = N + 1 is lambda^-1 mod N."""
    return pow(oracle_lam(sk), -1, sk.q1 * sk.q2)


def oracle_decrypt(sk: PaillierSecretKey, pk: PaillierPublicKey,
                   ciphertext: PaillierCiphertext) -> int:
    """m = L(c^lambda mod N^2) * mu mod N with L(u) = (u - 1) / N."""
    n = pk.modulus
    u = pow(ciphertext.value, oracle_lam(sk), pk.modulus_squared)
    assert u % n == 1, "ciphertext escapes the L-function domain"
    return (u - 1) // n * oracle_mu(sk) % n
