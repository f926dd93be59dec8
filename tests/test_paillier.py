import hashlib
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseal import paillier
from gridseal.paillier import (
    MAX_KEY_BITS,
    MalformedCiphertextError,
    PaillierCiphertext,
    PaillierSecretKey,
    paillier_add,
    paillier_decrypt,
    paillier_encrypt,
    paillier_keygen,
)
from gridseal.wire import encode_uint
from paillier_oracle import oracle_decrypt, oracle_lam, oracle_mu


@pytest.fixture(scope="module")
def desk_keys():
    return paillier_keygen(q1=5, q2=7)


@pytest.fixture(scope="module")
def small_keys():
    return paillier_keygen(128, rng=random.Random(1234))


@pytest.fixture(scope="module")
def keys_512():
    return paillier_keygen(512, rng=random.Random(512))


def test_injected_primes_give_handcomputed_parameters(desk_keys):
    pk, sk = desk_keys
    assert pk.modulus == 35
    assert oracle_lam(sk) == 12  # lcm(4, 6)
    assert (sk.h1, sk.h2, sk.q2_inverse) == (2, 4, 3)  # (-7)^-1 mod 5, (-5)^-1 mod 7, 7^-1 mod 5


def test_generator_order_is_multiple_of_modulus(desk_keys):
    # brute force over the group: ord(36) mod 1225 must be a multiple of 35
    pk, _ = desk_keys
    g, n_sq = pk.modulus + 1, pk.modulus_squared
    x, order = g % n_sq, 1
    while x != 1:
        x = x * g % n_sq
        order += 1
    assert order % pk.modulus == 0


def test_mu_closed_form_matches_the_l_function():
    # mu is L(g^lambda mod N^2)^-1 mod N with L(u) = (u - 1) / N; for g = N + 1
    # the oracle computes it as lambda^-1 mod N
    for q1, q2 in [(5, 7), (11, 13), (17, 23), (101, 103), (1009, 2003), (65521, 65537)]:
        pk, sk = paillier_keygen(q1=q1, q2=q2)
        n, n_sq = pk.modulus, pk.modulus_squared
        assert oracle_mu(sk) == pow((pow(pk.modulus + 1, oracle_lam(sk), n_sq) - 1) // n, -1, n)


def test_crt_constants_match_the_l_function(keys_512):
    # h_p = L_p(g^(p-1) mod p^2)^-1 mod p with L_p(u) = (u - 1) / p; the key
    # derives it in closed form as (-q)^-1 mod p, and h_q symmetrically
    cases = [paillier_keygen(q1=q1, q2=q2)
             for q1, q2 in [(5, 7), (7, 5), (11, 13), (17, 23), (1009, 2003), (65521, 65537)]]
    for pk, sk in cases + [keys_512]:
        g = pk.modulus + 1
        for p, q, h in [(sk.q1, sk.q2, sk.h1), (sk.q2, sk.q1, sk.h2)]:
            assert h == pow((pow(g, p - 1, p * p) - 1) // p, -1, p)
        assert sk.q2 * sk.q2_inverse % sk.q1 == 1


def _random_units(pk, rng, count):
    n, n_sq = pk.modulus, pk.modulus_squared
    units = []
    while len(units) < count:
        c = rng.randrange(1, n_sq)
        if math.gcd(c, n) == 1:
            units.append(PaillierCiphertext(c, n))
    return units


def test_crt_decryption_matches_the_oracle_on_every_desk_unit(desk_keys):
    pk, sk = desk_keys
    n, n_sq = pk.modulus, pk.modulus_squared
    units = [PaillierCiphertext(c, n) for c in range(1, n_sq) if math.gcd(c, n) == 1]
    assert len(units) == 4 * 6 * 35  # |Z*_{N^2}| = phi(N) * N
    for ct in units:
        assert paillier_decrypt(sk, pk, ct) == oracle_decrypt(sk, pk, ct)


def test_crt_decryption_matches_the_oracle_at_512_bits(keys_512):
    pk, sk = keys_512
    decoded = PaillierSecretKey(sk.q1, sk.q2)
    rng = random.Random(5120)
    units = _random_units(pk, rng, 40)
    sums = [paillier_add(pk, a, b) for a, b in zip(units, units[1:])]
    # sums of fresh encryptions whose plaintexts wrap mod N
    for _ in range(10):
        m1 = rng.randrange(pk.modulus // 2, pk.modulus)
        m2 = rng.randrange(pk.modulus - m1, pk.modulus)
        c = paillier_add(pk, paillier_encrypt(pk, m1, rng=rng), paillier_encrypt(pk, m2, rng=rng))
        assert paillier_decrypt(decoded, pk, c) == m1 + m2 - pk.modulus
        sums.append(c)
    for ct in units + sums:
        expected = oracle_decrypt(sk, pk, ct)
        assert paillier_decrypt(sk, pk, ct) == expected
        assert paillier_decrypt(decoded, pk, ct) == expected


def test_crt_decryption_matches_the_oracle_at_2048_bits():
    pk, sk = paillier_keygen(2048, rng=random.Random(2048))
    rng = random.Random(20480)
    m1, m2 = pk.modulus - 3, 1_000_000
    wrapped = paillier_add(pk, paillier_encrypt(pk, m1, rng=rng), paillier_encrypt(pk, m2, rng=rng))
    for ct in [wrapped] + _random_units(pk, rng, 2):
        assert paillier_decrypt(sk, pk, ct) == oracle_decrypt(sk, pk, ct)
    assert paillier_decrypt(sk, pk, wrapped) == m2 - 3


def test_another_keys_secret_key_is_refused(keys_512):
    pk, _ = keys_512
    _, other_sk = paillier_keygen(512, rng=random.Random(513))
    rng = random.Random(514)
    cts = [paillier_encrypt(pk, m, rng=rng) for m in (0, 1, 12345)] + _random_units(pk, rng, 5)
    for ct in cts:
        with pytest.raises(MalformedCiphertextError):
            paillier_decrypt(other_sk, pk, ct)


def _key_digest(sk):
    """SHA-256 of the secret key's primes, each a length-prefixed big-endian magnitude."""
    return hashlib.sha256(encode_uint(sk.q1) + encode_uint(sk.q2)).hexdigest()


# _key_digest of paillier_keygen(512, rng=Random(s))[1] for s = 0..9,
# computed when every random candidate still ran 48 Miller-Rabin rounds
_SEEDED_SECRET_KEY_DIGESTS = [
    "d23cfb87f3bdd37a9bd521e4b72c9370c872d58ea4d8cb8bb99fb14f07df0c9c",
    "8be773e0aedbafcbad9bac31471ddd6ba8cb72ccdd5d31ff84bf78cc292d9035",
    "176122e39ee82500b8213b417e29f4b018d548b8eb316c7298eada7031a4fee3",
    "16ca1c5c2b13babe582ba678c88d9610177f0528ba50ab512178d8ae0fa1f29a",
    "c59f706513aedda53ef753b7320e7a2e5173835d55890b88296e7dd304b92907",
    "7f93a146ec4482c38be1a9da9f296361e758f28b78d0f12ca38894e009b9a874",
    "a04dd9b4f57bf116f7fd096dac12480736cca56349f03440a7c17d6ec491e487",
    "3a20429127cedf519cd925182ecc56b4359adddf73634b9905cdb89a719a058b",
    "eef49af6277b7e7f572747db981259c7d5e79b069f99ee2da27ec35ca4d2f621",
    "9dcaeb29b3be0918345a3e3b45092951f96a7dd420302ca1cb17f92f0ed3d7fe",
]


def test_seeded_secret_keys_are_pinned():
    # the average-case Miller-Rabin rounds shorten the witness stream but
    # accept the same candidates, so a seed draws the same key as before
    digests = [_key_digest(paillier_keygen(512, rng=random.Random(s))[1]) for s in range(10)]
    assert digests == _SEEDED_SECRET_KEY_DIGESTS


# _key_digest of paillier_keygen(2048, rng=Random(s))[1] for s = 1, 2, 3,
# computed before candidates of 512 bits or more took the gcd sieve
_SEEDED_2048_BIT_SECRET_KEY_DIGESTS = {
    1: "8c09cde7f3b1c4a2bf28243fb5d0cbf7e5dd78d90aedafc77953c2932b582387",
    2: "d59476d3702975fa5248df91702c71dd7471a05ce0c13a3bd55b66a9429c6542",
    3: "72342154423fa455d3c06d0f8c284d27e93b90fe8f04aa9d8a80208b67b8f9cc",
}


def test_seeded_2048_bit_secret_keys_are_pinned():
    # the sieve refuses only composites and draws nothing, so a seed keeps its key
    for seed, digest in _SEEDED_2048_BIT_SECRET_KEY_DIGESTS.items():
        sk = paillier_keygen(2048, rng=random.Random(seed))[1]
        assert _key_digest(sk) == digest, seed


def test_keygen_size_and_primality():
    pk, sk = paillier_keygen(256, rng=random.Random(9))
    assert pk.bit_length in (255, 256)
    assert sympy.isprime(sk.q1) and sympy.isprime(sk.q2)
    assert sk.q1 != sk.q2
    assert sk.q1 * sk.q2 == pk.modulus


def test_keygen_2048_dimensions():
    pk, sk = paillier_keygen(2048, rng=random.Random(42))
    assert pk.bit_length in (2047, 2048)
    assert sympy.isprime(sk.q1) and sympy.isprime(sk.q2)


def test_distinct_seeds_distinct_moduli():
    pk_a, _ = paillier_keygen(128, rng=random.Random(1))
    pk_b, _ = paillier_keygen(128, rng=random.Random(2))
    assert pk_a.modulus != pk_b.modulus


def test_keygen_rejects_small_bit_length():
    with pytest.raises(ValueError):
        paillier_keygen(8)


class _PrimeDrawn(Exception):
    pass


def test_keygen_refuses_a_size_over_the_limit_before_drawing_a_prime(monkeypatch):
    def drawn(bits, rng):
        raise _PrimeDrawn(bits)
    monkeypatch.setattr(paillier, "generate_prime", drawn)
    with pytest.raises(ValueError, match="16..8192"):
        paillier_keygen(MAX_KEY_BITS + 1)
    with pytest.raises(_PrimeDrawn):  # the limit itself is a valid size
        paillier_keygen(MAX_KEY_BITS)


def test_keygen_rejects_bad_injected_primes():
    with pytest.raises(ValueError):
        paillier_keygen(q1=5, q2=5)
    with pytest.raises(ValueError):
        paillier_keygen(q1=4, q2=7)
    # gcd(lambda, N) != 1: mu does not exist for (3, 7)
    with pytest.raises(ValueError):
        paillier_keygen(q1=3, q2=7)
    with pytest.raises(ValueError):
        paillier_keygen(q1=5)


def test_encrypt_identity_case(desk_keys):
    pk, sk = desk_keys
    ct = paillier_encrypt(pk, 0, r=1)
    assert ct.value == 1
    assert paillier_decrypt(sk, pk, ct) == 0


def test_pinned_vector(desk_keys):
    # frozen from an independent big-integer computation: 36^3 * 2^35 mod 1225
    pk, sk = desk_keys
    ct = paillier_encrypt(pk, 3, r=2)
    assert ct.value == 683
    assert paillier_decrypt(sk, pk, ct) == 3


def test_probabilistic_encryption(desk_keys):
    pk, sk = desk_keys
    c_a = paillier_encrypt(pk, 3, r=2)
    c_b = paillier_encrypt(pk, 3, r=3)
    assert c_a != c_b
    assert paillier_decrypt(sk, pk, c_a) == paillier_decrypt(sk, pk, c_b) == 3


def test_round_trip_randomized(small_keys):
    pk, sk = small_keys
    rng = random.Random(77)
    for _ in range(1000):
        m = rng.randrange(pk.modulus)
        assert paillier_decrypt(sk, pk, paillier_encrypt(pk, m, rng=rng)) == m


def test_message_range_enforced(small_keys):
    pk, _ = small_keys
    with pytest.raises(ValueError):
        paillier_encrypt(pk, -1)
    with pytest.raises(ValueError):
        paillier_encrypt(pk, pk.modulus)


def test_blinding_factor_validation(desk_keys):
    pk, _ = desk_keys
    with pytest.raises(ValueError):
        paillier_encrypt(pk, 1, r=35)
    with pytest.raises(ValueError):
        paillier_encrypt(pk, 1, r=5)  # gcd(5, 35) != 1


def test_homomorphic_addition(small_keys):
    pk, sk = small_keys
    rng = random.Random(5)
    c = paillier_add(pk, paillier_encrypt(pk, 2, rng=rng), paillier_encrypt(pk, 3, rng=rng))
    assert paillier_decrypt(sk, pk, c) == 5


def test_homomorphic_wraparound(small_keys):
    pk, sk = small_keys
    rng = random.Random(6)
    c = paillier_add(pk, paillier_encrypt(pk, pk.modulus - 1, rng=rng),
                     paillier_encrypt(pk, 1, rng=rng))
    assert paillier_decrypt(sk, pk, c) == 0


def test_fold_of_five_meter_readings(small_keys):
    pk, sk = small_keys
    rng = random.Random(8)
    readings = [1210, 830, 560, 1975, 402]
    total = paillier_encrypt(pk, readings[0], rng=rng)
    for value in readings[1:]:
        total = paillier_add(pk, total, paillier_encrypt(pk, value, rng=rng))
    assert paillier_decrypt(sk, pk, total) == sum(readings)


def test_add_rejects_modulus_mismatch(small_keys, desk_keys):
    pk, _ = small_keys
    other_pk, _ = desk_keys
    rng = random.Random(3)
    c_small = paillier_encrypt(pk, 1, rng=rng)
    c_desk = paillier_encrypt(other_pk, 1, rng=rng)
    with pytest.raises(ValueError):
        paillier_add(pk, c_small, c_desk)
    with pytest.raises(ValueError):
        paillier_decrypt(desk_keys[1], other_pk, c_small)


def test_randomizer_elimination(small_keys):
    # (r^N)^lambda == 1 mod N^2; this is what makes the blinding vanish
    pk, sk = small_keys
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randrange(1, pk.modulus)
        if math.gcd(r, pk.modulus) != 1:
            continue
        assert pow(pow(r, pk.modulus, pk.modulus_squared), oracle_lam(sk), pk.modulus_squared) == 1


def test_no_ciphertext_collisions_at_512_bits():
    pk, _ = paillier_keygen(512, rng=random.Random(500))
    rng = random.Random(501)
    seen = set()
    for _ in range(10_000):
        seen.add(paillier_encrypt(pk, 42, rng=rng).value)
    assert len(seen) == 10_000


def test_malformed_ciphertext_detected(small_keys):
    # any unit of Z_{N^2} satisfies c^lambda = 1 mod N under the right key, so
    # the L-domain violation is observable exactly when the secret key does
    # not belong to the modulus
    pk, _ = small_keys
    wrong_sk = PaillierSecretKey(5, 7)  # lambda 12, mu 3
    ct = paillier_encrypt(pk, 3, rng=random.Random(2))
    with pytest.raises(MalformedCiphertextError):
        paillier_decrypt(wrong_sk, pk, ct)


def test_ciphertext_invariants(desk_keys):
    pk, _ = desk_keys
    with pytest.raises(ValueError):
        PaillierCiphertext(0, pk.modulus)
    with pytest.raises(ValueError):
        PaillierCiphertext(pk.modulus_squared, pk.modulus)
    with pytest.raises(ValueError):
        PaillierCiphertext(35, pk.modulus)  # shares a factor with N^2


def test_a_ciphertext_is_refused_exactly_when_it_is_no_unit_modulo_n_squared():
    for q1, q2 in ((5, 7), (11, 13), (3, 17)):
        n = q1 * q2
        for value in range(1, n * n):
            try:
                PaillierCiphertext(value, n)
            except ValueError:
                assert math.gcd(value, n * n) != 1, (n, value)
            else:
                assert math.gcd(value, n * n) == 1, (n, value)


@given(m1=st.integers(min_value=0, max_value=34), m2=st.integers(min_value=0, max_value=34))
@settings(deadline=None, max_examples=60)
def test_homomorphism_property(desk_keys, m1, m2):
    pk, sk = desk_keys
    rng = random.Random(m1 * 35 + m2)
    combined = paillier_add(pk, paillier_encrypt(pk, m1, rng=rng),
                            paillier_encrypt(pk, m2, rng=rng))
    assert paillier_decrypt(sk, pk, combined) == (m1 + m2) % pk.modulus
