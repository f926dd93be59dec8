import _ctypes
import ctypes
import math
import os
import random
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import sympy

import gridseal
from gridseal import primes
from gridseal.harness import run_scenario
from gridseal.harness.cli import _resolve_scenario, bundled_scenarios
from gridseal.paillier import paillier_keygen


def _log2_dlp_bound(k: int, t: int) -> float:
    """log2 of the least Damgard-Landrock-Pomerance bound (HAC Fact 4.48 (ii)-(iv))
    on the chance that a random k-bit odd number passing t rounds is composite."""
    bounds = []
    if (t == 2 and k >= 88) or (3 <= t <= k / 9 and k >= 21):
        bounds.append(1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k)))
    if k / 9 <= t <= k / 4 and k >= 21:
        bounds.append(math.log2(7 / 20 * k * 2.0 ** (-5 * t)
                                + 1 / 7 * k ** 3.75 * 2.0 ** (-k / 2 - 2 * t)
                                + 12 * k * 2.0 ** (-k / 4 - 3 * t)))
    if t >= k / 4 and k >= 21:
        bounds.append(math.log2(1 / 7) + 3.75 * math.log2(k) - k / 2 - 2 * t)
    return min(bounds, default=0.0)


def test_each_round_count_is_the_least_that_meets_two_to_the_minus_80():
    table = primes._AVERAGE_CASE_ROUNDS
    # generate_prime takes the first row at or below its size
    assert [bits for bits, _ in table] == sorted((bits for bits, _ in table), reverse=True)
    assert (128, 21) in table and (256, 11) in table
    for bits, rounds in table:
        assert _log2_dlp_bound(bits, rounds) <= -80, bits
        assert _log2_dlp_bound(bits, rounds - 1) > -80, bits


def test_the_sieve_product_holds_the_primes_above_trial_division_and_below_2_16():
    assert primes._sieve_product() == math.prod(sympy.primerange(2001, 2 ** 16))


@pytest.fixture()
def rounds(monkeypatch):
    """Counts every Miller-Rabin round run while the test runs."""
    calls = [0]
    run_round = primes._miller_rabin_round

    def counted(*args):
        calls[0] += 1
        return run_round(*args)

    monkeypatch.setattr(primes, "_miller_rabin_round", counted)
    return calls


def test_a_large_candidate_with_a_factor_below_2_16_costs_no_round(rounds):
    n = 65521 * primes.generate_prime(primes._SIEVE_FLOOR_BITS, random.Random(15))
    assert n.bit_length() >= primes._SIEVE_FLOOR_BITS
    rounds[0] = 0
    assert not primes._passes_miller_rabin(n, 3)
    assert not primes.is_probable_prime(n)
    assert rounds[0] == 0


def test_the_sieve_cuts_the_rounds_of_a_seeded_4096_bit_keygen(rounds, monkeypatch):
    # 37 of the 128 composites that pass trial division below 2,000 have a
    # factor in (2,000, 2^16); 4 rounds prove the two kept primes
    paillier_keygen(4096, random.Random(1))
    assert rounds[0] == 95
    rounds[0] = 0
    monkeypatch.setattr(primes, "_SIEVE_FLOOR_BITS", 4097)
    paillier_keygen(4096, random.Random(1))
    assert rounds[0] == 132


def test_candidates_below_1300_bits_never_touch_the_sieve(monkeypatch):
    def refuse():
        raise AssertionError("the sieve product was used")

    monkeypatch.setattr(primes, "_sieve_product", refuse)
    for seed in range(3):
        paillier_keygen(2048, random.Random(seed))
        paillier_keygen(512, random.Random(seed))
        paillier_keygen(256, random.Random(seed))
    for name in bundled_scenarios():
        assert run_scenario(_resolve_scenario(name), seed=1)["error"] is None, name
    assert primes.is_probable_prime(primes.generate_prime(1299, random.Random(4)))
    with pytest.raises(AssertionError, match="sieve product"):
        primes.generate_prime(1300, random.Random(4))


needs_libcrypto = pytest.mark.skipif(
    primes._powmod is pow, reason="libcrypto's BN_mod_exp cannot be loaded here")


def _powmod_operands():
    """Seeded (base, exponent, modulus) triples: moduli of 2 to 16,384 bits, odd
    and even, bases above the modulus, exponent 0, and results of 0 and 1."""
    rng = random.Random(24)
    cases = []
    for bits in (2, 3, 8, 63, 64, 65, 127, 512, 1023, 1024, 2048, 4096, 16384):
        for parity in (0, 1):
            modulus = (rng.getrandbits(bits) | 1 << (bits - 1)) & ~1 | parity
            exponent = rng.getrandbits(min(bits, 512)) | 1
            cases += [
                (rng.randrange(modulus), exponent, modulus),
                (modulus + rng.randrange(modulus), exponent, modulus),  # base above the modulus
                (rng.getrandbits(3 * bits), exponent, modulus),
                (rng.randrange(modulus), 0, modulus),  # exponent 0: result 1
                (0, exponent, modulus),  # result 0
                (3 * modulus, exponent, modulus),  # result 0
                (1, exponent, modulus),  # result 1
                (modulus - 1, 2 * exponent, modulus),  # result 1
                (0, 0, modulus),
            ]
    # even moduli sharing the base's factors, with result 0
    cases += [(2, 70, 2 ** 64), (6, 200, 2 ** 100 * 3 ** 20)]
    return cases


def test_powmod_agrees_with_pow_on_seeded_operands():
    cases = _powmod_operands()
    results = [primes._powmod(*case) for case in cases]
    assert results == [pow(*case) for case in cases]
    assert 0 in results and 1 in results


@needs_libcrypto
@pytest.mark.parametrize("base, exponent, modulus", [
    (-1, 5, 7), (-(2 ** 2048), 5, 2 ** 2048 + 1),  # a negative base
    (3, -1, 7), (3, -(2 ** 100), 2 ** 127 - 1),  # a negative exponent
    (3, 5, 1), (3, 5, 0), (3, 5, -7), (0, 0, 1),  # a modulus below 2
])
def test_powmod_refuses_operands_outside_its_domain(base, exponent, modulus):
    with pytest.raises(ValueError):
        primes._powmod(base, exponent, modulus)


def test_powmod_gives_four_threads_the_same_answers():
    cases = [case for case in _powmod_operands() if case[2].bit_length() <= 4096] * 3
    expected = [pow(*case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = [pool.submit(lambda: [primes._powmod(*case) for case in cases])
                       for _ in range(4)]
            assert [answer.result(timeout=120) for answer in answers] == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_the_loader_falls_back_to_pow_without_the_library_or_a_symbol(monkeypatch):
    monkeypatch.setitem(sys.modules, "_hashlib", None)  # the import raises ImportError
    assert primes._load_powmod() is pow
    # a handle that opens but has no BN_mod_exp: _ctypes links no libcrypto
    monkeypatch.setitem(sys.modules, "_hashlib", types.SimpleNamespace(__file__=_ctypes.__file__))
    assert primes._load_powmod() is pow


def _hashlib_resolves_bn_mod_exp() -> bool:
    try:
        import _hashlib
        return hasattr(ctypes.CDLL(_hashlib.__file__), "BN_mod_exp")
    except (ImportError, OSError):
        return False


@pytest.mark.skipif(not _hashlib_resolves_bn_mod_exp(),
                    reason="_hashlib's handle resolves no BN_mod_exp on this platform")
def test_powmod_is_libcrypto_wherever_the_library_resolves():
    # a wrong signature or a missing symbol must not quietly bring back pow, ten times slower
    assert primes._powmod is not pow
    assert primes._load_powmod() is not pow


@pytest.mark.parametrize("module", [
    "gridseal.primes", "gridseal.paillier", "gridseal.aggregation", "gridseal.lsss",
    "gridseal.pairing", "gridseal.abe", "gridseal.harness", "gridseal.harness.cli"])
def test_importing_gridseal_starts_no_child_process(module):
    # ctypes.util.find_library runs ldconfig in a child process, through subprocess;
    # each module runs in a fresh interpreter, so none leans on another's earlier import
    env = dict(os.environ, PYTHONPATH=str(Path(gridseal.__file__).parents[1]))
    loaded = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}\n"
         "print(sorted({'ctypes.util', 'subprocess'} & sys.modules.keys()))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert loaded.stdout == "[]\n"
