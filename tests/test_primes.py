import math
import random

import pytest
import sympy

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
    n = 65521 * primes.generate_prime(1008, random.Random(15))
    assert n.bit_length() >= primes._SIEVE_FLOOR_BITS
    rounds[0] = 0
    assert not primes._passes_miller_rabin(n, 3)
    assert not primes.is_probable_prime(n)
    assert rounds[0] == 0


def test_the_sieve_cuts_the_rounds_of_a_seeded_2048_bit_keygen(rounds, monkeypatch):
    # 29 of the 91 composites that pass trial division below 2,000 have a
    # factor in (2,000, 2^16); 6 rounds prove the two kept primes
    paillier_keygen(2048, random.Random(1))
    assert rounds[0] == 68
    rounds[0] = 0
    monkeypatch.setattr(primes, "_SIEVE_FLOOR_BITS", 2049)
    paillier_keygen(2048, random.Random(1))
    assert rounds[0] == 97


def test_candidates_below_512_bits_never_touch_the_sieve(monkeypatch):
    def refuse():
        raise AssertionError("the sieve product was used")

    monkeypatch.setattr(primes, "_sieve_product", refuse)
    for seed in range(3):
        paillier_keygen(512, random.Random(seed))
        paillier_keygen(256, random.Random(seed))
    for name in bundled_scenarios():
        assert run_scenario(_resolve_scenario(name), seed=1)["error"] is None, name
    assert primes.is_probable_prime(primes.generate_prime(511, random.Random(4)))
    with pytest.raises(AssertionError, match="sieve product"):
        primes.generate_prime(512, random.Random(4))
