import _ctypes
import ctypes
import math
import os
import random
import subprocess
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import sympy

import gridseal
from gridseal import primes
from gridseal.harness import run_scenario
from gridseal.harness.cli import _resolve_scenario, bundled_scenarios
from gridseal.paillier import paillier_decrypt, paillier_encrypt, paillier_keygen
from prime_oracle import sequential_generate_prime


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


def test_primality_below_2_16_agrees_with_sympy():
    assert [n for n in range(2, 2 ** 16) if primes.is_probable_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n", [-7, 0, 1])
def test_a_number_below_two_is_no_prime(n):
    assert not primes.is_probable_prime(n)


def test_generate_prime_refuses_a_size_below_two_bits():
    with pytest.raises(ValueError, match="at least 2 bits"):
        primes.generate_prime(1, random.Random(0))


class _Zeros(random.Random):
    def getrandbits(self, k):
        return 0


def test_generate_prime_gives_up_after_its_retry_budget():
    # every candidate is 2^3 + 1 = 9
    with pytest.raises(RuntimeError, match="retry budget"):
        primes.generate_prime(4, _Zeros())


@pytest.fixture()
def rounds(monkeypatch):
    """Counts every Miller-Rabin round run while the test runs, on any thread."""
    calls = [0]
    run_round = primes._miller_rabin_round
    lock = threading.Lock()

    def counted(*args):
        with lock:
            calls[0] += 1
        return run_round(*args)

    monkeypatch.setattr(primes, "_miller_rabin_round", counted)
    return calls


@pytest.mark.parametrize("n, prime, reaches_rounds", [
    (1999, True, False),  # the largest small prime: decided by membership
    (2003, True, True),
    (1999 ** 2, False, False),
    (53 * 59, False, False),  # no factor to 47: only the gcd with every small prime refuses it
    (1997 * 1999, False, False),
    (2003 * 2011, False, True),  # no factor below 2,000: passes trial division
])
def test_trial_division_refuses_exactly_the_numbers_with_a_small_factor(
        rounds, n, prime, reaches_rounds):
    assert primes.is_probable_prime(n) is prime
    assert (rounds[0] > 0) is reaches_rounds


def test_a_large_candidate_with_a_factor_below_2_16_costs_no_round(rounds):
    n = 65521 * primes.generate_prime(primes._SIEVE_FLOOR_BITS, random.Random(15))
    assert n.bit_length() >= primes._SIEVE_FLOOR_BITS
    rounds[0] = 0
    assert not primes._passes_miller_rabin(n, 3)
    assert not primes.is_probable_prime(n)
    assert rounds[0] == 0


@pytest.fixture()
def one_cpu(monkeypatch):
    """The process may run on one CPU only: every search runs in draw order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture()
def two_cpus(monkeypatch):
    """The process may run on two CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_the_sieve_cuts_the_rounds_of_a_seeded_4096_bit_keygen(rounds, one_cpu, monkeypatch):
    # 37 of the 128 composites that pass trial division below 2,000 have a
    # factor in (2,000, 2^16); 4 rounds prove the two kept primes
    paillier_keygen(4096, random.Random(1))
    assert rounds[0] == 95
    rounds[0] = 0
    monkeypatch.setattr(primes, "_SIEVE_FLOOR_BITS", 4097)
    paillier_keygen(4096, random.Random(1))
    assert rounds[0] == 132


def test_pairs_add_one_round_to_a_seeded_4096_bit_keygen(rounds, two_cpus, monkeypatch):
    # one of the two primes is the earlier survivor of its pair, so the survivor
    # drawn after it was tested too, failing in one round; with the sieve off,
    # both primes are the later of their pairs and no round is added
    paillier_keygen(4096, random.Random(1))
    assert rounds[0] == 95 + 1
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


def test_powmod_agrees_with_pow_when_most_calls_switch_modulus():
    # each thread keeps the state of its last modulus, so a call that changes
    # modulus (odd to even, or to another value of the same size) must reload it
    shuffled = [case for case in _powmod_operands() if case[2].bit_length() <= 4096]
    shuffled += [(base, exponent, modulus + 2) for base, exponent, modulus in shuffled
                 if modulus % 2 and (modulus + 2).bit_length() == modulus.bit_length()]
    random.Random(32).shuffle(shuffled)
    expected = {case: pow(*case) for case in shuffled}
    for order in (shuffled, shuffled[::-1]):
        switches = sum(a[2] != b[2] for a, b in zip(order, order[1:]))
        assert switches > len(order) / 2
        assert [primes._powmod(*case) for case in order] == [expected[case] for case in order]


def test_powmod_agrees_with_pow_when_calls_switch_exponent():
    # each thread keeps its last exponent as it keeps its modulus: exponents of
    # one size and parity alternate under one modulus, and one exponent spans moduli
    rng = random.Random(149)
    modulus = rng.getrandbits(1024) | 1 << 1023 | 1
    exponents = [rng.getrandbits(512) | 1 << 511 | 1 for _ in range(3)] + [0, 1]
    cases = [(rng.getrandbits(1100), e, modulus) for e in exponents for _ in range(3)]
    cases += [(base, exponent, modulus + 2) for base, exponent, modulus in cases]
    rng.shuffle(cases)
    for order in (cases, sorted(cases, key=lambda case: case[1])):
        assert [primes._powmod(*case) for case in order] == [pow(*case) for case in order]


def test_a_thread_computes_on_its_own_modulus_while_another_keeps_its_own():
    rng = random.Random(33)
    main_modulus, other_modulus = (rng.getrandbits(512) | 1 << 511 | 1 for _ in range(2))
    base = rng.getrandbits(600)
    assert primes._powmod(base, 65537, main_modulus) == pow(base, 65537, main_modulus)
    with ThreadPoolExecutor(max_workers=1) as pool:
        answer = pool.submit(lambda: [primes._powmod(base, 65537, m)
                                      for m in (other_modulus, main_modulus, other_modulus)])
        assert answer.result(timeout=60) == [pow(base, 65537, m)
                                             for m in (other_modulus, main_modulus, other_modulus)]
    assert primes._powmod(base + 1, 3, main_modulus) == pow(base + 1, 3, main_modulus)


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


_open_library = ctypes.CDLL  # the real one, while a test replaces ctypes.CDLL


class _Library:
    """libcrypto through `_hashlib`'s handle, with named functions replaced."""

    def __init__(self, path, replaced):
        self._lib = _open_library(path)
        self._replaced = replaced

    def __getattr__(self, name):
        return self._replaced.get(name) or getattr(self._lib, name)


def _powmod_on(**replaced):
    """A `_powmod` loaded from libcrypto with the named functions replaced."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ctypes, "CDLL", lambda path: _Library(path, replaced))
        powmod = primes._load_powmod()
    assert powmod is not pow
    return powmod


def _libcrypto_function(name, restype, pointers):
    """A libcrypto function of `pointers` pointer arguments, on a handle of its own."""
    func = getattr(_open_library(sys.modules["_hashlib"].__file__), name)
    func.restype, func.argtypes = restype, (ctypes.c_void_p,) * pointers
    return func


@needs_libcrypto
@pytest.mark.parametrize("name, result, modulus", [
    ("BN_CTX_new", None, 7), ("BN_MONT_CTX_new", None, 7), ("BN_new", None, 7),
    ("BN_bin2bn", None, 7), ("BN_MONT_CTX_set", 0, 7), ("BN_mod_exp_mont", 0, 7),
    ("BN_mod_exp", 0, 8), ("BN_bn2binpad", -1, 7),
])
def test_each_libcrypto_failure_raises_runtime_error(name, result, modulus):
    powmod = _powmod_on(**{name: lambda *args: result})
    with pytest.raises(RuntimeError, match=f"libcrypto {name} failed"):
        powmod(3, 5, modulus)


@needs_libcrypto
def test_a_modulus_that_fails_to_load_leaves_no_stale_context():
    real_set = _libcrypto_function("BN_MONT_CTX_set", ctypes.c_int, 3)
    set_fails = [False]

    def mont_set(*args):
        return 0 if set_fails[0] else real_set(*args)

    powmod = _powmod_on(BN_MONT_CTX_set=mont_set)
    # a cache still naming the first modulus after the second failed to load would
    # pair the first's context with the second's BIGNUM; the base exceeds both,
    # so that pairing gives a wrong answer
    first, second = 2 ** 127 - 1, 2 ** 89 - 1
    base = 2 ** 200 + 12345
    assert powmod(base, 65537, first) == pow(base, 65537, first)
    set_fails[0] = True
    with pytest.raises(RuntimeError, match="BN_MONT_CTX_set"):
        powmod(base, 65537, second)
    set_fails[0] = False
    assert powmod(base, 65537, first) == pow(base, 65537, first)
    assert powmod(base, 65537, second) == pow(base, 65537, second)


@needs_libcrypto
def test_an_exponent_that_fails_to_load_leaves_no_stale_key():
    real_load = _libcrypto_function("BN_bin2bn", ctypes.c_void_p, 0)
    real_load.argtypes = (ctypes.c_char_p, ctypes.c_int, ctypes.c_void_p)
    first, second = 2 ** 61 - 1, 2 ** 89 - 1
    failing = second.to_bytes(12, "big")

    def load(data, size, bn):
        # the second exponent reaches its BIGNUM, and the load still reports failure
        loaded = real_load(data, size, bn)
        return None if data == failing else loaded

    powmod = _powmod_on(BN_bin2bn=load)
    base, modulus = 2 ** 200 + 12345, 2 ** 127 - 1
    assert powmod(base, first, modulus) == pow(base, first, modulus)
    with pytest.raises(RuntimeError, match="BN_bin2bn"):
        powmod(base, second, modulus)
    # a key still naming the first exponent would skip its reload and raise to the second
    assert powmod(base, first, modulus) == pow(base, first, modulus)


@needs_libcrypto
def test_a_thread_frees_its_libcrypto_state_when_it_ends():
    real_free = _libcrypto_function("BN_CTX_free", None, 1)
    freed = []

    def ctx_free(ctx):
        freed.append(ctx)
        real_free(ctx)

    powmod = _powmod_on(BN_CTX_free=ctx_free)
    assert powmod(3, 5, 7) == 5
    worker = threading.Thread(target=powmod, args=(3, 5, 8))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(freed) == 1  # the worker's; the main thread keeps its own
    assert powmod(3, 5, 7) == 5


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


class _RecordingHelper:
    """The helper thread, keeping every future it hands out."""

    def __init__(self, helper, futures):
        self._helper, self._futures = helper, futures

    def submit(self, fn, *args):
        future = self._helper.submit(fn, *args)
        self._futures.append(future)
        return future


@pytest.fixture()
def helper_futures(monkeypatch):
    """Every future the helper thread is given while the test runs."""
    futures = []
    helper = primes._helper

    def recording(modulus_bits):
        thread = helper(modulus_bits)
        return None if thread is None else _RecordingHelper(thread, futures)

    monkeypatch.setattr(primes, "_helper", recording)
    return futures


def _on_helper() -> bool:
    return threading.current_thread().name.startswith("gridseal-modexp")


@pytest.mark.parametrize("bits", [512, 1023, 1024, 1536, 2048])
def test_generate_prime_draws_what_the_search_in_draw_order_draws(two_cpus, helper_futures, bits):
    for seed in range(4):
        paired, ordered = random.Random(seed), random.Random(seed)
        assert primes.generate_prime(bits, paired) == sequential_generate_prime(bits, ordered)
        assert paired.getrandbits(64) == ordered.getrandbits(64), seed
    assert (len(helper_futures) > 0) is (bits >= primes._HELPER_FLOOR_BITS)


def test_a_system_random_draws_a_prime_in_pairs(two_cpus, helper_futures):
    assert primes.is_probable_prime(primes.generate_prime(1024, random.SystemRandom()))
    assert helper_futures


class _Draws(random.Random):
    """Hands out the given candidates in order, however many bits are asked for."""

    def __init__(self, candidates):
        super().__init__(0)
        self._candidates = iter(candidates)

    def getrandbits(self, k):
        return next(self._candidates)


# 2,003 * 4,201 has 24 bits and no factor below 2,000, so it reaches Miller-Rabin
_COMPOSITE_24 = 2003 * 4201
_PRIME_24 = 8388617


@pytest.mark.parametrize("last, found", [(_COMPOSITE_24, None), (_PRIME_24, _PRIME_24)])
def test_pairs_keep_the_retry_budget(two_cpus, monkeypatch, last, found):
    # 200 * 24 candidates, all but the last composite; the first, 2^23 + 1, is a
    # multiple of 3, so an odd count survive trial division and the last has no partner
    monkeypatch.setattr(primes, "_HELPER_FLOOR_BITS", 24)
    rng = _Draws([2 ** 23 + 1] + [_COMPOSITE_24] * (200 * 24 - 2) + [last, _PRIME_24])
    if found is None:
        with pytest.raises(RuntimeError, match="retry budget"):
            primes.generate_prime(24, rng)
    else:
        assert primes.generate_prime(24, rng) == found


def test_the_earlier_survivor_is_always_awaited(two_cpus, helper_futures, monkeypatch):
    # the helper is slow, so a search that returned, or raised, without
    # waiting for it would leave its future running
    test = primes._miller_rabin

    def slow_on_helper(n, rounds):
        if _on_helper():
            time.sleep(0.005)
        return test(n, rounds)

    monkeypatch.setattr(primes, "_miller_rabin", slow_on_helper)
    for seed in range(2):
        primes.generate_prime(1024, random.Random(seed))
        assert helper_futures and all(future.done() for future in helper_futures)

    def failing_on_caller(n, rounds):
        if not _on_helper():
            raise ArithmeticError("the caller's test failed")
        return slow_on_helper(n, rounds)

    helper_futures.clear()
    monkeypatch.setattr(primes, "_miller_rabin", failing_on_caller)
    with pytest.raises(ArithmeticError, match="caller's test"):
        primes.generate_prime(1024, random.Random(0))
    assert len(helper_futures) == 1 and helper_futures[0].done()


def test_an_error_in_the_helpers_modexp_reaches_the_caller(two_cpus, monkeypatch):
    pk, sk = paillier_keygen(2048, random.Random(2048))
    ciphertext = paillier_encrypt(pk, 5, random.Random(1))
    powmod = primes._powmod

    def failing_on_helper(*operands):
        if _on_helper():
            raise RuntimeError("libcrypto BN_mod_exp_mont failed")
        return powmod(*operands)

    monkeypatch.setattr(primes, "_powmod", failing_on_helper)
    with pytest.raises(RuntimeError, match="BN_mod_exp_mont"):
        paillier_decrypt(sk, pk, ciphertext)
    with pytest.raises(RuntimeError, match="BN_mod_exp_mont"):
        primes.generate_prime(1024, random.Random(1))


def test_one_cpu_keeps_all_work_on_the_caller(one_cpu, helper_futures):
    assert primes._helper(8192) is None
    pk, sk = paillier_keygen(2048, random.Random(2048))
    ciphertext = paillier_encrypt(pk, 5, random.Random(1))
    assert paillier_decrypt(sk, pk, ciphertext) == 5
    rng, ordered = random.Random(3), random.Random(3)
    assert primes.generate_prime(1024, rng) == sequential_generate_prime(1024, ordered)
    assert helper_futures == []


def test_four_threads_decrypt_and_draw_primes_at_once(two_cpus, helper_futures):
    pk, sk = paillier_keygen(2048, random.Random(2048))
    rng = random.Random(4)
    messages = [rng.randrange(pk.modulus) for _ in range(8)]
    ciphertexts = [paillier_encrypt(pk, m, rng) for m in messages]
    seeds = range(4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial_primes = [primes.generate_prime(1024, random.Random(s)) for s in seeds]

    def work(seed):
        answers = [paillier_decrypt(sk, pk, c) for c in ciphertexts]
        rng = random.Random(seed)
        return answers, primes.generate_prime(1024, rng), rng.getrandbits(64)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [pool.submit(work, s) for s in seeds]
            results = [result.result(timeout=120) for result in results]
    finally:
        sys.setswitchinterval(interval)
    for seed, (answers, prime, next_draw) in zip(seeds, results):
        rng = random.Random(seed)
        assert answers == messages
        assert prime == serial_primes[seed] == primes.generate_prime(1024, rng)
        assert next_draw == rng.getrandbits(64)
    assert helper_futures


_FORKED_CHILD = """
import os, random, signal, sys, time
os.sched_getaffinity = lambda pid: {0, 1}  # the helper runs on any machine
from gridseal import paillier, primes
pk, sk = paillier.paillier_keygen(2048, random.Random(7))
ciphertext = paillier.paillier_encrypt(pk, 123456789, random.Random(8))
assert paillier.paillier_decrypt(sk, pk, ciphertext) == 123456789
prime = primes.generate_prime(1024, random.Random(9))
assert primes._helper_thread is not None
pid = os.fork()
if pid == 0:
    print("decrypt", paillier.paillier_decrypt(sk, pk, ciphertext) == 123456789)
    print("prime", primes.generate_prime(1024, random.Random(9)) == prime, flush=True)
    os._exit(0)
deadline = time.monotonic() + 30
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print("exit", os.waitstatus_to_exitcode(status))
        break
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        print("hung")
        break
    time.sleep(0.02)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_gets_a_helper_of_its_own():
    # the child inherits the parent's helper but not its thread; work handed
    # to that helper would never run
    env = dict(os.environ, PYTHONPATH=str(Path(gridseal.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _FORKED_CHILD], env=env,
                           capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "decrypt True\nprime True\nexit 0\n"


def test_an_exit_handler_decrypts_with_the_helper():
    # an executor's worker refuses work once the interpreter starts to exit
    script = (
        "import atexit, os, random\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from gridseal import paillier\n"
        "pk, sk = paillier.paillier_keygen(2048, random.Random(7))\n"
        "ciphertext = paillier.paillier_encrypt(pk, 42, random.Random(8))\n"
        "atexit.register(lambda: print(paillier.paillier_decrypt(sk, pk, ciphertext)))\n"
        "print(paillier.paillier_decrypt(sk, pk, ciphertext))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gridseal.__file__).parents[1]))
    decrypted = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert (decrypted.returncode, decrypted.stdout, decrypted.stderr) == (0, "42\n42\n", "")


@pytest.mark.parametrize("module", ["gridseal", "gridseal.primes", "gridseal.paillier",
                                    "gridseal.harness.cli"])
def test_importing_gridseal_starts_no_thread(module):
    env = dict(os.environ, PYTHONPATH=str(Path(gridseal.__file__).parents[1]))
    started = subprocess.run(
        [sys.executable, "-c", f"import threading, {module}\nprint(threading.active_count())"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert started.stdout == "1\n"


def test_a_decryption_waits_for_its_helper_half_when_its_own_half_fails(
        two_cpus, helper_futures, monkeypatch):
    pk, sk = paillier_keygen(2048, random.Random(2048))
    ciphertext = paillier_encrypt(pk, 5, random.Random(1))
    powmod = primes._powmod

    def slow_on_helper_failing_on_caller(*operands):
        if not _on_helper():
            raise RuntimeError("libcrypto BN_mod_exp_mont failed")
        time.sleep(0.05)
        return powmod(*operands)

    helper_futures.clear()
    monkeypatch.setattr(primes, "_powmod", slow_on_helper_failing_on_caller)
    with pytest.raises(RuntimeError, match="BN_mod_exp_mont"):
        paillier_decrypt(sk, pk, ciphertext)
    assert len(helper_futures) == 1 and helper_futures[0].done()
