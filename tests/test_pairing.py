import random

import pytest

from gridseal.pairing import (
    DEFAULT_Q_160,
    BackendMismatchError,
    GroupElementG,
    ReferenceBackend,
    ctx_new,
    register_backend,
)

MERSENNE_61 = 2**61 - 1


@pytest.fixture(scope="module")
def ctx():
    return ctx_new(q=MERSENNE_61)


def test_default_context_is_160_bit(ctx):
    assert ctx_new().q_bits == 160
    assert ctx_new().q == DEFAULT_Q_160
    assert ctx.q == MERSENNE_61


def test_composite_order_rejected():
    with pytest.raises(ValueError):
        ctx_new(q=15)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        ctx_new(backend="imaginary-curve")


def test_q_bits_generation():
    generated = ctx_new(q_bits=64, rng=random.Random(3))
    assert generated.q_bits == 64


def test_counters_start_zeroed(ctx):
    fresh = ctx_new(q=MERSENNE_61)
    assert fresh.counters == (0, 0)


def test_bilinearity_randomized(ctx):
    rng = random.Random(17)
    gt = ctx.backend.pair(ctx.g, ctx.g)
    for _ in range(100):
        a = rng.randrange(1, ctx.q)
        b = rng.randrange(1, ctx.q)
        p = ctx.backend.g_exp(ctx.g, a)
        q = ctx.backend.g_exp(ctx.g, b)
        assert ctx.backend.pair(p, q) == ctx.backend.gt_exp(gt, a * b % ctx.q)
        assert ctx.backend.pair(p, q) == ctx.backend.pair(q, p)


def test_non_degeneracy(ctx):
    assert ctx.backend.pair(ctx.g, ctx.g) != ctx.identity_gt()


def test_exponent_identity_and_law(ctx):
    rng = random.Random(23)
    assert ctx.g_exp(ctx.g, 0) == ctx.identity_g()
    a = rng.randrange(1, ctx.q)
    b = rng.randrange(1, ctx.q)
    assert ctx.g_exp(ctx.g_exp(ctx.g, a), b) == ctx.g_exp(ctx.g, a * b % ctx.q)


def test_meters_count_exponentiations_only(ctx):
    fresh = ctx_new(q=MERSENNE_61)
    start = fresh.counters
    element = fresh.g_exp(fresh.g, 5)
    assert fresh.counters.scalar_muls - start.scalar_muls == 1
    fresh.g_mul(element, element)
    fresh.g_inv(element)
    gt = fresh.pair(element, element)
    fresh.gt_mul(gt, gt)
    fresh.gt_inv(gt)
    snap = fresh.counters
    assert snap.scalar_muls - start.scalar_muls == 1  # products and inversions are free
    assert snap.pairings - start.pairings == 1
    fresh.gt_exp(gt, 3)
    fresh.g_mulexp([(fresh.g, 2), (element, 3)])
    assert fresh.counters.scalar_muls - start.scalar_muls == 3  # mulexp meters once


def test_measure_window(ctx):
    with ctx.measure() as window:
        ctx.pair(ctx.g, ctx.g)
        ctx.g_exp(ctx.g, 2)
        ctx.g_exp(ctx.g, 3)
    assert (window.pairings, window.scalar_muls) == (1, 2)


def test_mulexp_matches_unfused(ctx):
    rng = random.Random(29)
    pairs = [(ctx.backend.g_exp(ctx.g, rng.randrange(ctx.q)), rng.randrange(ctx.q))
             for _ in range(3)]
    fused = ctx.backend.g_mulexp(pairs)
    unfused = ctx.identity_g()
    for base, k in pairs:
        unfused = ctx.backend.g_mul(unfused, ctx.backend.g_exp(base, k))
    assert fused == unfused


def test_hash_to_g_deterministic_and_distinct(ctx):
    assert ctx.hash_to_g("u3") == ctx.hash_to_g("u3")
    assert ctx.hash_to_g("u3") != ctx.hash_to_g("u4")


def test_hash_to_g_pinned_vector(ctx):
    # frozen: sha256(b"u3") as an integer, reduced mod 2^61 - 1
    assert ctx.hash_to_g("u3").data == 2211850868689465163


def test_sha1_compatibility_switch():
    sha1_ctx = ctx_new(q=MERSENNE_61, hash_name="sha1")
    default_ctx = ctx_new(q=MERSENNE_61)
    assert sha1_ctx.hash_to_g("u3") != default_ctx.hash_to_g("u3")
    assert sha1_ctx.hash_to_g("u3") == sha1_ctx.hash_to_g("u3")
    with pytest.raises(ValueError):
        ctx_new(q=MERSENNE_61, hash_name="md5")


def test_backend_domain_separation():
    ctx_a = ctx_new(q=MERSENNE_61)
    ctx_b = ctx_new(q=2**61 + 15)  # another prime
    with pytest.raises(BackendMismatchError):
        ctx_a.g_mul(ctx_a.g, ctx_b.g)
    with pytest.raises(BackendMismatchError):
        ctx_a.pair(ctx_a.g, ctx_b.g)


def test_element_serialization_round_trip(ctx):
    element = ctx.g_exp(ctx.g, 123456789)
    blob = ctx.element_to_bytes(element)
    assert len(blob) == ctx.backend.g_bytes == (MERSENNE_61.bit_length() + 7) // 8
    assert ctx.element_g_from_bytes(blob) == (element, len(blob))
    gt = ctx.pair(ctx.g, element)
    gt_blob = ctx.element_to_bytes(gt)
    assert len(gt_blob) == ctx.backend.gt_bytes
    # an element decodes at an offset and consumes exactly its width
    assert ctx.element_gt_from_bytes(b"xy" + gt_blob + b"z", 2) == (gt, 2 + len(gt_blob))


def test_element_decoding_is_canonical(ctx):
    body = ctx.element_to_bytes(ctx.g_exp(ctx.g, 5))
    width = len(body)
    for bad in (body[1:], b"", MERSENNE_61.to_bytes(width, "big"),
                (MERSENNE_61 + 5).to_bytes(width, "big"), b"\xff" * width):
        with pytest.raises(ValueError):
            ctx.element_g_from_bytes(bad)
        with pytest.raises(ValueError):
            ctx.element_gt_from_bytes(bad)
    # the backend refuses any body but exactly its width, whoever slices it
    for bad in (b"\x00" + body, body[1:]):
        with pytest.raises(ValueError):
            ctx.backend.element_g_from_bytes(bad)
        with pytest.raises(ValueError):
            ctx.backend.element_gt_from_bytes(bad)


def test_register_backend_guards():
    with pytest.raises(ValueError):
        register_backend("reference", 0x55, ReferenceBackend)
    with pytest.raises(ValueError):
        register_backend("clashing-wire-id", ReferenceBackend.wire_id, ReferenceBackend)


def test_group_elements_are_values(ctx):
    a = ctx.g_exp(ctx.g, 9)
    b = ctx.g_exp(ctx.g, 9)
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, GroupElementG)


def test_meters_are_thread_safe():
    import threading

    fresh = ctx_new(q=MERSENNE_61)

    def spin():
        for _ in range(250):
            fresh.g_exp(fresh.g, 3)
            fresh.pair(fresh.g, fresh.g)

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert fresh.counters == (2000, 2000)
