import dataclasses
import random

import pytest

from gridseal import pairing
from gridseal.abe import CiphertextRow
from gridseal.lsss import Gate, Leaf
from gridseal.pairing import (
    DEFAULT_Q_160,
    MAX_Q_BITS,
    BackendMismatchError,
    GroupElementG,
    GroupElementGT,
    PairingBackend,
    ReferenceBackend,
    ctx_new,
    register_backend,
)
from gridseal.primes import is_probable_prime

MERSENNE_61 = 2**61 - 1


@pytest.fixture(scope="module")
def ctx():
    return ctx_new(q=MERSENNE_61)


def test_default_context_is_160_bit(ctx):
    assert ctx_new().q_bits == 160
    assert ctx_new().q == DEFAULT_Q_160
    assert ctx.q == MERSENNE_61


def test_composite_order_rejected():
    # 561 is a Carmichael number; the last one is a multiple of the pinned order
    for q in (15, 561, DEFAULT_Q_160 * 3):
        with pytest.raises(ValueError, match="must be prime"):
            ctx_new(q=q)


def test_pinned_default_order_is_prime():
    # ctx_new trusts the pinned order without testing it; this is its proof
    assert is_probable_prime(DEFAULT_Q_160)


def test_only_a_supplied_order_is_tested(monkeypatch):
    calls = []
    monkeypatch.setattr(pairing, "is_probable_prime",
                        lambda n: calls.append(n) or is_probable_prime(n))
    ctx_new()
    ctx_new(q=DEFAULT_Q_160)
    # a drawn order has passed generate_prime's own test
    assert ctx_new(q_bits=64, rng=random.Random(3)).q_bits == 64
    assert calls == []
    ctx_new(q=MERSENNE_61)
    assert calls == [MERSENNE_61]


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        ctx_new(backend="imaginary-curve")


def test_q_bits_generation():
    generated = ctx_new(q_bits=64, rng=random.Random(3))
    assert generated.q_bits == 64


class _PrimeDrawn(Exception):
    pass


def test_q_bits_over_the_limit_are_refused_before_drawing_a_prime(monkeypatch):
    def drawn(bits, rng):
        raise _PrimeDrawn(bits)
    monkeypatch.setattr(pairing, "generate_prime", drawn)
    with pytest.raises(ValueError, match="at most 1024"):
        ctx_new(q_bits=MAX_Q_BITS + 1)
    with pytest.raises(_PrimeDrawn):  # the limit itself is a valid size
        ctx_new(q_bits=MAX_Q_BITS)


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
    assert ctx.g_exp(ctx.g, 0) == ctx.backend.identity_g()
    a = rng.randrange(1, ctx.q)
    b = rng.randrange(1, ctx.q)
    assert ctx.g_exp(ctx.g_exp(ctx.g, a), b) == ctx.g_exp(ctx.g, a * b % ctx.q)


def test_meters_count_exponentiations_only(ctx):
    fresh = ctx_new(q=MERSENNE_61)
    start = fresh.counters
    element = fresh.g_exp(fresh.g, 5)
    assert fresh.counters.scalar_muls - start.scalar_muls == 1
    fresh.backend.g_mul(element, element)
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
    unfused = ctx.backend.identity_g()
    for base, k in pairs:
        unfused = ctx.backend.g_mul(unfused, ctx.backend.g_exp(base, k))
    assert fused == unfused


def test_reference_mulexp_equals_the_generic_form(ctx):
    # exponents negative, zero, or q and above: the fused sum reduces them once
    rng = random.Random(30)
    backend = ctx.backend
    for _ in range(200):
        pairs = [(backend.g_exp(ctx.g, rng.randrange(ctx.q)),
                  rng.choice((-rng.randrange(1, 3 * ctx.q), 0, ctx.q,
                              rng.randrange(ctx.q, 3 * ctx.q))))
                 for _ in range(rng.randrange(5))]
        fused = backend.g_mulexp(pairs)
        assert fused == PairingBackend.g_mulexp(backend, pairs)
        assert type(fused) is GroupElementG and 0 <= fused.data < ctx.q


def test_mulexp_refuses_bases_from_elsewhere(ctx):
    other = ctx_new(q=2**61 + 15)
    for bad in (other.g, ctx.pair(ctx.g, ctx.g)):
        with pytest.raises(BackendMismatchError):
            ctx.backend.g_mulexp([(ctx.g, 2), (bad, 3)])
        with pytest.raises(BackendMismatchError):
            ctx.g_mulexp([(bad, 1)])


def test_hash_to_g_deterministic_and_distinct(ctx):
    assert ctx.hash_to_g("u3") == ctx.hash_to_g("u3")
    assert ctx.hash_to_g("u3") != ctx.hash_to_g("u4")


def test_hash_to_g_pinned_vector(ctx):
    # frozen: sha256(b"u3") as an integer, reduced mod 2^61 - 1
    assert ctx.hash_to_g("u3").data == 2211850868689465163


def test_backend_domain_separation():
    ctx_a = ctx_new(q=MERSENNE_61)
    ctx_b = ctx_new(q=2**61 + 15)  # another prime
    with pytest.raises(BackendMismatchError):
        ctx_a.backend.g_mul(ctx_a.g, ctx_b.g)
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


def test_slotted_values_stay_frozen_values(ctx):
    ident = ctx.backend.ident
    # equality is class-strict: a G element never equals a G_T element
    assert GroupElementG(ident, 5) != GroupElementGT(ident, 5)
    assert hash(GroupElementGT(ident, 5)) == hash(GroupElementGT(ident, 5))
    row = CiphertextRow(ctx.pair(ctx.g, ctx.g), ctx.g, ctx.g_exp(ctx.g, 2))
    tree = Gate("AND", Leaf("a"), Leaf("b"))
    for value in (ctx.g, row.c1, row, tree, tree.left):
        assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.g.data = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.c2 = ctx.g
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.op = "OR"
    stripped = dataclasses.replace(row, c1=None)
    assert stripped == CiphertextRow(None, row.c2, row.c3) != row


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


class DecodeEachBackend(ReferenceBackend):
    """The reference group with the generic check_bodies, which decodes each body."""

    check_bodies = PairingBackend.check_bodies


@pytest.mark.parametrize("q, other", [(241, 251), (MERSENNE_61, 2**61 + 15),
                                      (DEFAULT_Q_160, 2**160 - 47)],
                         ids=["one-byte", "61-bit", "160-bit"])
def test_reference_body_check_rejects_what_decoding_rejects(q, other):
    # `other` is a larger prime whose bodies are as wide as q's, so a body
    # can be valid in its group and too large in q's
    assert is_probable_prime(other) and other > q
    assert ReferenceBackend(other).g_bytes == ReferenceBackend(q).g_bytes
    for order in (q, other):
        override, generic = ReferenceBackend(order), DecodeEachBackend(order)
        width = override.g_bytes
        values = [0, 1, q - 1, q, other - 1, other, 2 ** (8 * width) - 1]
        bodies = [v.to_bytes(width, "big") for v in values]
        for v, body in zip(values, bodies):
            data = b"\x07" + body + b"\x00"  # the body inside other bytes
            for g_offsets, gt_offsets in (([1], []), ([], [1])):
                outcomes = []
                for backend in (override, generic):
                    try:
                        backend.check_bodies(data, g_offsets, gt_offsets)
                        outcomes.append(True)
                    except ValueError:
                        outcomes.append(False)
                assert outcomes == [v < order] * 2, (order, v)
        # many bodies in one call: one bad body anywhere fails it
        good = [v for v in values if v < order]
        data = b"".join(v.to_bytes(width, "big") for v in good)
        offsets = list(range(0, len(data), width))
        for backend in (override, generic):
            backend.check_bodies(data, offsets, offsets[::-1])
            backend.check_bodies(data, [], [])
            bad = data + order.to_bytes(width, "big")
            with pytest.raises(ValueError):
                backend.check_bodies(bad, offsets + [len(data)], [])
            with pytest.raises(ValueError):
                backend.check_bodies(bad, offsets, [len(data)])
