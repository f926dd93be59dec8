"""Wire codecs of LsssProgram, AbeCiphertext, MeterPacket and PaillierCiphertext.

Properties, over compiled policies and random programs of the class the
reconstruction walk decides (the decoder refuses any other), random payloads,
records with rows stripped by a revocation, and random tags and ciphertext
values: decode(encode(x)) == x; decoding is canonical (whatever decodes
re-encodes to exactly its input); truncated or single-byte-mutated input
raises only ValueError. The record decoder, which checks element bodies as
bytes and builds rows on read, accepts and rejects exactly what the eager
oracle in record_oracle.py does, in three groups. A size gate holds AND- and
OR-chains within the paper's size estimate plus a stated per-row framing
constant.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseal.abe import (
    AbeCiphertext,
    UserKeyring,
    abe_decrypt,
    abe_encrypt,
    issue_key,
    kdc_setup,
    revoke,
)
from gridseal.aggregation import AttributeTag, MeterPacket, packet_from_bytes, packet_to_bytes
from gridseal.harness.cost import estimate_comm_overhead
from gridseal.lsss import LsssProgram, compile_lsss, parse_policy
from gridseal.paillier import PaillierCiphertext, paillier_keygen
from gridseal.pairing import ctx_new
from gridseal.wire import encode_short_str, encode_uint
from record_oracle import oracle_from_bytes, oracle_to_bytes
from treegen import policy_trees, walkable_programs

Q = 2**61 - 1
ATTRS = [f"a{i}" for i in range(5)]
CTX = ctx_new(q=Q)
AUTHORITY = kdc_setup(CTX, "A", ATTRS, random.Random(1))
PROGRAMS = st.one_of(policy_trees().map(compile_lsss), walkable_programs(ATTRS))


# The 160-bit default order, 2^61 - 1 and a one-byte order, each with its authority
GROUPS = [(ctx, kdc_setup(ctx, "A", ATTRS, random.Random(1)))
          for ctx in (ctx_new(), ctx_new(q=251))] + [(CTX, AUTHORITY)]


@st.composite
def group_records(draw, groups=st.sampled_from(GROUPS)):
    """(context, record) in a drawn group, after a revocation when the drawn
    revoked set is nonempty."""
    ctx, authority = draw(groups)
    program = draw(PROGRAMS)
    revoked = draw(st.sets(st.sampled_from(ATTRS)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    payload = rng.randbytes(draw(st.integers(min_value=0, max_value=40)))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, payload, rng)
    if revoked:
        gone = UserKeyring("gone", {a: issue_key(authority, ctx, "gone", a) for a in revoked})
        ciphertext, _, _ = revoke(ctx, authority.shares, ciphertext, state, [gone], rng)
    return ctx, ciphertext


def records():
    """A record in the 2^61 - 1 group."""
    return group_records(st.just((CTX, AUTHORITY))).map(lambda pair: pair[1])


def _decodes_canonically_or_fails(decode, encode, blob: bytes) -> None:
    try:
        value = decode(blob)
    except ValueError:
        return
    assert encode(value) == blob


def _damaged(data, blob: bytes) -> bytes:
    """A strict prefix of blob, or blob with one byte changed."""
    if data.draw(st.booleans()):
        return blob[:data.draw(st.integers(min_value=0, max_value=len(blob) - 1))]
    position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    value = data.draw(st.integers(min_value=0, max_value=255).filter(lambda b: b != blob[position]))
    return blob[:position] + bytes([value]) + blob[position + 1:]


def _program_from_bytes(blob: bytes) -> LsssProgram:
    program, offset = LsssProgram.from_bytes(blob)
    if offset != len(blob):
        raise ValueError("trailing bytes")
    return program


# --- LsssProgram ---------------------------------------------------------------------

@given(program=PROGRAMS)
@settings(deadline=None, max_examples=80)
def test_program_round_trip(program):
    blob = program.to_bytes()
    assert LsssProgram.from_bytes(blob) == (program, len(blob))


@given(program=PROGRAMS, seed=st.integers(min_value=0))
@settings(deadline=None, max_examples=80)
def test_support_and_share_match_the_dense_rows(program, seed):
    rng = random.Random(seed)
    vector = [rng.randrange(Q) for _ in range(program.h)]
    for x, row in enumerate(program.rows):
        assert program.support[x] == tuple(c for c in range(program.h) if row[c])
        assert program.share(vector, x, Q) == sum(row[c] * vector[c]
                                                  for c in range(program.h)) % Q


@given(program=PROGRAMS, data=st.data())
@settings(deadline=None, max_examples=150)
def test_damaged_program_bytes_fail_or_decode_canonically(program, data):
    blob = program.to_bytes()
    _decodes_canonically_or_fails(_program_from_bytes, LsssProgram.to_bytes,
                                  _damaged(data, blob))


def _program_bytes(n, h, counts, entries, attrs=None):
    attrs = attrs if attrs is not None else [f"a{i}" for i in range(n)]
    return (struct.pack(f">II{len(counts)}I{len(entries)}i", n, h, *counts, *entries)
            + b"".join(struct.pack(">H", len(a)) + a.encode() for a in attrs))


@pytest.mark.parametrize("blob, message", [
    pytest.param(_program_bytes(0, 1, [], []), "empty", id="no-rows"),
    pytest.param(_program_bytes(1, 0, [0], []), "empty", id="no-columns"),
    pytest.param(_program_bytes(1, 2, [2], [2, 1]), "increasing", id="descending"),
    pytest.param(_program_bytes(1, 1, [2], [1, -1]), "increasing", id="repeated"),
    pytest.param(_program_bytes(1, 2, [2], [1, 3]), "cover", id="column-above-h"),
    pytest.param(_program_bytes(2, 2, [1, 1], [1, 0]), "cover", id="column-zero"),
    pytest.param(_program_bytes(2, 3, [1, 1], [1, 2]), "cover", id="unused-column"),
    pytest.param(_program_bytes(1, 1, [2], [1], []), "truncated", id="short-entries"),
    pytest.param(_program_bytes(1, 1, [1], [1])[:-1], "truncated", id="short-attribute"),
    pytest.param(struct.pack(">III", 2**30, 1, 1), "truncated", id="huge-n"),
    pytest.param(_program_bytes(2, 2, [2, 1], [1, 2, 2]), "start with", id="positive-later-start"),
    pytest.param(_program_bytes(2, 2, [2, 1], [1, -2, -2]), "start with",
                 id="negative-later-entry"),
    pytest.param(_program_bytes(2, 1, [1, 0], [1]), "start with", id="empty-row"),
    pytest.param(_program_bytes(3, 3, [2, 2, 1], [1, 3, -2, 3, -3]), "columns before",
                 id="later-column-after-two-prefixes"),
])
def test_program_decoder_rejects(blob, message):
    with pytest.raises(ValueError, match=message):
        LsssProgram.from_bytes(blob)


def test_program_decoder_accepts_hand_built_layout():
    # the compact conformance program, which shares one column between two ANDs
    rows = ((1, 1), (0, -1), (1, 1), (0, -1), (1, 0), (1, 0))
    blob = _program_bytes(6, 2, [2, 1, 2, 1, 1, 1], [1, 2, -2, 1, 2, -2, 1, 1], list("uvwxyz"))
    assert LsssProgram.from_bytes(blob) == (LsssProgram(rows, tuple("uvwxyz")), len(blob))


# --- AbeCiphertext -------------------------------------------------------------------

@given(record=records())
@settings(deadline=None, max_examples=80)
def test_ciphertext_round_trip(record):
    assert AbeCiphertext.from_bytes(record.to_bytes(CTX), CTX) == record


@given(record=records(), data=st.data())
@settings(deadline=None, max_examples=150)
def test_damaged_ciphertext_bytes_fail_or_decode_canonically(record, data):
    _decodes_canonically_or_fails(lambda b: AbeCiphertext.from_bytes(b, CTX),
                                  lambda c: c.to_bytes(CTX),
                                  _damaged(data, record.to_bytes(CTX)))


def _flag_offsets(ciphertext):
    """Offsets of the backend byte and of the first row's C1 flag."""
    backend_at = len(ciphertext.program.to_bytes())
    return backend_at, backend_at + 1 + CTX.backend.gt_bytes


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("value", [2, 0x80, 0xFF])
def test_ciphertext_decoder_rejects_unknown_flags(which, value):
    ciphertext, _ = abe_encrypt(CTX, AUTHORITY.shares, compile_lsss(parse_policy("a0 & a1")),
                                b"flags", random.Random(2))
    blob = bytearray(ciphertext.to_bytes(CTX))
    blob[_flag_offsets(ciphertext)[which]] = value
    with pytest.raises(ValueError, match="backend|flag"):
        AbeCiphertext.from_bytes(bytes(blob), CTX)


def _parts(record):
    """A record's parts, in the order the eager oracle returns them."""
    return record.program, record.c0, tuple(record.rows), record.kem_nonce, record.kem_body


def _decode_or_none(decode, blob, ctx):
    try:
        return decode(blob, ctx)
    except ValueError:
        return None


def _damaged_forms(blob: bytes, rng: random.Random):
    """Every strict prefix of blob, and per position up to three single-byte
    mutations: the low bit flipped, the high bit flipped and one other value
    drawn from rng."""
    for end in range(len(blob)):
        yield blob[:end]
    for position, byte in enumerate(blob):
        for value in {byte ^ 0x01, byte ^ 0x80, (byte + rng.randrange(1, 256)) % 256}:
            yield blob[:position] + bytes([value]) + blob[position + 1:]


@given(group_record=group_records(), seed=st.integers(min_value=0))
@settings(deadline=None, max_examples=40)
def test_decoder_accepts_and_rejects_what_the_eager_oracle_does(group_record, seed):
    ctx, record = group_record
    blob = record.to_bytes(ctx)
    assert AbeCiphertext.from_bytes(blob, ctx) == record
    assert _parts(record) == oracle_from_bytes(blob, ctx)
    assert oracle_to_bytes(_parts(record), ctx) == blob
    for damaged in _damaged_forms(blob, random.Random(seed)):
        expected = _decode_or_none(oracle_from_bytes, damaged, ctx)
        decoded = _decode_or_none(AbeCiphertext.from_bytes, damaged, ctx)
        assert (decoded is None) == (expected is None), damaged.hex()
        if expected is not None:
            assert _parts(decoded) == expected
            assert decoded.to_bytes(ctx) == oracle_to_bytes(expected, ctx) == damaged


def test_decoded_rows_compare_and_hash_as_their_tuple():
    ciphertext, state = abe_encrypt(CTX, AUTHORITY.shares,
                                    compile_lsss(parse_policy("a0 & a1 | a2")), b"rows",
                                    random.Random(4))
    gone = UserKeyring("gone", {"a2": issue_key(AUTHORITY, CTX, "gone", "a2")})
    stored, _, _ = revoke(CTX, AUTHORITY.shares, ciphertext, state, [gone], random.Random(5))
    blob = bytearray(stored.to_bytes(CTX))
    decoded = AbeCiphertext.from_bytes(blob, CTX)
    # the record holds its own copy: changing the caller's buffer changes no row
    blob[:] = bytes(len(blob))
    rows = decoded.rows
    assert hash(decoded) == hash(stored)
    assert len(rows) == 3 and list(rows) == list(stored.rows)
    assert rows[-1] == stored.rows[2]
    assert rows[2] == rows[2] and rows[2].c1 is None
    # revoking a2 strips its row and row 0, whose share moves with the secret
    assert list(decoded.c1_stored) == [0, 1, 0]
    assert list(stored.c1_stored) == [False, True, False]
    with pytest.raises(IndexError):
        rows[3]


@pytest.mark.parametrize("short", [1, 16, 28])
def test_ciphertext_decoder_rejects_a_kem_part_shorter_than_nonce_and_tag(short):
    ciphertext, _ = abe_encrypt(CTX, AUTHORITY.shares, compile_lsss(parse_policy("a0")),
                                b"", random.Random(3))
    blob = ciphertext.to_bytes(CTX)
    assert len(ciphertext.kem_nonce) + len(ciphertext.kem_body) == 12 + 16
    with pytest.raises(ValueError, match="nonce and tag"):
        AbeCiphertext.from_bytes(blob[:-short], CTX)


# --- MeterPacket and PaillierCiphertext ----------------------------------------------

PK, _ = paillier_keygen(128, rng=random.Random(5))
CIPHERTEXTS = st.integers(min_value=1, max_value=PK.modulus_squared - 1).filter(
    lambda v: math.gcd(v, PK.modulus) == 1).map(lambda v: PaillierCiphertext(v, PK.modulus))
TAGS = st.lists(st.text(alphabet="ab:.é ", min_size=1, max_size=5).map(str.strip).filter(bool),
                min_size=1, max_size=4, unique=True).map(AttributeTag)


@given(packet=st.builds(MeterPacket, TAGS, CIPHERTEXTS))
@settings(deadline=None, max_examples=80)
def test_packet_round_trip(packet):
    assert packet_from_bytes(packet_to_bytes(packet), PK) == packet


@given(packet=st.builds(MeterPacket, TAGS, CIPHERTEXTS), data=st.data())
@settings(deadline=None, max_examples=150)
def test_damaged_packet_bytes_fail_or_decode_canonically(packet, data):
    _decodes_canonically_or_fails(lambda b: packet_from_bytes(b, PK), packet_to_bytes,
                                  _damaged(data, packet_to_bytes(packet)))


@given(ciphertext=CIPHERTEXTS)
@settings(deadline=None, max_examples=80)
def test_paillier_ciphertext_round_trip(ciphertext):
    assert PaillierCiphertext.from_bytes(ciphertext.to_bytes(), PK) == ciphertext


@given(ciphertext=CIPHERTEXTS, data=st.data())
@settings(deadline=None, max_examples=150)
def test_damaged_paillier_ciphertext_bytes_fail_or_decode_canonically(ciphertext, data):
    _decodes_canonically_or_fails(lambda b: PaillierCiphertext.from_bytes(b, PK),
                                  PaillierCiphertext.to_bytes,
                                  _damaged(data, ciphertext.to_bytes()))


def _packet_bytes(attributes, body):
    return (len(attributes).to_bytes(2, "big") + b"".join(map(encode_short_str, attributes))
            + struct.pack(">I", len(body)) + body)


@pytest.mark.parametrize("blob, message", [
    pytest.param(_packet_bytes(["b", "a"], b"\x05"), "sorted", id="unsorted-tag"),
    pytest.param(_packet_bytes([" a"], b"\x05"), "trimmed", id="padded-tag"),
    pytest.param(_packet_bytes(["a", "a"], b"\x05"), "duplicate", id="repeated-tag"),
    pytest.param(_packet_bytes([], b"\x05"), "at least one", id="empty-tag"),
    pytest.param(_packet_bytes(["a"], b"\x00\x05"), "leading zero", id="padded-value"),
])
def test_packet_decoder_rejects(blob, message):
    with pytest.raises(ValueError, match=message):
        packet_from_bytes(blob, PK)


def test_paillier_ciphertext_decoder_rejects_a_leading_zero_byte():
    with pytest.raises(ValueError, match="leading zero"):
        PaillierCiphertext.from_bytes(b"\x00\x00\x00\x02\x00\x05", PK)


def test_a_negative_wire_integer_is_refused():
    # to_bytes would raise OverflowError, which callers do not expect
    with pytest.raises(ValueError, match="non-negative"):
        encode_uint(-1)


def test_a_short_string_over_65535_bytes_is_refused():
    assert encode_short_str("a" * 0xFFFF)[:2] == b"\xff\xff"
    # the limit counts UTF-8 bytes: 32,768 two-byte characters are 65,536 bytes
    for text in ("a" * 0x10000, "\u00e9" * 0x8000):
        with pytest.raises(ValueError, match="too long"):
            encode_short_str(text)


# --- size gate -----------------------------------------------------------------------

# Per-row bytes the wire carries beyond estimate_comm_overhead's per-row term:
# the C1 flag (1), the 4-byte nonzero count (4), two 4-byte matrix entries (8,
# the average in an AND-chain) and the attribute's 2-byte length (2) make 15
# bytes; the attribute names here fit in the rest. Elements are bare
# fixed-width bodies, so they add nothing. The 116 bytes cover the program
# header, the backend byte, C0 and the KEM nonce and tag, which carry no
# length prefixes.
ROW_FRAMING_BYTES = 17
RECORD_FRAMING_BYTES = 116


@pytest.mark.parametrize("m", [1, 50, 400])
@pytest.mark.parametrize("op", ["&", "|"])
def test_record_size_stays_within_the_estimate(op, m):
    ctx = ctx_new()
    rng = random.Random(m)
    attrs = [f"a{i}" for i in range(m)]
    authority = kdc_setup(ctx, "A", attrs, rng)
    program = compile_lsss(parse_policy(f" {op} ".join(attrs)))
    payload = b"metered load profile"
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, payload, rng)
    blob = ciphertext.to_bytes(ctx)
    estimate_bytes = estimate_comm_overhead(m, ctx.q.bit_length(), ctx.q.bit_length(), max(m, 2),
                                            8 * len(payload)) / 8
    assert len(blob) <= estimate_bytes + ROW_FRAMING_BYTES * m + RECORD_FRAMING_BYTES
    restored = AbeCiphertext.from_bytes(blob, ctx)
    assert restored == ciphertext
    reader = UserKeyring("reader", {a: issue_key(authority, ctx, "reader", a) for a in attrs})
    assert abe_decrypt(ctx, reader, restored) == payload
