"""The eager record decoder: the oracle for AbeCiphertext.from_bytes.

It walks a record in wire order and decodes every element as it reaches it,
through the backend's element decoders, so a body is judged by building its
element; every row is built before it returns. It returns the record's parts,
(program, C0, the tuple of rows, KEM nonce, KEM body), for comparison with
those of a decoded record. Its encoder writes parts element by element, so
a decode is canonical when encoding its parts gives back its input.
"""

from gridseal.abe import CiphertextRow
from gridseal.lsss import LsssProgram
from gridseal.pairing import PairingContext

_KEM_NONCE_BYTES = 12
_KEM_TAG_BYTES = 16


def oracle_to_bytes(parts: tuple, ctx: PairingContext) -> bytes:
    """The wire bytes of a record's parts, each element encoded in turn."""
    program, c0, rows, nonce, body = parts
    encode = ctx.backend.element_bytes
    out = [program.to_bytes(), bytes([ctx.backend.wire_id]), encode(c0)]
    for row in rows:
        out += [b"\x00"] if row.c1 is None else [b"\x01", encode(row.c1)]
        out += [encode(row.c2), encode(row.c3)]
    return b"".join(out + [nonce, body])


def _element(data: bytes, offset: int, width: int, decode) -> tuple:
    """The element in data[offset:offset + width], and the offset after it."""
    end = offset + width
    if end > len(data):
        raise ValueError("truncated element")
    return decode(data[offset:end]), end


def oracle_from_bytes(data: bytes, ctx: PairingContext) -> tuple:
    """The parts of the record data encodes; anything to_bytes would not emit
    raises ValueError."""
    program, offset = LsssProgram.from_bytes(data)
    if offset >= len(data):
        raise ValueError("truncated ciphertext")
    if data[offset] != ctx.backend.wire_id:
        raise ValueError("record from another backend")
    backend = ctx.backend
    g = (backend.g_bytes, backend.element_g_from_bytes)
    gt = (backend.gt_bytes, backend.element_gt_from_bytes)
    c0, offset = _element(data, offset + 1, *gt)
    rows = []
    for _ in range(program.n):
        if offset >= len(data):
            raise ValueError("truncated ciphertext row")
        flag = data[offset]
        if flag > 1:
            raise ValueError("unknown row flag")
        c1 = None
        offset += 1
        if flag:
            c1, offset = _element(data, offset, *gt)
        c2, offset = _element(data, offset, *g)
        c3, offset = _element(data, offset, *g)
        rows.append(CiphertextRow(c1, c2, c3))
    if len(data) - offset < _KEM_NONCE_BYTES + _KEM_TAG_BYTES:
        raise ValueError("the KEM part is shorter than its nonce and tag")
    nonce_end = offset + _KEM_NONCE_BYTES
    return program, c0, tuple(rows), data[offset:nonce_end], data[nonce_end:]
