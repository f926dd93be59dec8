"""The eager record decoder: the oracle for AbeCiphertext.from_bytes.

It walks a record in wire order and decodes every element as it reaches it,
through the context's element decoders, so a body is judged by building its
element; every row is built before it returns.
"""

from gridseal.abe import AbeCiphertext, CiphertextRow
from gridseal.lsss import LsssProgram
from gridseal.pairing import PairingContext

_KEM_NONCE_BYTES = 12


def oracle_from_bytes(data: bytes, ctx: PairingContext) -> AbeCiphertext:
    """Strict inverse of to_bytes: anything it would not emit raises ValueError."""
    program, offset = LsssProgram.from_bytes(data)
    if offset >= len(data):
        raise ValueError("truncated ciphertext")
    if data[offset] != ctx.backend.wire_id:
        raise ValueError("record from another backend")
    c0, offset = ctx.element_gt_from_bytes(data, offset + 1)
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
            c1, offset = ctx.element_gt_from_bytes(data, offset)
        c2, offset = ctx.element_g_from_bytes(data, offset)
        c3, offset = ctx.element_g_from_bytes(data, offset)
        rows.append(CiphertextRow(c1, c2, c3))
    nonce_end = offset + _KEM_NONCE_BYTES
    return AbeCiphertext(program, c0, tuple(rows), data[offset:nonce_end], data[nonce_end:])
