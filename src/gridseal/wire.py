"""Byte framing shared by the serializers: big-endian magnitudes, explicit length prefixes."""

from __future__ import annotations

import struct


def encode_uint(value: int) -> bytes:
    """4-byte big-endian length, then the big-endian magnitude (no sign byte)."""
    if value < 0:
        raise ValueError("wire integers are non-negative")
    body = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    return struct.pack(">I", len(body)) + body


def decode_uint(data: bytes) -> tuple[int, int]:
    """Return (value, end) of the integer at the start of data; raises ValueError
    on truncation and on a leading zero body byte, so each value has exactly one encoding."""
    if len(data) < 4:
        raise ValueError("truncated length prefix")
    (length,) = struct.unpack_from(">I", data)
    end = 4 + length
    if end > len(data):
        raise ValueError("truncated integer body")
    if length and data[4] == 0:
        raise ValueError("integer body has a leading zero byte")
    return int.from_bytes(data[4:end], "big"), end


def encode_short_str(text: str) -> bytes:
    """2-byte big-endian length + UTF-8 bytes; used for attribute identifiers."""
    body = text.encode("utf-8")
    if len(body) > 0xFFFF:
        raise ValueError("string too long for 2-byte framing")
    return struct.pack(">H", len(body)) + body


def decode_short_str(data: bytes, offset: int = 0) -> tuple[str, int]:
    if offset + 2 > len(data):
        raise ValueError("truncated string length")
    (length,) = struct.unpack_from(">H", data, offset)
    offset += 2
    if offset + length > len(data):
        raise ValueError("truncated string body")
    return data[offset:offset + length].decode("utf-8"), offset + length
