"""Attribute-tagged packets and the meter-to-substation aggregation pipeline.

Leaf gateways encrypt readings under the substation's public key; every
gateway above them multiplies ciphertexts that carry the same attribute tag,
so only the substation terminal holding the secret key ever sees a plaintext,
and what it sees is already a per-tag sum. Gateways touch public material
only. Grouping is exact tag-set equality; tags canonicalize (trim, sort) so
equal sets compare equal byte-wise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .paillier import (
    PaillierCiphertext,
    PaillierPublicKey,
    PaillierSecretKey,
    paillier_add,
    paillier_decrypt,
    paillier_encrypt,
)
from .wire import decode_short_str, encode_short_str

ROLES = ("HAN", "BAN", "NAN")


@dataclass(frozen=True, order=True)
class AttributeTag:
    attributes: tuple[str, ...]

    def __init__(self, attributes: Iterable[str]):
        cleaned = [a.strip() for a in attributes]
        if not cleaned:
            raise ValueError("tag needs at least one attribute")
        if any(not a for a in cleaned):
            raise ValueError("empty attribute identifier")
        if len(set(cleaned)) != len(cleaned):
            raise ValueError("duplicate attribute in tag")
        object.__setattr__(self, "attributes", tuple(sorted(cleaned)))


@dataclass(frozen=True)
class MeterPacket:
    tag: AttributeTag
    ciphertext: PaillierCiphertext


@dataclass(frozen=True)
class TopologyNode:
    node_id: str
    role: str
    parent: str | None


class AggregationTopology:
    """Rooted gateway tree: HAN leaves, BAN tiers, a single NAN root."""

    def __init__(self, nodes: Sequence[TopologyNode]):
        by_id: dict[str, TopologyNode] = {}
        for node in nodes:
            if node.role not in ROLES:
                raise ValueError(f"node {node.node_id!r}: unknown role {node.role!r}")
            if node.node_id in by_id:
                raise ValueError(f"duplicate node id {node.node_id!r}")
            by_id[node.node_id] = node
        roots = [n for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise ValueError("topology needs exactly one root")
        root = roots[0]
        if root.role != "NAN":
            raise ValueError("root must have role NAN")
        children: dict[str, list[str]] = {n.node_id: [] for n in nodes}
        for node in nodes:
            if node.parent is None:
                continue
            if node.parent not in by_id:
                raise ValueError(f"node {node.node_id!r}: unknown parent {node.parent!r}")
            children[node.parent].append(node.node_id)
        # Reach the whole tree from the root; each node sits in one parent's child
        # list, so none is met twice. Anything left over hangs in a cycle.
        seen: set[str] = set()
        stack = [root.node_id]
        while stack:
            current = stack.pop()
            seen.add(current)
            stack.extend(children[current])
        if seen != set(by_id):
            raise ValueError("topology is not a single tree")
        for node in nodes:
            if node.role == "NAN" and node.parent is not None:
                raise ValueError(f"node {node.node_id!r}: NAN must be the root")
            if node.role == "HAN":
                if children[node.node_id]:
                    raise ValueError(f"node {node.node_id!r}: HAN gateways are leaves")
                if by_id[node.parent].role != "BAN":
                    raise ValueError(f"node {node.node_id!r}: HAN must report to a BAN")
            if node.role == "BAN":
                if node.parent is not None and by_id[node.parent].role == "HAN":
                    raise ValueError(f"node {node.node_id!r}: BAN cannot report to a HAN")
                if not children[node.node_id]:
                    raise ValueError(f"node {node.node_id!r}: BAN without children")
        self.nodes = {n.node_id: n for n in nodes}
        self.children = children
        self.root = root.node_id

    def leaves(self) -> list[str]:
        return [nid for nid, node in self.nodes.items() if node.role == "HAN"]


def make_packet(
    pk: PaillierPublicKey,
    tag: AttributeTag,
    reading: int,
    rng: random.Random | None = None,
) -> MeterPacket:
    """Encrypt one non-negative watt-hour reading under the substation key."""
    if reading < 0:
        raise ValueError("reading must be non-negative")
    return MeterPacket(tag, paillier_encrypt(pk, reading, rng=rng))


def gateway_aggregate(
    packets: Iterable[MeterPacket],
    pk: PaillierPublicKey,
) -> list[MeterPacket]:
    """One output packet per distinct tag, ciphertexts folded by modular product.

    Output is ordered by canonical tag order; tags seen once pass through as
    the single-element product. Requires all inputs under the same modulus.
    """
    grouped: dict[AttributeTag, PaillierCiphertext] = {}
    for packet in packets:
        if packet.ciphertext.modulus != pk.modulus:
            raise ValueError("packet under a different modulus")
        held = grouped.get(packet.tag)
        grouped[packet.tag] = packet.ciphertext if held is None else paillier_add(pk, held, packet.ciphertext)
    return [MeterPacket(tag, grouped[tag]) for tag in sorted(grouped)]


def run_pipeline(
    topology: AggregationTopology,
    readings: Mapping[str, tuple[AttributeTag, int]],
    pk: PaillierPublicKey,
    rng: random.Random | None = None,
) -> list[MeterPacket]:
    """Fold gateway aggregation from the HAN leaves up to the NAN root.

    Sibling subtrees are independent (the fold is a commutative product), so
    any evaluation order gives identical packets. An explicit post-order stack
    folds a tree of any depth; meters encrypt depth first, in children order.
    """
    leaf_ids = set(topology.leaves())
    for node_id in readings:
        if node_id not in topology.nodes:
            raise ValueError(f"reading for unknown node {node_id!r}")
        if node_id not in leaf_ids:
            raise ValueError(f"reading attached to non-HAN node {node_id!r}")

    packets: dict[str, list[MeterPacket]] = {}
    stack = [(topology.root, False)]
    while stack:
        node_id, folding = stack.pop()
        children = topology.children[node_id]
        if folding:
            packets[node_id] = gateway_aggregate(
                [p for child in children for p in packets.pop(child)], pk)
        elif children:
            stack += [(node_id, True)] + [(child, False) for child in reversed(children)]
        else:  # a HAN leaf, or a NAN root alone
            reading = readings.get(node_id)
            packets[node_id] = [] if reading is None else [make_packet(pk, *reading, rng)]
    return packets[topology.root]


def rtu_open(
    sk: PaillierSecretKey,
    pk: PaillierPublicKey,
    packet: MeterPacket,
) -> tuple[AttributeTag, int]:
    """Substation-side decryption of an aggregated packet."""
    return packet.tag, paillier_decrypt(sk, pk, packet.ciphertext)


def packet_to_bytes(packet: MeterPacket) -> bytes:
    """Transport framing: 2-byte attribute count, per-attribute short strings, enc(c)."""
    count = len(packet.tag.attributes)
    out = count.to_bytes(2, "big")
    for attribute in packet.tag.attributes:
        out += encode_short_str(attribute)
    return out + packet.ciphertext.to_bytes()


def packet_from_bytes(data: bytes, pk: PaillierPublicKey) -> MeterPacket:
    """Strict inverse of packet_to_bytes: the tag attributes must already be
    in canonical form (trimmed, sorted, distinct), so whatever decodes
    re-encodes to the same bytes."""
    if len(data) < 2:
        raise ValueError("truncated packet")
    count = int.from_bytes(data[:2], "big")
    offset = 2
    attributes = []
    for _ in range(count):
        attribute, offset = decode_short_str(data, offset)
        attributes.append(attribute)
    tag = AttributeTag(attributes)
    if tag.attributes != tuple(attributes):
        raise ValueError("tag attributes must be trimmed and sorted")
    return MeterPacket(tag, PaillierCiphertext.from_bytes(data[offset:], pk))
