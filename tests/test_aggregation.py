import inspect
import random

import pytest

from gridseal.aggregation import (
    AggregationTopology,
    AttributeTag,
    MeterPacket,
    TopologyNode,
    gateway_aggregate,
    make_packet,
    packet_from_bytes,
    packet_to_bytes,
    rtu_open,
    run_pipeline,
)
from gridseal.paillier import paillier_encrypt, paillier_keygen


@pytest.fixture(scope="module")
def keys():
    return paillier_keygen(160, rng=random.Random(2024))


def node(node_id, role, parent=None):
    return TopologyNode(node_id, role, parent)


def fig2_topology():
    return AggregationTopology([
        node("nan", "NAN"),
        node("ban1", "BAN", "nan"), node("ban2", "BAN", "nan"),
        node("h1", "HAN", "ban1"), node("h2", "HAN", "ban1"),
        node("h3", "HAN", "ban2"), node("h4", "HAN", "ban2"), node("h5", "HAN", "ban2"),
    ])


# --- tags ---------------------------------------------------------------------

def test_tag_canonicalization():
    assert AttributeTag(["b", " a "]).attributes == ("a", "b")
    assert AttributeTag(["b", "a"]) == AttributeTag(["a", "b"])


def test_tag_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        AttributeTag([])
    with pytest.raises(ValueError):
        AttributeTag(["a", "a"])
    with pytest.raises(ValueError):
        AttributeTag(["a", "  "])


def test_tag_ordering_is_canonical():
    tags = [AttributeTag(["z"]), AttributeTag(["a", "z"]), AttributeTag(["a"])]
    assert sorted(tags) == [AttributeTag(["a"]), AttributeTag(["a", "z"]), AttributeTag(["z"])]


# --- packets --------------------------------------------------------------------

def test_packet_round_trip(keys):
    pk, sk = keys
    packet = make_packet(pk, AttributeTag(["residential", "fossil"]), 1500,
                         random.Random(1))
    tag, value = rtu_open(sk, pk, packet)
    assert value == 1500
    assert tag.attributes == ("fossil", "residential")


def test_zero_reading(keys):
    pk, sk = keys
    packet = make_packet(pk, AttributeTag(["x"]), 0, random.Random(2))
    assert rtu_open(sk, pk, packet)[1] == 0


def test_reading_range(keys):
    pk, _ = keys
    with pytest.raises(ValueError):
        make_packet(pk, AttributeTag(["x"]), -5, random.Random(3))
    with pytest.raises(ValueError):
        make_packet(pk, AttributeTag(["x"]), pk.modulus, random.Random(3))


def test_packet_framing_round_trip(keys):
    pk, _ = keys
    packet = make_packet(pk, AttributeTag(["b", "a"]), 77, random.Random(4))
    blob = packet_to_bytes(packet)
    assert blob[:2] == b"\x00\x02"  # two attributes
    assert packet_from_bytes(blob, pk) == packet
    with pytest.raises(ValueError):
        packet_from_bytes(blob + b"\x00", pk)


# --- gateway aggregation ----------------------------------------------------------

def test_two_meter_aggregate_decrypts_to_sum(keys):
    pk, sk = keys
    rng = random.Random(5)
    tag = AttributeTag(["shared"])
    packets = [make_packet(pk, tag, 120, rng), make_packet(pk, tag, 45, rng)]
    merged = gateway_aggregate(packets, pk)
    assert len(merged) == 1
    assert rtu_open(sk, pk, merged[0]) == (tag, 165)


def test_no_cross_tag_mixing(keys):
    pk, sk = keys
    rng = random.Random(6)
    solar, fossil = AttributeTag(["solar"]), AttributeTag(["fossil"])
    merged = gateway_aggregate([
        make_packet(pk, solar, 10, rng),
        make_packet(pk, fossil, 20, rng),
        make_packet(pk, solar, 30, rng),
    ], pk)
    assert [p.tag for p in merged] == sorted([solar, fossil])
    sums = {p.tag: rtu_open(sk, pk, p)[1] for p in merged}
    assert sums == {solar: 40, fossil: 20}


def test_empty_input_empty_output(keys):
    assert gateway_aggregate([], keys[0]) == []


def test_modulus_mismatch_rejected(keys):
    pk, _ = keys
    other_pk, _ = paillier_keygen(q1=5, q2=7)
    foreign = MeterPacket(AttributeTag(["x"]), paillier_encrypt(other_pk, 1, r=2))
    with pytest.raises(ValueError):
        gateway_aggregate([foreign], pk)


def test_order_independence(keys):
    pk, sk = keys
    rng = random.Random(7)
    tag = AttributeTag(["t"])
    packets = [make_packet(pk, tag, v, rng) for v in (1, 2, 3, 4, 5)]
    forward = gateway_aggregate(packets, pk)
    shuffled = packets[:]
    random.Random(8).shuffle(shuffled)
    regrouped = gateway_aggregate(
        gateway_aggregate(shuffled[:2], pk) + gateway_aggregate(shuffled[2:], pk), pk)
    assert rtu_open(sk, pk, forward[0])[1] == rtu_open(sk, pk, regrouped[0])[1] == 15


# --- pipeline ------------------------------------------------------------------

def test_fig2_pipeline(keys):
    pk, sk = keys
    tag = AttributeTag(["household"])
    readings = {f"h{i}": (tag, value)
                for i, value in zip(range(1, 6), (1210, 830, 560, 1975, 402))}
    packets = run_pipeline(fig2_topology(), readings, pk, random.Random(9))
    assert len(packets) == 1
    assert rtu_open(sk, pk, packets[0]) == (tag, 4977)


def test_single_meter_identity(keys):
    pk, sk = keys
    topology = AggregationTopology([
        node("nan", "NAN"), node("ban", "BAN", "nan"), node("h", "HAN", "ban")])
    packets = run_pipeline(topology, {"h": (AttributeTag(["v"]), 123)}, pk,
                           random.Random(10))
    assert rtu_open(sk, pk, packets[0])[1] == 123


def test_random_three_level_tree_against_plaintext_oracle(keys):
    pk, sk = keys
    rng = random.Random(11)
    nodes = [node("nan", "NAN")]
    bans = [f"ban{i}" for i in range(4)]
    nodes += [node(b, "BAN", "nan") for b in bans]
    readings = {}
    tags = [AttributeTag(["solar"]), AttributeTag(["fossil"])]
    oracle: dict[AttributeTag, int] = {}
    for i in range(50):
        han = f"h{i}"
        nodes.append(node(han, "HAN", rng.choice(bans)))
        tag = rng.choice(tags)
        value = rng.randrange(10**6)
        readings[han] = (tag, value)
        oracle[tag] = oracle.get(tag, 0) + value
    packets = run_pipeline(AggregationTopology(nodes), readings, pk, rng)
    decrypted = dict(rtu_open(sk, pk, p) for p in packets)
    assert decrypted == oracle
    assert sum(decrypted.values()) == sum(v for _, v in readings.values())


def test_readings_must_sit_on_han_leaves(keys):
    pk, _ = keys
    topology = fig2_topology()
    with pytest.raises(ValueError):
        run_pipeline(topology, {"ban1": (AttributeTag(["x"]), 1)}, pk, random.Random(1))
    with pytest.raises(ValueError):
        run_pipeline(topology, {"ghost": (AttributeTag(["x"]), 1)}, pk, random.Random(1))


# --- topology validation -----------------------------------------------------------

def test_topology_rejects_two_roots():
    with pytest.raises(ValueError):
        AggregationTopology([node("n1", "NAN"), node("n2", "NAN")])


def test_topology_rejects_non_nan_root():
    with pytest.raises(ValueError):
        AggregationTopology([node("b", "BAN")])


def test_topology_rejects_cycles_and_orphans():
    # a loop hangs from no root, so the walk from the root never reaches it
    with pytest.raises(ValueError, match="^topology is not a single tree$"):
        AggregationTopology([
            node("nan", "NAN"), node("b1", "BAN", "b2"), node("b2", "BAN", "b1")])
    with pytest.raises(ValueError, match="^topology is not a single tree$"):
        AggregationTopology([node("nan", "NAN"), node("b", "BAN", "b")])


def test_topology_rejects_duplicate_ids_and_unknown_parents():
    with pytest.raises(ValueError, match="^duplicate node id 'b'$"):
        AggregationTopology([
            node("nan", "NAN"), node("b", "BAN", "nan"), node("b", "HAN", "nan")])
    with pytest.raises(ValueError, match="^node 'h': unknown parent 'b2'$"):
        AggregationTopology([
            node("nan", "NAN"), node("b", "BAN", "nan"), node("h", "HAN", "b2")])


def test_topology_role_ordering():
    with pytest.raises(ValueError, match="^node 'h': HAN must report to a BAN$"):
        AggregationTopology([
            node("nan", "NAN"), node("h", "HAN", "nan")])  # HAN under NAN
    with pytest.raises(ValueError, match="^node 'h': HAN gateways are leaves$"):
        AggregationTopology([
            node("nan", "NAN"), node("b", "BAN", "nan"),
            node("h", "HAN", "b"), node("b2", "BAN", "h")])  # BAN under HAN, HAN first
    with pytest.raises(ValueError, match="^node 'b2': BAN cannot report to a HAN$"):
        AggregationTopology([
            node("nan", "NAN"), node("b", "BAN", "nan"),
            node("b2", "BAN", "h"), node("h", "HAN", "b")])  # BAN under HAN, BAN first
    with pytest.raises(ValueError, match="^node 'b': BAN without children$"):
        AggregationTopology([
            node("nan", "NAN"), node("b", "BAN", "nan")])  # childless BAN
    with pytest.raises(ValueError, match="^node 'n2': NAN must be the root$"):
        AggregationTopology([
            node("nan", "NAN"), node("b", "BAN", "nan"), node("h", "HAN", "b"),
            node("n2", "NAN", "b")])  # NAN with a parent


def test_multi_tier_ban_chain_allowed(keys):
    pk, sk = keys
    topology = AggregationTopology([
        node("nan", "NAN"), node("b1", "BAN", "nan"), node("b2", "BAN", "b1"),
        node("h", "HAN", "b2")])
    packets = run_pipeline(topology, {"h": (AttributeTag(["x"]), 9)}, pk,
                           random.Random(12))
    assert rtu_open(sk, pk, packets[0])[1] == 9


def test_a_2000_tier_gateway_chain_folds(keys):
    pk, sk = keys
    nodes, parent = [node("nan", "NAN")], "nan"
    for i in range(2000):
        nodes.append(node(f"b{i}", "BAN", parent))
        parent = f"b{i}"
    nodes.append(node("deep", "HAN", parent))
    nodes += [node(f"h{i}", "HAN", f"b{i}") for i in (0, 999, 1998)]
    tag = AttributeTag(["x"])
    readings = {"deep": (tag, 5), "h0": (tag, 7), "h999": (tag, 11), "h1998": (tag, 13)}
    packets = run_pipeline(AggregationTopology(nodes), readings, pk, random.Random(13))
    assert [rtu_open(sk, pk, p) for p in packets] == [(tag, 36)]


def _recursive_fold(topology, readings, pk, rng, node_id):
    """A recursive walk over the tree: the oracle for the order meters encrypt in."""
    if topology.nodes[node_id].role == "HAN":
        return [make_packet(pk, *readings[node_id], rng)] if node_id in readings else []
    return gateway_aggregate([p for child in topology.children[node_id]
                              for p in _recursive_fold(topology, readings, pk, rng, child)], pk)


def test_meters_encrypt_in_depth_first_order(keys):
    pk, _ = keys
    rng = random.Random(14)
    nodes, gateways = [node("nan", "NAN")], ["nan"]
    for i in range(12):
        nodes.append(node(f"b{i}", "BAN", rng.choice(gateways)))
        gateways.append(f"b{i}")
    readings = {}
    for i in range(40):
        nodes.append(node(f"h{i}", "HAN", f"b{i % 12}"))
        if rng.random() < 0.8:
            readings[f"h{i}"] = (AttributeTag([rng.choice("xyz")]), rng.randrange(1000))
    topology = AggregationTopology(nodes)
    assert (run_pipeline(topology, readings, pk, random.Random(15))
            == _recursive_fold(topology, readings, pk, random.Random(15), "nan"))


# --- gateway opacity -----------------------------------------------------------------

def test_gateway_api_never_touches_secret_keys():
    for fn in (gateway_aggregate, run_pipeline, make_packet):
        parameters = inspect.signature(fn).parameters
        assert "sk" not in parameters
        assert all("secret" not in name for name in parameters)
