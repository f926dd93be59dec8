"""Seeded input generators and the plain-Python oracles that check answers.

Nothing here imports gridseal: the trees, policies and expected answers are
built from the workload seed alone, so the program under test only ever sees
generated inputs, and every check is made against code it does not share.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict


def derive(seed: int, *labels) -> int:
    """A 64-bit sub-seed that depends only on the seed and the labels."""
    text = repr((seed,) + labels).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(derive(seed, *labels))


def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one from each of k equal-width strata, shuffled.

    Blocks built this way cover the whole size range, so a run's quantiles do
    not hinge on which sizes the seed happened to draw.
    """
    span = hi - lo + 1
    values = [lo + int((i + rng.random()) * span / k) for i in range(k)]
    rng.shuffle(values)
    return values


def balanced(rng: random.Random, items: list, k: int) -> list:
    """k picks that use every item as evenly as k allows, in shuffled order."""
    pool = list(items)
    rng.shuffle(pool)
    picks = [pool[i % len(pool)] for i in range(k)]
    rng.shuffle(picks)
    return picks


# -- aggregation rounds --------------------------------------------------------

_TAG_ATTRIBUTES = ("source:fossil", "source:solar", "source:hydro", "source:wind",
                   "consumer:individual", "consumer:corporate", "consumer:phev",
                   "load:high", "load:low", "location:city", "location:region")

METER_RANGE = (4, 16)
MAX_TAGS = 8
MAX_BAN_TIERS = 3
READING_LIMIT = 10 ** 6


def feeder_round(rng: random.Random, meters: int, tag_share: float) -> dict:
    """One HAN/BAN/NAN tree with readings.

    Returns nodes as (id, role, parent) in parent-before-child order, the
    per-meter (tag attributes, reading) and the expected per-tag sums.
    """
    tags_wanted = 1 + int(tag_share * min(meters, MAX_TAGS))
    tags: list[tuple[str, ...]] = []
    while len(tags) < tags_wanted:
        size = rng.randint(1, 3)
        tag = tuple(sorted(rng.sample(_TAG_ATTRIBUTES, size)))
        if tag not in tags:
            tags.append(tag)

    nodes = [("nan", "NAN", None)]
    tiers = rng.randint(1, MAX_BAN_TIERS)
    # Widths shrink towards the root so every BAN keeps at least one child.
    widths = [rng.randint(1, min(4, meters))]
    for _ in range(tiers - 1):
        widths.insert(0, rng.randint(1, widths[0]))
    parents = ["nan"]
    for depth, width in enumerate(widths):
        tier = [f"ban{depth}_{i}" for i in range(width)]
        owners = _cover(rng, parents, len(tier))
        nodes.extend((node, "BAN", owner) for node, owner in zip(tier, owners))
        parents = tier
    meter_ids = [f"han{i:02d}" for i in range(meters)]
    nodes.extend((m, "HAN", owner) for m, owner in zip(meter_ids, _cover(rng, parents, meters)))

    tag_of = _cover(rng, tags, meters)
    readings = {m: (tag, rng.randrange(READING_LIMIT)) for m, tag in zip(meter_ids, tag_of)}
    expected: dict[tuple[str, ...], int] = defaultdict(int)
    for tag, value in readings.values():
        expected[tag] += value
    return {"nodes": nodes, "readings": readings, "expected": dict(expected)}


def _cover(rng: random.Random, owners: list, count: int) -> list:
    """Assign count children to owners so that every owner gets at least one."""
    picks = list(owners) + [rng.choice(owners) for _ in range(count - len(owners))]
    rng.shuffle(picks)
    return picks


# -- policies and the record store ----------------------------------------------

def universe(size: int, kdcs: int) -> dict[str, list[str]]:
    """Attribute identifiers split into contiguous slices, one per authority."""
    per = size // kdcs
    return {f"kdc{k}": [f"k{k}:a{i:03d}" for i in range(k * per, (k + 1) * per)]
            for k in range(kdcs)}


def random_formula(rng: random.Random, leaves: list[str], p_and: float):
    """A random monotone formula over the given leaves (a leaf is a string;
    a gate is ("and" | "or", [children])). Splits stay balanced so the
    rendered policy nests only O(log n) parentheses deep."""
    if len(leaves) == 1:
        return leaves[0]
    n = len(leaves)
    cut = rng.randint(max(1, n // 4), max(1, (3 * n) // 4))
    op = "and" if rng.random() < p_and else "or"
    return (op, [random_formula(rng, leaves[:cut], p_and),
                 random_formula(rng, leaves[cut:], p_and)])


def render(formula, parent: str | None = None) -> str:
    """Policy text; same-op chains stay flat, an OR under an AND is bracketed."""
    if isinstance(formula, str):
        return formula
    op, children = formula
    joiner = " & " if op == "and" else " | "
    text = joiner.join(render(child, op) for child in children)
    return f"({text})" if parent == "and" and op == "or" else text


def satisfies(formula, held: set[str]) -> bool:
    if isinstance(formula, str):
        return formula in held
    op, children = formula
    if op == "and":
        return all(satisfies(child, held) for child in children)
    return any(satisfies(child, held) for child in children)


def count_and_gates(formula) -> int:
    if isinstance(formula, str):
        return 0
    op, children = formula
    return (op == "and") + sum(count_and_gates(child) for child in children)


def policy_leaves(rng: random.Random, n: int, audience: list[str], every: list[str],
                  from_audience: float) -> list[str]:
    """n leaf attributes, each drawn from the audience's attributes with the
    given probability and from the whole universe otherwise; repeats allowed."""
    return [rng.choice(audience) if rng.random() < from_audience else rng.choice(every)
            for _ in range(n)]


# -- bundled scenarios -----------------------------------------------------------

def scenario_expectations(document: dict) -> dict:
    """Expected aggregation sums and access outcomes, read off the scenario text."""
    sums: dict[tuple[str, ...], int] = defaultdict(int)
    topology = document.get("topology") or {}
    for reading in topology.get("readings", []):
        sums[tuple(sorted(a.strip() for a in reading["tag"]))] += reading["value"]

    held = {u["id"]: set(u.get("attributes", [])) for u in document.get("users", []) or []}
    records = {r["id"]: r for r in document.get("records", []) or []}

    def outcomes(revoked: set[str]) -> list[tuple[str, str, str | None]]:
        out = []
        for attempt in document.get("attempts", []) or []:
            record = records[attempt["record"]]
            granted = (attempt["user"] not in revoked
                       and satisfies(parse_text(record["policy"]), held[attempt["user"]]))
            out.append((attempt["user"], attempt["record"],
                        record["payload"] if granted else None))
        return out

    revoked: set[str] = set()
    for entry in document.get("revocations", []) or []:
        revoked.update(entry["revoke"])
    return {
        "sums": dict(sums) if document.get("paillier") is not None else None,
        "attempts": outcomes(set()),
        "reattempts": outcomes(revoked) if document.get("revocations") else [],
    }


def parse_text(text: str):
    """Minimal policy reader for the oracle: '&' binds tighter than '|'.

    Accepts the bundled scenarios' syntax (symbols and parentheses) and
    returns the same formula shape `satisfies` takes.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace("&", " & ") \
        .replace("|", " | ").split()
    pos = 0

    def parse_or():
        nonlocal pos
        terms = [parse_and()]
        while pos < len(tokens) and tokens[pos] == "|":
            pos += 1
            terms.append(parse_and())
        return terms[0] if len(terms) == 1 else ("or", terms)

    def parse_and():
        nonlocal pos
        terms = [parse_atom()]
        while pos < len(tokens) and tokens[pos] == "&":
            pos += 1
            terms.append(parse_atom())
        return terms[0] if len(terms) == 1 else ("and", terms)

    def parse_atom():
        nonlocal pos
        token = tokens[pos]
        pos += 1
        if token == "(":
            inner = parse_or()
            if tokens[pos] != ")":
                raise ValueError(f"unbalanced policy {text!r}")
            pos += 1
            return inner
        return token

    formula = parse_or()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in policy {text!r}")
    return formula
