"""Scenario files: one validation pass, phase-ordered execution, canonical reports.

A scenario is a JSON document with a schema id and the fixed top-level keys
(paillier, topology, kdcs, users, records, attempts, revocations), all
optional. `load_scenario` validates a document and compiles it into a
`Scenario` plan; execution runs aggregate -> authority setup -> key issuance ->
encrypt -> attempts -> revocations -> re-attempts and produces one report
dictionary whose canonical rendering is byte-stable for a fixed seed: sorted
keys, fixed separators, no wall-clock fields.

There is intentionally no scenario syntax for repository-side decryption;
the store only ever handles ciphertexts and row updates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .. import abe
from ..aggregation import (
    AggregationTopology,
    AttributeTag,
    TopologyNode,
    rtu_open,
    run_pipeline,
)
from ..lsss import LsssProgram, compile_lsss, parse_policy, tree_attributes
from ..paillier import MAX_KEY_BITS, MIN_KEY_BITS, paillier_keygen
from ..pairing import PairingContext, ctx_new
from .registry import Repository

SCHEMA_ID = "gridseal-scenario/1"
REPORT_SCHEMA_ID = "gridseal-report/1"

_TOP_KEYS = ("paillier", "topology", "kdcs", "users", "records", "attempts", "revocations")

# Warn once the largest possible per-tag sum is within ten bits of the modulus.
_HEADROOM_SHIFT = 10


class ScenarioError(ValueError):
    """Validation failure; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ScenarioError(path, message)


def _list(value: Any, path: str) -> list:
    """A list-valued field; an absent or null one reads as empty."""
    if value is None:
        return []
    _require(isinstance(value, list), path, "need a list")
    return value


def _check_keys(obj: Any, allowed: tuple[str, ...], path: str) -> None:
    _require(isinstance(obj, Mapping), path, "need an object")
    for key in obj:
        _require(key in allowed, f"{path}.{key}" if path else key, "unknown field")


@dataclass(frozen=True)
class Scenario:
    """A validated scenario, compiled once into what execution consumes.

    Built by `load_scenario`; `run_scenario` runs it any number of times
    without validating again. Every field is optional, like the document's
    top-level keys: `paillier` None skips aggregation, and `topology` None
    keeps the aggregation section to key generation alone.
    """

    paillier: Mapping[str, int] | None = None
    topology: AggregationTopology | None = None
    readings: Mapping[str, tuple[AttributeTag, int]] = field(default_factory=dict)
    kdcs: tuple[tuple[str, tuple[str, ...]], ...] = ()
    owners: Mapping[str, str] = field(default_factory=dict)
    users: tuple[tuple[str, tuple[str, ...]], ...] = ()
    records: tuple[tuple[str, LsssProgram, bytes], ...] = ()
    attempts: tuple[tuple[str, str], ...] = ()
    revocations: tuple[tuple[str, ...], ...] = ()


def load_scenario(source: str | Path | Mapping[str, Any]) -> Scenario:
    """Read a scenario from a path or an already-parsed mapping, validate it
    and compile it into a `Scenario`; raises `ScenarioError` at the first bad
    field."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        document = source
    _require(isinstance(document, Mapping), "", "scenario must be an object")
    _check_keys(document, ("schema",) + _TOP_KEYS, "")
    _require(document.get("schema") == SCHEMA_ID, "schema",
             f"expected {SCHEMA_ID!r}")

    paillier = document.get("paillier")
    if paillier is not None:
        _check_keys(paillier, ("bits", "q1", "q2"), "paillier")
        if "bits" in paillier:
            _require("q1" not in paillier and "q2" not in paillier,
                     "paillier", "give bits or injected primes, not both")
            _require(isinstance(paillier["bits"], int)
                     and MIN_KEY_BITS <= paillier["bits"] <= MAX_KEY_BITS,
                     "paillier.bits", f"need an integer from {MIN_KEY_BITS} to {MAX_KEY_BITS}")
        else:
            _require("q1" in paillier and "q2" in paillier,
                     "paillier", "need bits or both q1 and q2")
            for key in ("q1", "q2"):
                value = paillier[key]
                _require(isinstance(value, int) and not isinstance(value, bool) and value >= 2,
                         f"paillier.{key}", "need an integer of at least 2")
        paillier = dict(paillier)

    topology = document.get("topology")
    built = None
    readings: dict[str, tuple[AttributeTag, int]] = {}
    if topology is not None:
        _require(paillier is not None, "topology", "aggregation needs paillier parameters")
        _check_keys(topology, ("nodes", "readings"), "topology")
        nodes = topology.get("nodes", [])
        _require(isinstance(nodes, list) and nodes, "topology.nodes", "need a node list")
        for i, node in enumerate(nodes):
            _check_keys(node, ("id", "role", "parent"), f"topology.nodes[{i}]")
            _require(isinstance(node.get("id"), str), f"topology.nodes[{i}].id", "need a string id")
            _require(node.get("role") in ("HAN", "BAN", "NAN"),
                     f"topology.nodes[{i}].role", "role must be HAN, BAN or NAN")
            _require(node.get("parent") is None or isinstance(node["parent"], str),
                     f"topology.nodes[{i}].parent", "need a string id or null")
        try:
            built = AggregationTopology([
                TopologyNode(n["id"], n["role"], n.get("parent")) for n in nodes])
        except ValueError as exc:
            raise ScenarioError("topology.nodes", str(exc)) from None
        leaf_ids = set(built.leaves())
        for i, reading in enumerate(_list(topology.get("readings"), "topology.readings")):
            _check_keys(reading, ("node", "tag", "value"), f"topology.readings[{i}]")
            node_id = reading.get("node")
            _require(isinstance(node_id, str) and node_id in built.nodes,
                     f"topology.readings[{i}].node",
                     f"unknown node {node_id!r}")
            _require(node_id in leaf_ids, f"topology.readings[{i}].node",
                     "readings attach to HAN leaves")
            _require(node_id not in readings, f"topology.readings[{i}].node",
                     "one reading per meter")
            tag = reading.get("tag")
            _require(isinstance(tag, list) and tag and all(isinstance(t, str) for t in tag),
                     f"topology.readings[{i}].tag", "tag must be a non-empty string list")
            try:
                tag = AttributeTag(tag)
            except ValueError as exc:
                raise ScenarioError(f"topology.readings[{i}].tag", str(exc)) from None
            value = reading.get("value")
            _require(isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                     f"topology.readings[{i}].value", "value must be a non-negative integer")
            readings[node_id] = (tag, value)

    kdcs: dict[str, tuple[str, ...]] = {}
    owners: dict[str, str] = {}
    for i, kdc in enumerate(_list(document.get("kdcs"), "kdcs")):
        _check_keys(kdc, ("id", "attributes"), f"kdcs[{i}]")
        kdc_id = kdc.get("id")
        _require(isinstance(kdc_id, str) and kdc_id, f"kdcs[{i}].id", "need a string id")
        _require(kdc_id not in kdcs, f"kdcs[{i}].id", "duplicate authority id")
        attrs = kdc.get("attributes")
        _require(isinstance(attrs, list) and attrs and all(isinstance(a, str) for a in attrs),
                 f"kdcs[{i}].attributes", "need a non-empty attribute list")
        for attribute in attrs:
            owner = owners.get(attribute)
            _require(owner != kdc_id, f"kdcs[{i}].attributes",
                     f"attribute {attribute!r} listed twice")
            _require(owner is None, f"kdcs[{i}].attributes",
                     f"attribute {attribute!r} already owned by {owner!r}")
            owners[attribute] = kdc_id
        kdcs[kdc_id] = tuple(attrs)

    users: dict[str, tuple[str, ...]] = {}
    for i, user in enumerate(_list(document.get("users"), "users")):
        _check_keys(user, ("id", "attributes"), f"users[{i}]")
        user_id = user.get("id")
        _require(isinstance(user_id, str) and user_id, f"users[{i}].id", "need a string id")
        _require(user_id not in users, f"users[{i}].id", "duplicate user id")
        attrs = user.get("attributes", [])
        _require(isinstance(attrs, list), f"users[{i}].attributes", "need an attribute list")
        attrs = tuple(attrs)
        for j, attribute in enumerate(attrs):
            _require(isinstance(attribute, str) and attribute in owners,
                     f"users[{i}].attributes[{j}]",
                     f"attribute {attribute!r} is not owned by any authority")
        users[user_id] = attrs

    records: dict[str, tuple[str, LsssProgram, bytes]] = {}
    for i, record in enumerate(_list(document.get("records"), "records")):
        _check_keys(record, ("id", "policy", "payload"), f"records[{i}]")
        record_id = record.get("id")
        _require(isinstance(record_id, str) and record_id, f"records[{i}].id", "need a string id")
        _require(record_id not in records, f"records[{i}].id", "duplicate record id")
        policy = record.get("policy")
        _require(isinstance(policy, str), f"records[{i}].policy", "need a policy string")
        try:
            tree = parse_policy(policy)
        except ValueError as exc:
            raise ScenarioError(f"records[{i}].policy", str(exc)) from None
        for attribute in tree_attributes(tree):
            _require(attribute in owners, f"records[{i}].policy",
                     f"attribute {attribute!r} is not owned by any authority")
        payload = record.get("payload")
        _require(isinstance(payload, str), f"records[{i}].payload", "need a string payload")
        try:
            payload = payload.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ScenarioError(f"records[{i}].payload", str(exc)) from None
        records[record_id] = (record_id, compile_lsss(tree), payload)

    attempts = []
    for i, attempt in enumerate(_list(document.get("attempts"), "attempts")):
        _check_keys(attempt, ("user", "record"), f"attempts[{i}]")
        user_id, record_id = attempt.get("user"), attempt.get("record")
        _require(isinstance(user_id, str) and user_id in users, f"attempts[{i}].user",
                 f"unknown user {user_id!r}")
        _require(isinstance(record_id, str) and record_id in records, f"attempts[{i}].record",
                 f"unknown record {record_id!r}")
        attempts.append((user_id, record_id))

    revocations = []
    for i, revocation in enumerate(_list(document.get("revocations"), "revocations")):
        _check_keys(revocation, ("revoke",), f"revocations[{i}]")
        revoked = revocation.get("revoke")
        _require(isinstance(revoked, list) and revoked, f"revocations[{i}].revoke",
                 "need a non-empty user list")
        for j, user_id in enumerate(revoked):
            _require(isinstance(user_id, str) and user_id in users,
                     f"revocations[{i}].revoke[{j}]",
                     f"unknown user {user_id!r}")
        revocations.append(tuple(revoked))

    return Scenario(paillier, built, readings, tuple(kdcs.items()), owners, tuple(users.items()),
                    tuple(records.values()), tuple(attempts), tuple(revocations))


def _aggregation_phase(scenario: Scenario, rng) -> dict[str, Any]:
    config = scenario.paillier
    if "bits" in config:
        pk, sk = paillier_keygen(config["bits"], rng=rng)
    else:
        pk, sk = paillier_keygen(rng=rng, q1=config["q1"], q2=config["q2"])
    section: dict[str, Any] = {"modulus_bits": pk.bit_length, "tags": [], "meters": 0,
                               "warnings": []}
    if scenario.topology is None:
        return section
    readings = scenario.readings
    section["meters"] = len(readings)
    if readings:
        worst = max(v for _, v in readings.values()) * len(readings)
        if worst.bit_length() >= max(pk.bit_length - _HEADROOM_SHIFT, 1):
            section["warnings"].append(
                "aggregate headroom: max reading times meter count approaches the modulus")
    packets = run_pipeline(scenario.topology, readings, pk, rng)
    for packet in packets:
        tag, total = rtu_open(sk, pk, packet)
        section["tags"].append({"tag": list(tag.attributes), "sum": total})
    return section


def run_scenario(
    scenario: Scenario,
    seed: int | None = None,
    backend: str = "reference",
    q: int | None = None,
    q_bits: int | None = None,
) -> dict[str, Any]:
    """Execute a scenario from `load_scenario` and return the report dictionary."""
    rng: random.Random = random.Random(seed) if seed is not None else random.SystemRandom()
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA_ID,
        "seed": seed,
        "aggregation": None,
        "kdcs": [],
        "users": [],
        "records": [],
        "attempts": [],
        "revocations": [],
        "reattempts": [],
        "totals": {"pairings": 0, "scalar_muls": 0},
        "error": None,
    }

    phase = "aggregate"
    try:
        if scenario.paillier is not None:
            report["aggregation"] = _aggregation_phase(scenario, rng)

        ctx: PairingContext | None = None
        if scenario.kdcs or scenario.records:
            ctx = ctx_new(backend=backend, q=q, q_bits=q_bits, rng=rng)

        phase = "kdc-setup"
        authorities: dict[str, abe.KdcKeyring] = {}
        shares: dict[str, abe.PublicShare] = {}
        for kdc_id, attributes in scenario.kdcs:
            keyring = abe.kdc_setup(ctx, kdc_id, attributes, rng)
            authorities[kdc_id] = keyring
            shares.update(keyring.shares)
            report["kdcs"].append({"id": kdc_id, "attributes": list(attributes)})

        phase = "issue-keys"
        users: dict[str, abe.UserKeyring] = {}
        for user_id, attributes in scenario.users:
            keyring = abe.UserKeyring(user_id)
            for attribute in attributes:
                authority = authorities[scenario.owners[attribute]]
                element = abe.issue_key(authority, ctx, user_id, attribute)
                keyring.add(attribute, element, ctx, shares[attribute])
            users[user_id] = keyring
            report["users"].append({"id": user_id, "attributes": sorted(keyring.attributes)})

        phase = "encrypt"
        repository = Repository()
        states: dict[str, abe.EncryptionState] = {}
        for record_id, program, payload in scenario.records:
            with ctx.measure() as window:
                ciphertext, state = abe.abe_encrypt(ctx, shares, program, payload, rng)
            repository.store(record_id, ciphertext)
            states[record_id] = state
            report["records"].append({
                "id": record_id,
                "rows": program.n,
                "columns": program.h,
                "pairings": window.pairings,
                "scalar_muls": window.scalar_muls,
            })

        def evaluate_attempts(into: list) -> None:
            for user_id, record_id in scenario.attempts:
                user = users[user_id]
                updates = repository.updates_for(record_id, user_id)
                outcome: dict[str, Any] = {"user": user_id, "record": record_id,
                                           "payload": None}
                with ctx.measure() as window:
                    try:
                        payload = abe.abe_decrypt(
                            ctx, user, repository.get(record_id), updates)
                        outcome["outcome"] = "ok"
                        outcome["payload"] = payload.decode("utf-8")
                    except abe.AccessDenied:
                        outcome["outcome"] = "denied"
                    except Exception as exc:  # recorded, does not abort the phase
                        outcome["outcome"] = "error"
                        outcome["message"] = str(exc)
                outcome["pairings"] = window.pairings
                outcome["scalar_muls"] = window.scalar_muls
                into.append(outcome)

        phase = "attempts"
        evaluate_attempts(report["attempts"])

        phase = "revoke"
        revoked_so_far: set[str] = set()
        for revoked in scenario.revocations:
            revoked_keyrings = [users[u] for u in revoked]
            revoked_so_far.update(revoked)
            recipients = [u for u in users if u not in revoked_so_far]
            revocation_report = {"revoked": list(revoked), "records": []}
            for record_id in repository.record_ids():
                ciphertext = repository.get(record_id)
                new_ct, updates, new_state = abe.revoke(
                    ctx, shares, ciphertext, states[record_id], revoked_keyrings, rng)
                repository.apply_revocation(record_id, new_ct)
                states[record_id] = new_state
                for user_id in recipients:
                    repository.deliver_updates(record_id, user_id, updates)
                revocation_report["records"].append({
                    "id": record_id,
                    "updated_rows": sorted(updates),
                    "recipients": recipients if updates else [],
                })
            report["revocations"].append(revocation_report)

        if scenario.revocations:
            phase = "reattempts"
            evaluate_attempts(report["reattempts"])

        if ctx is not None:
            totals = ctx.counters
            report["totals"] = {"pairings": totals.pairings,
                                "scalar_muls": totals.scalar_muls}
    except Exception as exc:  # phase failure: return the partial report
        report["error"] = {"phase": phase, "message": str(exc)}
    return report


def render_report(report: Mapping[str, Any]) -> str:
    """Canonical rendering: sorted keys, tight separators, trailing newline."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def report_has_denial(report: Mapping[str, Any]) -> bool:
    outcomes = list(report.get("attempts", [])) + list(report.get("reattempts", []))
    return any(entry.get("outcome") == "denied" for entry in outcomes)


def summarize_report(report: Mapping[str, Any]) -> str:
    """Short human-readable digest printed next to the canonical document."""
    lines = []
    aggregation = report.get("aggregation")
    if aggregation:
        for entry in aggregation["tags"]:
            lines.append(f"aggregate {'+'.join(entry['tag'])}: {entry['sum']}")
        for warning in aggregation.get("warnings", []):
            lines.append(f"warning: {warning}")
    for record in report.get("records", []):
        lines.append(f"stored {record['id']}: {record['rows']} rows, "
                     f"{record['pairings']} pairings, {record['scalar_muls']} scalar muls")
    for label, key in (("attempt", "attempts"), ("reattempt", "reattempts")):
        for entry in report.get(key, []):
            lines.append(f"{label} {entry['user']} -> {entry['record']}: {entry['outcome']}")
    totals = report.get("totals", {})
    lines.append(f"totals: {totals.get('pairings', 0)} pairings, "
                 f"{totals.get('scalar_muls', 0)} scalar muls")
    error = report.get("error")
    if error:
        lines.append(f"error in {error['phase']}: {error['message']}")
    return "\n".join(lines) + "\n"
