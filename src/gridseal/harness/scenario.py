"""Scenario files: one validation pass, phase-ordered execution, canonical reports.

A scenario is a JSON document with a schema id and the fixed top-level keys
(paillier, topology, kdcs, users, records, attempts, revocations), all
optional. `load_scenario` validates a document and compiles it into a
`Scenario` plan. `run_scenario` runs the plan as one loop over `_PHASES`, a
table of (name, function) pairs in run order: aggregate, kdc-setup (which
builds the pairing group), issue-keys, encrypt, attempts, revoke, reattempts.
Each phase fills its part of one report from a shared run state; the loop
alone catches a phase's exception, names that phase in the report's `error`
and stops. The report's canonical rendering is byte-stable for a fixed seed:
sorted keys, fixed separators, no wall-clock fields.

There is intentionally no scenario syntax for repository-side decryption:
the run state's `records` and `deliveries`, which model the paper's data
repository, hold only ciphertexts and row updates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .. import abe
from ..aggregation import (
    ROLES,
    AggregationTopology,
    AttributeTag,
    TopologyNode,
    rtu_open,
    run_pipeline,
)
from ..lsss import LsssProgram, compile_lsss, parse_policy, tree_attributes
from ..paillier import MAX_KEY_BITS, MIN_KEY_BITS, paillier_keygen
from ..pairing import GroupElementGT, PairingContext, ctx_new

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


def _unique_members(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    document: dict[str, Any] = {}
    for key, value in pairs:
        if key in document:
            raise ValueError(f"member {key!r} appears twice")
        document[key] = value
    return document


def _no_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON value")


def _read_json(text: str) -> Any:
    """The one JSON reader for every file gridseal reads: a duplicate member name
    at any depth, or NaN or Infinity, raises ValueError rather than being read
    as the last member or as a float. The caller names the file."""
    return json.loads(text, object_pairs_hook=_unique_members, parse_constant=_no_constant)


def _make_rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.SystemRandom()


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
    top-level keys: `paillier`, the RTU's Paillier key size in bits, None
    skips aggregation, and `topology` None keeps the aggregation section to
    key generation alone.
    """

    paillier: int | None = None
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
        try:
            document = _read_json(Path(source).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ScenarioError(str(source), f"not a JSON document ({exc})") from None
    else:
        document = source
    _require(isinstance(document, Mapping), "", "scenario must be an object")
    _check_keys(document, ("schema",) + _TOP_KEYS, "")
    _require(document.get("schema") == SCHEMA_ID, "schema",
             f"expected {SCHEMA_ID!r}")

    paillier = document.get("paillier")
    if paillier is not None:
        _check_keys(paillier, ("bits",), "paillier")
        paillier = paillier.get("bits")
        _require(isinstance(paillier, int) and MIN_KEY_BITS <= paillier <= MAX_KEY_BITS,
                 "paillier.bits", f"need an integer from {MIN_KEY_BITS} to {MAX_KEY_BITS}")

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
            _require(node.get("role") in ROLES,
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


@dataclass
class _Run:
    """One run's state; its methods are the phases, each filling its part of the report."""

    scenario: Scenario
    rng: random.Random
    report: dict[str, Any]
    ctx: PairingContext | None = None
    authorities: dict[str, abe.KdcKeyring] = field(default_factory=dict)
    shares: dict[str, abe.PublicShare] = field(default_factory=dict)
    users: dict[str, abe.UserKeyring] = field(default_factory=dict)
    records: dict[str, abe.AbeCiphertext] = field(default_factory=dict)
    deliveries: dict[tuple[str, str], dict[int, GroupElementGT]] = field(default_factory=dict)
    states: dict[str, abe.EncryptionState] = field(default_factory=dict)

    def aggregate(self) -> None:
        scenario = self.scenario
        if scenario.paillier is None:
            return
        pk, sk = paillier_keygen(scenario.paillier, rng=self.rng)
        section: dict[str, Any] = {"modulus_bits": pk.bit_length, "tags": [], "meters": 0,
                                   "warnings": []}
        self.report["aggregation"] = section
        if scenario.topology is None:
            return
        readings = scenario.readings
        section["meters"] = len(readings)
        if readings:
            worst = max(v for _, v in readings.values()) * len(readings)
            if worst.bit_length() >= max(pk.bit_length - _HEADROOM_SHIFT, 1):
                section["warnings"].append(
                    "aggregate headroom: max reading times meter count approaches the modulus")
        for packet in run_pipeline(scenario.topology, readings, pk, self.rng):
            tag, total = rtu_open(sk, pk, packet)
            section["tags"].append({"tag": list(tag.attributes), "sum": total})

    def kdc_setup(self) -> None:
        if self.scenario.kdcs:  # every record's attributes are owned, so records imply KDCs
            self.ctx = ctx_new(rng=self.rng)
        for kdc_id, attributes in self.scenario.kdcs:
            keyring = abe.kdc_setup(self.ctx, kdc_id, attributes, self.rng)
            self.authorities[kdc_id] = keyring
            self.shares.update(keyring.shares)
            self.report["kdcs"].append({"id": kdc_id, "attributes": list(attributes)})

    def issue_keys(self) -> None:
        for user_id, attributes in self.scenario.users:
            keyring = abe.UserKeyring(user_id)
            for attribute in attributes:
                authority = self.authorities[self.scenario.owners[attribute]]
                element = abe.issue_key(authority, self.ctx, user_id, attribute)
                keyring.add(attribute, element, self.ctx, self.shares[attribute])
            self.users[user_id] = keyring
            self.report["users"].append({"id": user_id, "attributes": sorted(keyring.attributes)})

    def encrypt(self) -> None:
        for record_id, program, payload in self.scenario.records:
            with self.ctx.measure() as window:
                ciphertext, state = abe.abe_encrypt(
                    self.ctx, self.shares, program, payload, self.rng)
            self.records[record_id] = ciphertext
            self.states[record_id] = state
            self.report["records"].append({
                "id": record_id,
                "rows": program.n,
                "columns": program.h,
                "pairings": window.pairings,
                "scalar_muls": window.scalar_muls,
            })

    def attempts(self, into: str = "attempts") -> None:
        """Every attempt, in order; a failed decryption is its outcome, not the phase's."""
        for user_id, record_id in self.scenario.attempts:
            updates = self.deliveries.get((record_id, user_id), {})
            outcome: dict[str, Any] = {"user": user_id, "record": record_id, "payload": None}
            with self.ctx.measure() as window:
                try:
                    payload = abe.abe_decrypt(
                        self.ctx, self.users[user_id], self.records[record_id], updates)
                    outcome["outcome"] = "ok"
                    outcome["payload"] = payload.decode("utf-8")
                except abe.AccessDenied:
                    outcome["outcome"] = "denied"
                except Exception as exc:  # recorded, does not abort the phase
                    outcome["outcome"] = "error"
                    outcome["message"] = str(exc)
            outcome["pairings"] = window.pairings
            outcome["scalar_muls"] = window.scalar_muls
            self.report[into].append(outcome)

    def revoke(self) -> None:
        revoked_so_far: set[str] = set()
        for revoked in self.scenario.revocations:
            revoked_keyrings = [self.users[u] for u in revoked]
            revoked_so_far.update(revoked)
            recipients = [u for u in self.users if u not in revoked_so_far]
            revocation_report = {"revoked": list(revoked), "records": []}
            for record_id, ciphertext in self.records.items():
                self.records[record_id], updates, self.states[record_id] = abe.revoke(
                    self.ctx, self.shares, ciphertext, self.states[record_id],
                    revoked_keyrings, self.rng)
                for user_id in recipients:
                    self.deliveries.setdefault((record_id, user_id), {}).update(updates)
                revocation_report["records"].append({
                    "id": record_id,
                    "updated_rows": sorted(updates),
                    "recipients": recipients if updates else [],
                })
            self.report["revocations"].append(revocation_report)

    def reattempts(self) -> None:
        if self.scenario.revocations:
            self.attempts("reattempts")


_PHASES = (
    ("aggregate", _Run.aggregate),
    ("kdc-setup", _Run.kdc_setup),
    ("issue-keys", _Run.issue_keys),
    ("encrypt", _Run.encrypt),
    ("attempts", _Run.attempts),
    ("revoke", _Run.revoke),
    ("reattempts", _Run.reattempts),
)


def run_scenario(scenario: Scenario, seed: int | None = None) -> dict[str, Any]:
    """Execute a scenario from `load_scenario` and return the report dictionary."""
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
    run = _Run(scenario, _make_rng(seed), report)
    for name, step in _PHASES:
        try:
            step(run)
        except Exception as exc:  # phase failure: return the partial report
            report["error"] = {"phase": name, "message": str(exc)}
            return report
    if run.ctx is not None:
        totals = run.ctx.counters
        report["totals"] = {"pairings": totals.pairings, "scalar_muls": totals.scalar_muls}
    return report


def render_report(report: Mapping[str, Any]) -> str:
    """Canonical rendering: sorted keys, tight separators, trailing newline."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


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
