"""Random valid scenarios and a report oracle that imports nothing from gridseal.

`generate_scenario(rng)` draws a scenario document: 1-3 authorities
splitting 2-7 attributes, 1-5 users, 1-3 records over random AND/OR
formulas, every (user, record) attempt, 0-2 revocations and, half the
time, a small gateway tree with tagged meter readings. It returns the
document and each record's formula as a nested tuple: an attribute, or
(op, left, right) with op "&" or "|".

`check_report(document, formulas, report)` lists where a run's report
departs from what plain evaluation of the document predicts:

* each tag's aggregate is the sum of the readings carrying that tag;
* a record has one row per leaf and one column more than it has ANDs,
  and its encryption costs one pairing and four scalar muls a row;
* an attempt is `ok`, with the record's payload, exactly when the user's
  attributes satisfy the formula. A granted one pairs two rows per leaf of
  the formula's leftmost satisfied branch (decryption takes rows in order,
  so an OR whose left side is satisfied uses that side), and no attempt
  exponentiates; a denied first attempt pairs nothing;
* a revocation refreshes the rows carrying a revoked attribute and the
  rows that hold the secret (no AND above them on the right), or none when
  no row carries one; only users never revoked receive them;
* a reattempt is `ok` exactly when the user was never revoked and
  satisfies the formula, and then costs what the first attempt did;
* the totals are the sum of the metered operations above.
"""

from __future__ import annotations

import random

ATTRIBUTE_POOL = [f"attr:{i}" for i in range(7)]
TAG_POOL = ["load:high", "solar", "wind"]


def _formula(rng: random.Random, attributes: list[str], leaves: int):
    if leaves == 1:
        return rng.choice(attributes)
    split = rng.randrange(1, leaves)
    return (rng.choice("&|"), _formula(rng, attributes, split),
            _formula(rng, attributes, leaves - split))


def render(formula) -> str:
    if isinstance(formula, str):
        return formula
    op, left, right = formula
    return f"({render(left)} {op} {render(right)})"


def _topology(rng: random.Random) -> dict:
    nodes = [{"id": "nan", "role": "NAN"}]
    bans: list[str] = []
    for i in range(rng.randint(1, 3)):
        nodes.append({"id": f"ban{i}", "role": "BAN", "parent": rng.choice(["nan"] + bans)})
        bans.append(f"ban{i}")
    parents = [rng.choice(bans) for _ in range(rng.randint(1, 5))]
    parents += [ban for ban in bans if not any(n.get("parent") == ban for n in nodes)
                and ban not in parents]
    readings = []
    for i, parent in enumerate(parents):
        nodes.append({"id": f"han{i}", "role": "HAN", "parent": parent})
        if rng.random() < 0.8:
            readings.append({"node": f"han{i}", "value": rng.randint(0, 1000),
                             "tag": rng.sample(TAG_POOL, rng.randint(1, 2))})
    return {"nodes": nodes, "readings": readings}


def generate_scenario(rng: random.Random) -> tuple[dict, dict]:
    """(scenario document, {record id: formula})."""
    attributes = rng.sample(ATTRIBUTE_POOL, rng.randint(2, 7))
    authorities = rng.randint(1, min(3, len(attributes)))
    cuts = sorted(rng.sample(range(1, len(attributes)), authorities - 1))
    kdcs = [{"id": f"kdc{i}", "attributes": attributes[a:b]}
            for i, (a, b) in enumerate(zip([0] + cuts, cuts + [len(attributes)]))]
    users = [{"id": f"u{i}", "attributes": rng.sample(attributes, rng.randint(0, len(attributes)))}
             for i in range(rng.randint(1, 5))]
    formulas = {f"r{i}": _formula(rng, attributes, rng.randint(1, 6))
                for i in range(rng.randint(1, 3))}
    records = [{"id": record_id, "policy": render(formula), "payload": f"payload of {record_id} é"}
               for record_id, formula in formulas.items()]
    attempts = [{"user": user["id"], "record": record["id"]}
                for user in users for record in records]
    revocations, left = [], [user["id"] for user in users]
    for _ in range(rng.randint(0, 2)):
        if not left:
            break
        revoked = rng.sample(left, rng.randint(1, min(2, len(left))))
        left = [u for u in left if u not in revoked]
        revocations.append({"revoke": revoked})
    document = {"schema": "gridseal-scenario/1", "kdcs": kdcs, "users": users,
                "records": records, "attempts": attempts, "revocations": revocations}
    if rng.random() < 0.5:
        document["paillier"] = {"bits": 32}
        document["topology"] = _topology(rng)
    return document, formulas


def satisfies(formula, held) -> bool:
    if isinstance(formula, str):
        return formula in held
    op, left, right = formula
    if op == "&":
        return satisfies(left, held) and satisfies(right, held)
    return satisfies(left, held) or satisfies(right, held)


def _rows_used(formula, held) -> int:
    """Leaves of the leftmost satisfied branch of a satisfied formula."""
    if isinstance(formula, str):
        return 1
    op, left, right = formula
    if op == "&":
        return _rows_used(left, held) + _rows_used(right, held)
    return _rows_used(left if satisfies(left, held) else right, held)


def _leaves(formula, holds_secret=True):
    """(attribute, whether its row holds the secret) per leaf, in order."""
    if isinstance(formula, str):
        return [(formula, holds_secret)]
    op, left, right = formula
    return _leaves(left, holds_secret) + _leaves(right, holds_secret and op == "|")


def _ands(formula) -> int:
    if isinstance(formula, str):
        return 0
    op, left, right = formula
    return (op == "&") + _ands(left) + _ands(right)


def check_report(document: dict, formulas: dict, report: dict) -> list[str]:
    """Every departure of the report from the document's plain evaluation."""
    faults: list[str] = []

    def expect(what: str, found, wanted) -> None:
        if found != wanted:
            faults.append(f"{what}: found {found!r}, expected {wanted!r}")

    expect("error", report["error"], None)
    if "paillier" in document:
        section = report["aggregation"]
        bits = document["paillier"]["bits"]
        expect("modulus bits", bits - 1 <= section["modulus_bits"] <= bits, True)
        readings = document["topology"]["readings"]
        sums: dict[tuple, int] = {}
        for reading in readings:
            tag = tuple(sorted(reading["tag"]))
            sums[tag] = sums.get(tag, 0) + reading["value"]
        expect("meters", section["meters"], len(readings))
        expect("tag sums", {tuple(e["tag"]): e["sum"] for e in section["tags"]}, sums)
        expect("tag count", len(section["tags"]), len(sums))
        expect("warnings", section["warnings"], [])
    else:
        expect("aggregation", report["aggregation"], None)

    held = {user["id"]: set(user["attributes"]) for user in document["users"]}
    payloads = {record["id"]: record["payload"] for record in document["records"]}
    expect("kdcs", report["kdcs"], document["kdcs"])
    expect("users", report["users"], [{"id": u["id"], "attributes": sorted(u["attributes"])}
                                      for u in document["users"]])
    pairings = scalar_muls = 0
    wanted_records = []
    for record_id, formula in formulas.items():
        rows = len(_leaves(formula))
        wanted_records.append({"id": record_id, "rows": rows, "columns": 1 + _ands(formula),
                               "pairings": 1, "scalar_muls": 4 * rows})
        pairings, scalar_muls = pairings + 1, scalar_muls + 4 * rows
    expect("records", report["records"], wanted_records)

    def outcome(user_id: str, record_id: str, revoked: bool) -> dict:
        granted = not revoked and satisfies(formulas[record_id], held[user_id])
        used = _rows_used(formulas[record_id], held[user_id]) if granted else 0
        return {"user": user_id, "record": record_id, "outcome": "ok" if granted else "denied",
                "payload": payloads[record_id] if granted else None,
                "pairings": 2 * used, "scalar_muls": 0}

    attempts = [(a["user"], a["record"]) for a in document["attempts"]]
    wanted = [outcome(u, r, False) for u, r in attempts]
    expect("attempts", report["attempts"], wanted)
    pairings += sum(entry["pairings"] for entry in wanted)

    revoked_so_far: set[str] = set()
    wanted_revocations = []
    for revocation in document["revocations"]:
        revoked_so_far.update(revocation["revoke"])
        gone = set().union(*(held[u] for u in revocation["revoke"]))
        recipients = [u["id"] for u in document["users"] if u["id"] not in revoked_so_far]
        entries = []
        for record_id, formula in formulas.items():
            leaves = _leaves(formula)
            carriers = [x for x, (attribute, _) in enumerate(leaves) if attribute in gone]
            updated = [x for x, (attribute, secret) in enumerate(leaves)
                       if attribute in gone or secret] if carriers else []
            entries.append({"id": record_id, "updated_rows": updated,
                            "recipients": recipients if updated else []})
            scalar_muls += 1 + 2 * len(updated) if updated else 0
        wanted_revocations.append({"revoked": revocation["revoke"], "records": entries})
    expect("revocations", report["revocations"], wanted_revocations)

    if document["revocations"]:
        reattempts = report["reattempts"]
        for (u, r), found in zip(attempts, reattempts):
            wanted_entry = outcome(u, r, u in revoked_so_far)
            if u in revoked_so_far:  # stale updates may still be paired
                wanted_entry["pairings"] = found["pairings"]
            expect(f"reattempt {u} -> {r}", found, wanted_entry)
            pairings += found["pairings"]
        expect("reattempt count", len(reattempts), len(attempts))
    else:
        expect("reattempts", report["reattempts"], [])
    expect("totals", report["totals"], {"pairings": pairings, "scalar_muls": scalar_muls})
    return faults
