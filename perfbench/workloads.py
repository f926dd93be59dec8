"""The four workloads: seeded inputs, the timed calls into gridseal, and the checks.

Each workload has a set-up (timed separately, repeated with derived seeds)
and runs in blocks of operations; a run always finishes the block it is in,
so every run covers whole, balanced blocks. One client, one thread, closed
loop: the next operation starts when the previous one returns. Timing wraps
the calls into the program only; generating inputs and checking answers
happen outside the timed region.
"""

from __future__ import annotations

import json
import random
import statistics
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from gridseal import abe, aggregation, lsss, paillier, pairing
from gridseal import harness
from gridseal.harness.cost import CostModel, counters_cost

import gen
from tracing import NullTracer

FAULTS = ("wrong_aggregate", "flip_grant")
PAYLOAD_BYTES = 256


class Tally:
    """Samples (ms), deterministic counters and the pass/fail ledger of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(what)


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def timing(name: str, values: list[float], q: float, unit: str = "ms") -> dict:
    if not values:
        return {"name": name, "value": None, "unit": unit, "n": 0}
    value = statistics.median(values) if q == 0.5 else _quantile(values, q)
    return {"name": name, "value": value, "unit": unit, "n": len(values)}


class Workload:
    name = ""
    op_name = ""
    setup_repeats = 15
    nominal_block_s = 1.0

    def __init__(self, seed: int, fault: str | None = None):
        if fault is not None and fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}")
        self.seed = seed
        self.fault = fault

    def setup(self, tracer, repeat: int):
        raise NotImplementedError

    def run_block(self, state, index: int, tracer, tally: Tally) -> None:
        raise NotImplementedError

    def headline(self, tally: Tally) -> tuple[list[float], float]:
        """Latencies of the headline operation and work items per second."""
        raise NotImplementedError

    def named_metrics(self, tally: Tally) -> list[dict]:
        raise NotImplementedError

    def blocks_for(self, seconds: float) -> int:
        """Blocks that take about `seconds` on the reference machine (2 cores,
        CPython 3.11, no gmpy2). The count depends on the run length alone,
        so every run of a seed does the same work and its counts repeat."""
        return max(1, round(seconds / self.nominal_block_s))

    def guarded(self, tally: Tally, what: str, fn, *args) -> None:
        """Run one operation; an unexpected exception counts as a failed op."""
        try:
            fn(*args)
        except Exception as exc:  # the run goes on; the failure is recorded
            tally.attempted += 1
            tally.fail(f"{what}: {type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}")


# -- feeder aggregation -----------------------------------------------------------

class Feeder(Workload):
    """Paillier aggregation rounds at the program's default key size."""

    name = "feeder_2048"
    op_name = "agg.round"
    setup_repeats = 5  # each is a 2048-bit keygen of about a second
    # Each block runs every meter count of 4..16 once, in seeded order, with
    # tag shares drawn one per stratum: 13 rounds, about 23 s on one core.
    nominal_block_s = 23.0

    def __init__(self, seed: int, fault: str | None = None,
                 key_bits: int = paillier.DEFAULT_KEY_BITS):
        super().__init__(seed, fault)
        self.key_bits = key_bits

    def setup(self, tracer, repeat: int):
        rng = gen.rng_for(self.seed, "keygen", repeat)
        with tracer.op("setup"):
            return tracer.call("paillier.keygen", paillier.paillier_keygen, self.key_bits, rng)

    def run_block(self, keys, index: int, tracer, tally: Tally) -> None:
        rng = gen.rng_for(self.seed, "block", index)
        meters = list(range(gen.METER_RANGE[0], gen.METER_RANGE[1] + 1))
        rng.shuffle(meters)
        shares = [(i + rng.random()) / len(meters) for i in range(len(meters))]
        rng.shuffle(shares)
        for count, share in zip(meters, shares):
            spec = gen.feeder_round(rng, count, share)
            self.guarded(tally, "agg.round", self._round, keys, spec,
                         random.Random(rng.getrandbits(64)), tracer, tally)

    def _round(self, keys, spec, rng, tracer, tally: Tally) -> None:
        pk, sk = keys
        children: dict[str, list[str]] = defaultdict(list)
        for node_id, _, parent in spec["nodes"]:
            if parent is not None:
                children[parent].append(node_id)
        tags = {m: aggregation.AttributeTag(tag) for m, (tag, _) in spec["readings"].items()}
        outbox: dict[str, list[bytes]] = {}
        opened = []
        fold_in = fold_out = 0

        def send(node_id, packets):
            outbox[node_id] = [tracer.call("aggregation.packet_codec",
                                           aggregation.packet_to_bytes, p) for p in packets]

        started = perf_counter()
        with tracer.op("agg.round"):
            # Nodes are listed parents first, so reversed order visits every
            # node after all of its children.
            for node_id, role, _ in reversed(spec["nodes"]):
                if role == "HAN":
                    packet = tracer.call("aggregation.make_packet", aggregation.make_packet,
                                         pk, tags[node_id], spec["readings"][node_id][1], rng)
                    send(node_id, [packet])
                    continue
                inbound = [tracer.call("aggregation.packet_codec",
                                       aggregation.packet_from_bytes, data, pk)
                           for child in children[node_id] for data in outbox[child]]
                folded = tracer.call("aggregation.gateway_aggregate",
                                     aggregation.gateway_aggregate, inbound, pk)
                fold_in += len(inbound)
                fold_out += len(folded)
                if role == "BAN":
                    send(node_id, folded)
                else:
                    opened = [tracer.call("aggregation.rtu_open", aggregation.rtu_open, sk, pk, p)
                              for p in folded]
        elapsed_ms = (perf_counter() - started) * 1e3

        sums = {tag.attributes: total for tag, total in opened}
        if self.fault == "wrong_aggregate" and sums:
            first = next(iter(sums))
            sums[first] += 1
        ok = len(opened) == len(sums) and sums == spec["expected"]
        tally.check(ok, f"agg.round: per-tag sums {sums} != expected {spec['expected']}")
        if not ok:
            return
        tally.samples["agg.round"].append(elapsed_ms)
        tally.counts["readings"] += len(spec["readings"])
        tally.counts["aggregation.make_packet.count"] += len(spec["readings"])
        tally.counts["aggregation.rtu_open.count"] += len(opened)
        tally.counts["paillier.add.count"] += fold_in - fold_out
        tally.counts["aggregation.fold_in"] += fold_in
        tally.counts["aggregation.fold_out"] += fold_out
        tally.counts["wire.packet_bytes"] += sum(len(d) for b in outbox.values() for d in b)
        tally.counts["wire.packets"] += sum(len(b) for b in outbox.values())

    def headline(self, tally):
        rounds = tally.samples["agg.round"]
        return rounds, tally.counts["readings"] / (sum(rounds) / 1e3) if rounds else 0.0

    def named_metrics(self, tally):
        rounds, per_s = self.headline(tally)
        return [timing("agg.round_ms.p50", rounds, 0.5),
                {"name": "agg.readings_per_s", "value": per_s, "unit": "1/s",
                 "n": int(tally.counts["readings"])}]


# -- the attribute-encrypted record store ---------------------------------------------

class Records(Workload):
    """Publish, open and revoke against an untrusted store that holds bytes."""

    op_name = "rec.publish"

    def __init__(self, seed: int, fault: str | None = None, *, name: str,
                 universe_size: int, users: int, user_attrs: tuple[int, int],
                 leaves: tuple[int, int], and_heavy_share: float, from_audience: float,
                 opens_per_publish: int, revoke_every: int, retain: int,
                 nominal_block_s: float):
        super().__init__(seed, fault)
        self.name = name
        self.universe_size = universe_size
        self.users = users
        self.user_attrs = user_attrs
        self.leaves = leaves
        self.and_heavy_share = and_heavy_share
        self.from_audience = from_audience
        self.opens_per_publish = opens_per_publish
        self.revoke_every = revoke_every
        self.retain = retain
        self.nominal_block_s = nominal_block_s
        self._flipped = False

    def setup(self, tracer, repeat: int):
        rng = gen.rng_for(self.seed, "setup", repeat)
        slices = gen.universe(self.universe_size, 4)
        everything = [a for attrs in slices.values() for a in attrs]
        owner = {a: kdc for kdc, attrs in slices.items() for a in attrs}
        with tracer.op("setup"):
            ctx = tracer.call("pairing.ctx_new", pairing.ctx_new, rng=rng)
            kdcs = {kdc: tracer.call("abe.kdc_setup", abe.kdc_setup, ctx, kdc, attrs, rng)
                    for kdc, attrs in slices.items()}
            shares = {a: s for k in kdcs.values() for a, s in k.shares.items()}
            keyrings, held = {}, {}
            sizes = gen.stratified(rng, *self.user_attrs, self.users)
            for u, size in enumerate(sizes):
                user_id = f"user{u:02d}"
                attrs = rng.sample(everything, size)
                ring = abe.UserKeyring(user_id)
                for attribute in attrs:
                    element = tracer.call("abe.issue_key", abe.issue_key,
                                          kdcs[owner[attribute]], ctx, user_id, attribute)
                    tracer.call("abe.UserKeyring.add", ring.add, attribute, element,
                                ctx, shares[attribute])
                keyrings[user_id] = ring
                held[user_id] = set(attrs)
        return {"ctx": ctx, "shares": shares, "keyrings": keyrings, "held": held,
                "everything": everything, "records": []}

    def run_block(self, state, index, tracer, tally):
        rng = gen.rng_for(self.seed, "block", index)
        sizes = gen.stratified(rng, self.leaves[0], self.leaves[1], self.revoke_every)
        heavy = [i < round(self.and_heavy_share * self.revoke_every)
                 for i in range(self.revoke_every)]
        rng.shuffle(heavy)
        user_ids = sorted(state["keyrings"])
        # Every user is the audience and the opener equally often in a block,
        # and half the opens are of the record just published (its size is
        # stratified), so the block's mix of grants, denials and record sizes
        # hardly moves from block to block or from seed to seed.
        audiences = gen.balanced(rng, user_ids, self.revoke_every)
        openers = gen.balanced(rng, user_ids, self.revoke_every * self.opens_per_publish)
        crypto_rng = random.Random(rng.getrandbits(64))
        for size, and_heavy, owner in zip(sizes, heavy, audiences):
            audience = sorted(state["held"][owner])
            leaves = gen.policy_leaves(rng, size, audience, state["everything"],
                                       self.from_audience)
            formula = gen.random_formula(rng, leaves, 0.95 if and_heavy else 0.5)
            payload = rng.getrandbits(8 * PAYLOAD_BYTES).to_bytes(PAYLOAD_BYTES, "big")
            self.guarded(tally, "rec.publish", self._publish, state, formula, leaves, payload,
                         crypto_rng, tracer, tally)
            for attempt in range(self.opens_per_publish):
                if not state["records"]:
                    break
                record = state["records"][-1] if attempt % 2 == 0 else rng.choice(state["records"])
                self.guarded(tally, "rec.open", self._open, state, record,
                             openers.pop(), tracer, tally)
        record = rng.choice(state["records"]) if state["records"] else None
        standing = [u for u in user_ids if record and u not in record["revoked"]]
        if standing:
            self.guarded(tally, "rec.revoke", self._revoke, state, record,
                         rng.choice(standing), crypto_rng, tracer, tally)

    def _publish(self, state, formula, leaves, payload, rng, tracer, tally):
        ctx = state["ctx"]
        text = gen.render(formula)
        with ctx.measure() as window:
            started = perf_counter()
            with tracer.op("rec.publish"):
                tree = tracer.call("lsss.parse_policy", lsss.parse_policy, text)
                program = tracer.call("lsss.compile_lsss", lsss.compile_lsss, tree)
                ciphertext, sealed = tracer.call("abe.abe_encrypt", abe.abe_encrypt, ctx,
                                                 state["shares"], program, payload, rng)
                data = tracer.call("abe.AbeCiphertext.to_bytes", ciphertext.to_bytes, ctx)
            elapsed_ms = (perf_counter() - started) * 1e3
        n = len(leaves)
        ok = (sorted(program.attributes) == sorted(leaves)
              and program.h == 1 + gen.count_and_gates(formula)
              and window.pairings == 1 and window.scalar_muls == 4 * n)
        tally.check(ok, f"rec.publish: n={n} h={program.h} metered "
                        f"{window.pairings} pairings, {window.scalar_muls} muls; "
                        f"expected 1 and {4 * n}")
        if not ok:
            return
        # The store keeps the latest `retain` records, so the working set, and
        # with it each operation's cost, does not drift with the run's length.
        if len(state["records"]) == self.retain:
            state["records"].pop(0)
        state["records"].append({"id": tally.counts["records"], "bytes": data, "sealed": sealed,
                                 "formula": formula, "payload": payload, "revoked": set(),
                                 "deliveries": defaultdict(dict),
                                 "publish_counts": (window.pairings, window.scalar_muls)})
        tally.samples["rec.publish"].append(elapsed_ms)
        tally.counts["ops"] += 1
        tally.counts["lsss.matrix_cells"] += program.n * program.h
        tally.counts["wire.record_bytes"] += len(data)
        tally.counts["records"] += 1
        tally.counts["pairing.pairings.publish"] += window.pairings
        tally.counts["pairing.scalar_muls.publish"] += window.scalar_muls

    def _open(self, state, record, user_id, tracer, tally):
        ctx = state["ctx"]
        keyring = state["keyrings"][user_id]
        updates = record["deliveries"][user_id]
        payload = None
        with ctx.measure() as window:
            started = perf_counter()
            with tracer.op("rec.open"):
                ciphertext = tracer.call("abe.AbeCiphertext.from_bytes",
                                         abe.AbeCiphertext.from_bytes, record["bytes"], ctx)
                began = tracer.start()
                try:
                    payload = abe.abe_decrypt(ctx, keyring, ciphertext, updates)
                    tracer.end("abe.abe_decrypt.granted", began)
                except abe.AccessDenied:
                    tracer.end("abe.abe_decrypt.denied", began)
            elapsed_ms = (perf_counter() - started) * 1e3

        expected = (user_id not in record["revoked"]
                    and gen.satisfies(record["formula"], state["held"][user_id]))
        if self.fault == "flip_grant" and not self._flipped:
            self._flipped = True
            expected = not expected
        granted = payload is not None
        if granted != expected or (granted and payload != record["payload"]):
            tally.check(False, f"rec.open: record {record['id']} user {user_id} "
                               f"granted={granted} expected={expected}")
            return
        kind = "open" if granted else "deny"
        used = 0
        if granted:
            # Which rows decryption pairs is the solver's choice; ask it which
            # ones, outside the timed region, then hold the meters to 2 per row.
            usable = [x for x, attr in enumerate(ciphertext.program.attributes)
                      if attr in keyring.keys
                      and (ciphertext.rows[x].c1 is not None or x in updates)]
            coefficients = lsss.solve_for_rows(ciphertext.program, usable, ctx.q) or {}
            used = len(coefficients)
            ok = (used > 0 and window.pairings == 2 * used
                  and window.scalar_muls == sum(1 for k in coefficients.values() if k != 1))
        else:
            ok = True
        tally.check(ok, f"rec.open: metered {window.pairings} pairings for {used} used rows")
        if not ok:
            return
        if granted:
            published = record["publish_counts"]
            tally.samples["rec.priced"].append(counters_cost(CostModel(), pairing.CounterSnapshot(
                published[0] + window.pairings, published[1] + window.scalar_muls)))
        tally.samples[f"rec.{kind}"].append(elapsed_ms)
        tally.counts["ops"] += 1
        tally.counts[f"opens.{kind}"] += 1
        tally.counts[f"pairing.pairings.{kind}"] += window.pairings
        tally.counts[f"pairing.scalar_muls.{kind}"] += window.scalar_muls

    def _revoke(self, state, record, user_id, rng, tracer, tally):
        ctx = state["ctx"]
        standing = [u for u in sorted(state["keyrings"])
                    if u not in record["revoked"] and u != user_id]
        with ctx.measure() as window:
            started = perf_counter()
            with tracer.op("rec.revoke"):
                ciphertext = tracer.call("abe.AbeCiphertext.from_bytes",
                                         abe.AbeCiphertext.from_bytes, record["bytes"], ctx)
                stored, updates, sealed = tracer.call(
                    "abe.revoke", abe.revoke, ctx, state["shares"], ciphertext,
                    record["sealed"], [state["keyrings"][user_id]], rng)
                data = tracer.call("abe.AbeCiphertext.to_bytes", stored.to_bytes, ctx)
                for other in standing:
                    record["deliveries"][other].update(updates)
            elapsed_ms = (perf_counter() - started) * 1e3
        held = state["held"][user_id]
        ok = all(row.c1 is None for row, attr in zip(stored.rows, stored.program.attributes)
                 if attr in held)
        tally.check(ok, f"rec.revoke: record {record['id']} kept a row readable by {user_id}")
        if not ok:
            return
        record.update(bytes=data, sealed=sealed)
        record["revoked"].add(user_id)
        tally.samples["rec.revoke"].append(elapsed_ms)
        tally.counts["ops"] += 1
        tally.counts["abe.revoke.updated_rows"] += len(updates)
        tally.counts["pairing.pairings.revoke"] += window.pairings
        tally.counts["pairing.scalar_muls.revoke"] += window.scalar_muls

    def headline(self, tally):
        busy_ms = sum(sum(tally.samples[k]) for k in
                      ("rec.publish", "rec.open", "rec.deny", "rec.revoke"))
        return tally.samples["rec.publish"], tally.counts["ops"] / (busy_ms / 1e3) if busy_ms else 0.0

    def named_metrics(self, tally):
        s = tally.samples
        _, per_s = self.headline(tally)
        records = tally.counts["records"]
        return [timing("rec.publish_ms.p50", s["rec.publish"], 0.5),
                timing("rec.publish_ms.p90", s["rec.publish"], 0.9),
                timing("rec.open_ms.p50", s["rec.open"], 0.5),
                timing("rec.open_ms.p90", s["rec.open"], 0.9),
                timing("rec.deny_ms.p50", s["rec.deny"], 0.5),
                timing("rec.revoke_ms.p50", s["rec.revoke"], 0.5),
                {"name": "rec.ops_per_s", "value": per_s, "unit": "1/s",
                 "n": int(tally.counts["ops"])},
                {"name": "rec.wire_bytes.mean",
                 "value": tally.counts["wire.record_bytes"] / records if records else 0.0,
                 "unit": "B", "n": int(records)},
                timing("rec.priced_ms.p50", s["rec.priced"], 0.5)]


def records_small(seed: int, fault: str | None = None) -> Records:
    return Records(seed, fault, name="records_small", universe_size=64, users=32,
                   user_attrs=(4, 12), leaves=(2, 16), and_heavy_share=0.0,
                   from_audience=0.75, opens_per_publish=8, revoke_every=16,
                   retain=256, nominal_block_s=0.037)


def records_wide(seed: int, fault: str | None = None) -> Records:
    return Records(seed, fault, name="records_wide", universe_size=256, users=8,
                   user_attrs=(96, 224), leaves=(64, 200), and_heavy_share=0.5,
                   from_audience=1.0, opens_per_publish=4, revoke_every=8,
                   retain=64, nominal_block_s=1.0)


# -- scenario replay ----------------------------------------------------------------

SCENARIOS = ("fig2_aggregation", "sec51_access", "revocation_demo", "full_demo", "empty")


class ScenarioReplay(Workload):
    """Passes over the bundled scenarios through the harness's in-process path."""

    name = "scenario_replay"
    op_name = "scn.pass"
    nominal_block_s = 0.034

    def setup(self, tracer, repeat: int):
        folder = Path(harness.__file__).resolve().parent / "scenarios"
        with tracer.op("setup"):
            paths = {name: folder / f"{name}.json" for name in SCENARIOS}
            expected = {}
            for name, path in paths.items():
                with open(path, encoding="utf-8") as handle:
                    expected[name] = gen.scenario_expectations(json.load(handle))
            state = {"paths": paths, "expected": expected}
            # One pass off the books, so later passes find modules and files warm.
            self.run_block(state, -1 - repeat, NullTracer(), Tally())
        return state

    def run_block(self, state, index, tracer, tally):
        seed = gen.derive(self.seed, "pass", index)
        reports = {}
        try:
            started = perf_counter()
            with tracer.op("scn.pass"):
                for name, path in state["paths"].items():
                    document = tracer.call("harness.load_scenario", harness.load_scenario, path)
                    report = tracer.call("harness.run_scenario", harness.run_scenario,
                                         document, seed)
                    reports[name] = (report, tracer.call("harness.render_report",
                                                         harness.render_report, report))
            elapsed_ms = (perf_counter() - started) * 1e3
        except Exception as exc:  # the run goes on; the failure is recorded
            tally.attempted += len(state["paths"])
            tally.fail(f"scn.pass: {type(exc).__name__}: {exc}")
            return
        good = 0
        for name, (report, text) in reports.items():
            problem = self._check(report, text, state["expected"][name])
            tally.check(problem is None, f"scn {name} seed {seed}: {problem}")
            good += problem is None
        if good == len(reports):
            tally.samples["scn.pass"].append(elapsed_ms)
            tally.counts["scenario_runs"] += good

    def _check(self, report, text, expected) -> str | None:
        if json.loads(text) != report:
            return "rendered report does not read back as the report"
        if report["error"] is not None:
            return f"error {report['error']}"
        aggregation_section = report["aggregation"]
        if expected["sums"] is None:
            if aggregation_section is not None:
                return "unexpected aggregation section"
        else:
            sums = {tuple(t["tag"]): t["sum"] for t in aggregation_section["tags"]}
            if self.fault == "wrong_aggregate" and sums:
                sums[next(iter(sums))] += 1
            if sums != expected["sums"]:
                return f"sums {sums} != {expected['sums']}"
        for record in report["records"]:
            if record["pairings"] != 1 or record["scalar_muls"] != 4 * record["rows"]:
                return f"record {record['id']} metered off the (1, 4n) encryption cost"
        for key in ("attempts", "reattempts"):
            got = report[key]
            want = expected[key]
            if len(got) != len(want):
                return f"{key}: {len(got)} outcomes, expected {len(want)}"
            for entry, (user, record_id, payload) in zip(got, want):
                granted = entry["outcome"] == "ok"
                if self.fault == "flip_grant":
                    granted = not granted
                if (entry["user"], entry["record"]) != (user, record_id) \
                        or granted != (payload is not None) \
                        or (granted and entry["payload"] != payload):
                    return f"{key}: {entry} disagrees with expected payload {payload!r}"
                if granted and (entry["pairings"] < 2 or entry["pairings"] % 2):
                    return f"{key}: granted open metered {entry['pairings']} pairings"
        return None

    def headline(self, tally):
        passes = tally.samples["scn.pass"]
        return passes, tally.counts["scenario_runs"] / (sum(passes) / 1e3) if passes else 0.0

    def named_metrics(self, tally):
        passes = tally.samples["scn.pass"]
        return [timing("scn.pass_ms.p50", passes, 0.5), timing("scn.pass_ms.p90", passes, 0.9)]


WORKLOADS = {
    "feeder_2048": Feeder,
    "records_small": records_small,
    "records_wide": records_wide,
    "scenario_replay": ScenarioReplay,
}
