"""Names of the per-layer metrics a traced run reports.

Every traced run prints all of them, whichever workload it runs; a span the
workload never reaches reads 0 calls. BENCHMARK.json lists the same names
(the self-check compares the two).
"""

from __future__ import annotations

import statistics

# Spans around calls into the program, named <module>.<function>.
SPANS = [
    "paillier.keygen",
    "aggregation.make_packet",
    "aggregation.gateway_aggregate",
    "aggregation.rtu_open",
    "aggregation.packet_codec",
    "pairing.ctx_new",
    "abe.kdc_setup",
    "abe.issue_key",
    "abe.UserKeyring.add",
    "lsss.parse_policy",
    "lsss.compile_lsss",
    "abe.abe_encrypt",
    "abe.AbeCiphertext.to_bytes",
    "abe.AbeCiphertext.from_bytes",
    "abe.abe_decrypt.granted",
    "abe.abe_decrypt.denied",
    "abe.revoke",
    "harness.load_scenario",
    "harness.run_scenario",
    "harness.render_report",
]

# The operation spans that parent them; their self time is the benchmark's
# own work between layer calls.
OP_SPANS = ["setup", "agg.round", "rec.publish", "rec.open", "rec.revoke", "scn.pass"]


def _ratio(numerator: str, denominator: str):
    return lambda t: t.counts[numerator] / t.counts[denominator] if t.counts[denominator] else 0.0


def _total(name: str):
    return lambda t: t.counts[name]


def _grant_ratio(t) -> float:
    attempts = t.counts["opens.open"] + t.counts["opens.deny"]
    return t.counts["opens.open"] / attempts if attempts else 0.0


def _priced_p50(t) -> float:
    return statistics.median(t.samples["rec.priced"]) if t.samples["rec.priced"] else 0.0


# name -> (unit, better, value from the traced run's tally). All of these are
# counts or functions of counts, so they repeat exactly for a seed.
COUNT_METRICS = {
    "paillier.add.count": ("count", "lower", _total("paillier.add.count")),
    "aggregation.fold_ratio": ("ratio", "higher", _ratio("aggregation.fold_in",
                                                         "aggregation.fold_out")),
    "wire.packet_bytes": ("B", "lower", _total("wire.packet_bytes")),
    "lsss.matrix_cells": ("count", "lower", _total("lsss.matrix_cells")),
    "wire.record_bytes": ("B", "lower", _total("wire.record_bytes")),
    "abe.grant_ratio": ("ratio", "higher", _grant_ratio),
    "abe.revoke.updated_rows": ("count", "lower", _total("abe.revoke.updated_rows")),
    "pairing.priced_ms.p50": ("ms", "lower", _priced_p50),
}
for _kind in ("publish", "open", "deny", "revoke"):
    for _meter in ("pairings", "scalar_muls"):
        _name = f"pairing.{_meter}.{_kind}"
        COUNT_METRICS[_name] = ("count", "lower", _total(_name))

TRACE_METRICS = {"trace.overhead_ms": "ms", "trace.overhead_pct": "%"}


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in print order."""
    spec = []
    for name in SPANS + OP_SPANS:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_ms", "unit": "ms", "better": "lower"})
        spec.append({"name": f"{name}.p50_ms", "unit": "ms", "better": "lower"})
    for name, (unit, better, _) in COUNT_METRICS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    for name, unit in TRACE_METRICS.items():
        spec.append({"name": name, "unit": unit, "better": "lower"})
    return spec
