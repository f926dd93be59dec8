import hashlib
import random

import pytest

from gridseal.harness import (
    CostModel,
    ScenarioError,
    counters_cost,
    estimate_comm_overhead,
    load_scenario,
    predict_cost,
    render_report,
    run_scenario,
    summarize_report,
)
from gridseal.harness.cli import _resolve_scenario, bundled_scenarios
from scenariogen import check_report, generate_scenario

SCHEMA = "gridseal-scenario/1"


def report_has_denial(report):
    outcomes = list(report.get("attempts", [])) + list(report.get("reattempts", []))
    return any(entry.get("outcome") == "denied" for entry in outcomes)


# --- cost model -------------------------------------------------------------------

def test_predict_cost_reproduces_default_figures():
    model = CostModel(4.5, 0.6)
    assert predict_cost(model, 10) == 124.5
    assert predict_cost(model, 1) == 16.5


def test_predict_cost_is_affine():
    model = CostModel(4.5, 0.6)
    slope = predict_cost(model, 2) - predict_cost(model, 1)
    for m in range(2, 20):
        assert predict_cost(model, m + 1) - predict_cost(model, m) == pytest.approx(slope)


def test_predict_cost_rejects_nonpositive():
    with pytest.raises(ValueError):
        predict_cost(CostModel(), 0)


# frozen from independent arithmetic: m^2 + m(gt + 2g) + gt + ceil(log2 w) + data
COMM_VECTORS = [
    ((6, 160, 160, 8, 1024), 4103),
    ((1, 160, 160, 2, 0), 642),
    ((10, 512, 1024, 64, 8192), 29802),
    ((0, 160, 160, 8, 1024), 1187),
    ((3, 256, 3072, 16, 100), 13937),
    ((20, 160, 160, 6, 65536), 75699),
    ((2, 224, 224, 4, 512), 2086),
    ((7, 384, 384, 128, 2048), 10552),
    ((12, 160, 320, 32, 0), 8149),
    ((5, 64, 64, 8, 40), 1092),
]


@pytest.mark.parametrize("args,expected", COMM_VECTORS)
def test_comm_overhead_pinned_vectors(args, expected):
    assert estimate_comm_overhead(*args) == expected


def test_comm_overhead_degenerate_and_shape():
    assert estimate_comm_overhead(0, 160, 160, 8, 1024) == 160 + 3 + 1024
    small = estimate_comm_overhead(10, 160, 160, 8, 0)
    double = estimate_comm_overhead(20, 160, 160, 8, 0)
    assert double - 2 * small > 0  # the quadratic term shows once m doubles
    with pytest.raises(ValueError):
        estimate_comm_overhead(3, 0, 160, 8, 0)
    with pytest.raises(ValueError):
        estimate_comm_overhead(-1, 160, 160, 8, 0)


def test_counters_cost_prices_measurements():
    model = CostModel(4.5, 0.6)
    from gridseal.pairing import CounterSnapshot
    assert counters_cost(model, CounterSnapshot(21, 50)) == 124.5


# --- scenario validation -------------------------------------------------------------

def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario({"schema": SCHEMA, "repository_decrypt": []})
    assert "repository_decrypt" in str(excinfo.value)


def test_schema_id_required():
    with pytest.raises(ScenarioError):
        load_scenario({})
    with pytest.raises(ScenarioError):
        load_scenario({"schema": "something-else/9"})


def test_validation_paths_point_at_fields():
    document = {
        "schema": SCHEMA,
        "kdcs": [{"id": "A", "attributes": ["a"]}],
        "users": [{"id": "u", "attributes": ["mystery"]}],
    }
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(document)
    assert excinfo.value.path == "users[0].attributes[0]"


@pytest.mark.parametrize("patch, path", [
    pytest.param({"users": [{"id": "u", "attributes": None}]}, "users[0].attributes",
                 id="null-user-attributes"),
    pytest.param({"kdcs": [5]}, "kdcs[0]", id="kdc-not-an-object"),
    pytest.param({"kdcs": 5}, "kdcs", id="kdcs-not-a-list"),
    pytest.param({"attempts": [{"user": ["u"], "record": "r"}]}, "attempts[0].user",
                 id="unhashable-attempt-user"),
    pytest.param({"revocations": [{"revoke": [{}]}]}, "revocations[0].revoke[0]",
                 id="unhashable-revoked-user"),
    pytest.param({"paillier": 5}, "paillier", id="paillier-not-an-object"),
    pytest.param({"paillier": {"q1": 5, "q2": 7}}, "paillier.q1", id="injected-primes"),
    pytest.param({"paillier": {}}, "paillier.bits", id="no-bits"),
    pytest.param({"records": [{"id": "r", "policy": "a", "payload": "x"},
                              {"id": "r", "policy": "a", "payload": "y"}]},
                 "records[1].id", id="duplicate-record"),
    pytest.param({"users": [{"id": "u", "attributes": ["a"]}, {"id": "u", "attributes": []}]},
                 "users[1].id", id="duplicate-user"),
    pytest.param({"kdcs": [{"id": "A", "attributes": ["a"]}, {"id": "A", "attributes": ["b"]}]},
                 "kdcs[1].id", id="duplicate-authority"),
    pytest.param({"paillier": {"bits": 16},
                  "topology": {"nodes": [{"id": "nan", "role": "NAN"},
                                         {"id": "b", "role": "BAN", "parent": "nan"},
                                         {"id": "h", "role": "HAN", "parent": "b"}],
                               "readings": [{"node": "h", "tag": ["x"], "value": True}]}},
                 "topology.readings[0].value", id="reading-a-boolean"),
    pytest.param({"paillier": {"bits": 16},
                  "topology": {"nodes": [{"id": "nan", "role": "NAN"},
                                         {"id": "h", "role": "HAN", "parent": "nan"}]}},
                 "topology.nodes", id="topology-refused-by-the-tree"),
    pytest.param({"records": [{"id": "r", "policy": "a & (b", "payload": "x"}]},
                 "records[0].policy", id="policy-syntax-error"),
])
def test_validation_rejects_malformed_shapes_with_a_path(patch, path):
    document = {"schema": SCHEMA, "kdcs": [{"id": "A", "attributes": ["a"]}],
                "users": [{"id": "u", "attributes": ["a"]}], **patch}
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(document)
    assert excinfo.value.path == path


def test_validation_rejects_duplicate_attribute_claims():
    document = {
        "schema": SCHEMA,
        "kdcs": [
            {"id": "A", "attributes": ["a"]},
            {"id": "B", "attributes": ["a"]},
        ],
    }
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(document)
    assert excinfo.value.path == "kdcs[1].attributes"


def test_validation_rejects_attribute_repeated_within_one_authority():
    document = {"schema": SCHEMA, "kdcs": [{"id": "A", "attributes": ["a", "a"]}]}
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(document)
    assert excinfo.value.path == "kdcs[0].attributes"


def test_validation_rejects_tag_with_repeated_attribute():
    document = {
        "schema": SCHEMA,
        "paillier": {"bits": 64},
        "topology": {
            "nodes": [
                {"id": "nan", "role": "NAN"},
                {"id": "ban", "role": "BAN", "parent": "nan"},
                {"id": "h", "role": "HAN", "parent": "ban"},
            ],
            "readings": [{"node": "h", "tag": ["a", "a"], "value": 1}],
        },
    }
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(document)
    assert excinfo.value.path == "topology.readings[0].tag"


def test_validation_rejects_payload_that_cannot_be_utf8():
    document = {
        "schema": SCHEMA,
        "kdcs": [{"id": "A", "attributes": ["a"]}],
        "records": [{"id": "r", "policy": "a", "payload": "\ud800"}],
    }
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(document)
    assert excinfo.value.path == "records[0].payload"


def test_a_record_policy_of_1200_leaves_loads():
    # deeper than the interpreter's recursion limit once binarized
    policy = " & ".join(("a", "b")[i % 2] for i in range(1200))
    plan = load_scenario({
        "schema": SCHEMA,
        "kdcs": [{"id": "A", "attributes": ["a", "b"]}],
        "records": [{"id": "r", "policy": policy, "payload": "p"}],
    })
    [(_, program, _)] = plan.records
    assert (program.n, program.h) == (1200, 1200)


def test_validation_rejects_unresolved_references():
    base = {
        "schema": SCHEMA,
        "kdcs": [{"id": "A", "attributes": ["a"]}],
        "users": [{"id": "u", "attributes": ["a"]}],
        "records": [{"id": "r", "policy": "a", "payload": "p"}],
    }
    bad_attempt = dict(base, attempts=[{"user": "ghost", "record": "r"}])
    with pytest.raises(ScenarioError):
        load_scenario(bad_attempt)
    bad_policy = dict(base, records=[{"id": "r", "policy": "a & ghost", "payload": "p"}])
    with pytest.raises(ScenarioError):
        load_scenario(bad_policy)
    bad_revoke = dict(base, revocations=[{"revoke": ["ghost"]}])
    with pytest.raises(ScenarioError):
        load_scenario(bad_revoke)


def test_validation_rejects_topology_without_paillier():
    with pytest.raises(ScenarioError):
        load_scenario({
            "schema": SCHEMA,
            "topology": {"nodes": [{"id": "nan", "role": "NAN"}]},
        })


def test_validation_rejects_reading_on_gateway():
    document = {
        "schema": SCHEMA,
        "paillier": {"bits": 64},
        "topology": {
            "nodes": [
                {"id": "nan", "role": "NAN"},
                {"id": "ban", "role": "BAN", "parent": "nan"},
                {"id": "h", "role": "HAN", "parent": "ban"},
            ],
            "readings": [{"node": "ban", "tag": ["x"], "value": 1}],
        },
    }
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(document)
    assert "readings[0].node" in excinfo.value.path


# --- scenario execution -----------------------------------------------------------------

def test_empty_scenario_runs_clean():
    report = run_scenario(load_scenario({"schema": SCHEMA}), seed=1)
    assert report["error"] is None
    assert report["attempts"] == [] and report["aggregation"] is None
    assert not report_has_denial(report)


def test_aggregation_scenario_sums_per_tag():
    document = {
        "schema": SCHEMA,
        "paillier": {"bits": 128},
        "topology": {
            "nodes": [
                {"id": "nan", "role": "NAN"},
                {"id": "ban", "role": "BAN", "parent": "nan"},
                {"id": "h1", "role": "HAN", "parent": "ban"},
                {"id": "h2", "role": "HAN", "parent": "ban"},
                {"id": "h3", "role": "HAN", "parent": "ban"},
            ],
            "readings": [
                {"node": "h1", "tag": ["solar"], "value": 11},
                {"node": "h2", "tag": ["fossil"], "value": 70},
                {"node": "h3", "tag": ["solar"], "value": 31},
            ],
        },
    }
    report = run_scenario(load_scenario(document), seed=5)
    assert report["error"] is None
    assert report["aggregation"]["tags"] == [
        {"tag": ["fossil"], "sum": 70},
        {"tag": ["solar"], "sum": 42},
    ]


def test_headroom_warning_emitted():
    document = {
        "schema": SCHEMA,
        "paillier": {"bits": 24},
        "topology": {
            "nodes": [
                {"id": "nan", "role": "NAN"},
                {"id": "ban", "role": "BAN", "parent": "nan"},
                {"id": "h1", "role": "HAN", "parent": "ban"},
                {"id": "h2", "role": "HAN", "parent": "ban"},
            ],
            "readings": [
                {"node": "h1", "tag": ["x"], "value": 300000},
                {"node": "h2", "tag": ["x"], "value": 300000},
            ],
        },
    }
    report = run_scenario(load_scenario(document), seed=6)
    assert report["aggregation"]["warnings"]


def test_access_scenario_end_to_end():
    document = {
        "schema": SCHEMA,
        "kdcs": [{"id": "A", "attributes": ["a", "b"]}],
        "users": [
            {"id": "full", "attributes": ["a", "b"]},
            {"id": "partial", "attributes": ["a"]},
        ],
        "records": [{"id": "r", "policy": "a & b", "payload": "classified"}],
        "attempts": [
            {"user": "full", "record": "r"},
            {"user": "partial", "record": "r"},
        ],
    }
    report = run_scenario(load_scenario(document), seed=7)
    assert report["error"] is None
    outcomes = {(a["user"], a["outcome"]) for a in report["attempts"]}
    assert outcomes == {("full", "ok"), ("partial", "denied")}
    ok = next(a for a in report["attempts"] if a["outcome"] == "ok")
    assert ok["payload"] == "classified"
    assert ok["pairings"] == 2 * 2
    record = report["records"][0]
    assert (record["pairings"], record["scalar_muls"]) == (1, 4 * 2)
    assert report_has_denial(report)


def test_revocation_scenario_reattempts():
    document = {
        "schema": SCHEMA,
        "kdcs": [{"id": "A", "attributes": ["a"]}],
        "users": [
            {"id": "out", "attributes": ["a"]},
            {"id": "in", "attributes": ["a"]},
        ],
        "records": [{"id": "r", "policy": "a", "payload": "rotating"}],
        "attempts": [
            {"user": "out", "record": "r"},
            {"user": "in", "record": "r"},
        ],
        "revocations": [{"revoke": ["out"]}],
    }
    report = run_scenario(load_scenario(document), seed=8)
    assert report["error"] is None
    assert [a["outcome"] for a in report["attempts"]] == ["ok", "ok"]
    assert [a["outcome"] for a in report["reattempts"]] == ["denied", "ok"]
    revocation = report["revocations"][0]
    assert revocation["records"][0]["updated_rows"] == [0]
    assert revocation["records"][0]["recipients"] == ["in"]


def test_row_updates_merge_across_revocations():
    # the first revocation updates rows 0, 1 and 2 and the second only rows 0 and 2,
    # so s decrypts the reattempt only if it still holds row 1's first update
    document = {
        "schema": SCHEMA,
        "kdcs": [{"id": "A", "attributes": ["a", "b", "c"]}],
        "users": [
            {"id": "s", "attributes": ["a", "c"]},
            {"id": "x", "attributes": ["c"]},
            {"id": "y", "attributes": ["b"]},
        ],
        "records": [{"id": "r", "policy": "(a & c) | b", "payload": "merged"}],
        "attempts": [{"user": "s", "record": "r"}],
        "revocations": [{"revoke": ["x"]}, {"revoke": ["y"]}],
    }
    report = run_scenario(load_scenario(document), seed=5)
    assert report["error"] is None
    assert [r["records"][0]["updated_rows"] for r in report["revocations"]] == [[0, 1, 2], [0, 2]]
    assert [r["records"][0]["recipients"] for r in report["revocations"]] == [["s", "y"], ["s"]]
    assert [(a["outcome"], a["payload"]) for a in report["reattempts"]] == [("ok", "merged")]


def test_scenario_determinism_under_seed():
    document = {
        "schema": SCHEMA,
        "paillier": {"bits": 96},
        "topology": {
            "nodes": [
                {"id": "nan", "role": "NAN"},
                {"id": "ban", "role": "BAN", "parent": "nan"},
                {"id": "h1", "role": "HAN", "parent": "ban"},
            ],
            "readings": [{"node": "h1", "tag": ["t"], "value": 4}],
        },
        "kdcs": [{"id": "A", "attributes": ["a"]}],
        "users": [{"id": "u", "attributes": ["a"]}],
        "records": [{"id": "r", "policy": "a", "payload": "p"}],
        "attempts": [{"user": "u", "record": "r"}],
    }
    scenario = load_scenario(document)
    first = render_report(run_scenario(scenario, seed=99))
    second = render_report(run_scenario(scenario, seed=99))
    assert first == second
    third = render_report(run_scenario(scenario, seed=100))
    assert third != first


# SHA-256 of the rendered report of every bundled scenario at four seeds. A
# change that moves a single report byte fails here; one that means to must
# say why and re-pin.
GOLDEN_REPORTS = {
    ("empty", 1): "7ed5dde174b2d71a5781e658f264f412ed04cef30203818b8b4f36942c4ca3fd",
    ("empty", 7): "738756498cf1cfb948501b00d530cf1e1313c94ea60cf469487bad77d541f987",
    ("empty", 11): "d984e3dd03b34959ea1c71ddde20142b1bf0b8edf30d7a320a18b0ffe12498f6",
    ("empty", 9001): "2505d5707bc2a880fcdaed52283fb3a044ac3d8ec30dcdd9d537080b170300b0",
    ("fig2_aggregation", 1): "9e836e9c8aaaa237247e477481f1c435ee60aab2594fa1780cb5ac112401c985",
    ("fig2_aggregation", 7): "61fa84b93e68c0ced799fc657e73bfaec1935855101cd0eb144eb264909e0a4e",
    ("fig2_aggregation", 11): "14002ae7a4feb883734b7f8027c1a7db6a093a26f3677a911946b624e43bd411",
    ("fig2_aggregation", 9001): "96a55f426265f5ad0dce6929e27ef591c434e0b690b03860f34ca83ce05826d5",
    ("full_demo", 1): "f27ab0299e771cdc4a9f44041c5511b787bf3a0384b38f7718663d0642d3823c",
    ("full_demo", 7): "214c89a0ae245275094b5107d6594a3053ee0305fda14c053950c095d6ff38a7",
    ("full_demo", 11): "ce9fb26e94330308c30ba997a907b052e2abb8a49b3b861ab775432acc61e40b",
    ("full_demo", 9001): "4cc437c6c2c566ab3ebde022a410088cf2063a3380e083db93f0b7343b1edd87",
    ("revocation_demo", 1): "499aea5798f84ab47470fab57060f4e80574f3dc22a9c709d89b8d2f70cffa1f",
    ("revocation_demo", 7): "77cba3c897fcef26676e110359a4490e092f9462c73cf714050b1ba9e3fa447d",
    ("revocation_demo", 11): "9e660a658cd18f08884dc5f5d7561fe5cd5d7b3449c37130d367b7fd42da0c90",
    ("revocation_demo", 9001): "d47fc8634e90c882a05ca43b79ae0995403f92e37ac21fa9d40c0223646e812f",
    ("sec51_access", 1): "3b3f63a47a3cfaa4ca2168ea046199287ae257ce04fa6e2f9cb7a4582623ef9a",
    ("sec51_access", 7): "000d341f99f3ee90bb8bf73c5e7c4e5feddd1d2677a2b7d8dc7dd4ce62a1f530",
    ("sec51_access", 11): "49761946d2ae6415a176d2b13f4c44cbb42217412fd0d5506fea24a0d6d950dd",
    ("sec51_access", 9001): "8755fc964227d8e3c1fb418e126cfd25f6e81a1fd19a2288e446e8f643fdc6de",
}


def test_seeded_reports_are_pinned():
    digests = {}
    for name in bundled_scenarios():
        scenario = _resolve_scenario(name)
        for seed in (1, 7, 11, 9001):
            report = render_report(run_scenario(scenario, seed=seed))
            digests[name, seed] = hashlib.sha256(report.encode("utf-8")).hexdigest()
    assert digests == GOLDEN_REPORTS


def test_generated_scenarios_agree_with_plain_policy_evaluation():
    # 1,000 seeded random scenarios, about half with a gateway tree: every
    # aggregate, outcome, cost and revocation against the oracle's evaluation
    faults = {}
    for seed in range(1000):
        document, formulas = generate_scenario(random.Random(seed))
        found = check_report(document, formulas, run_scenario(load_scenario(document), seed))
        if found:
            faults[seed] = found
    assert faults == {}


def test_attempt_level_failure_recorded_as_error(monkeypatch):
    import gridseal.harness.scenario as scenario_module

    def boom(*args, **kwargs):
        raise ValueError("backend blew a fuse")

    monkeypatch.setattr(scenario_module.abe, "abe_decrypt", boom)
    document = {
        "schema": SCHEMA,
        "kdcs": [{"id": "A", "attributes": ["a"]}],
        "users": [{"id": "u", "attributes": ["a"]}],
        "records": [{"id": "r", "policy": "a", "payload": "p"}],
        "attempts": [{"user": "u", "record": "r"}],
    }
    report = run_scenario(load_scenario(document), seed=3)
    assert report["error"] is None  # the phase survives
    assert report["attempts"][0]["outcome"] == "error"
    assert "fuse" in report["attempts"][0]["message"]


# The report section each phase fills, in run order.
PHASE_SECTIONS = [("aggregate", "aggregation"), ("kdc-setup", "kdcs"), ("issue-keys", "users"),
                  ("encrypt", "records"), ("attempts", "attempts"), ("revoke", "revocations"),
                  ("reattempts", "reattempts")]


@pytest.mark.parametrize("target, phase", [
    ("paillier_keygen", "aggregate"),
    ("abe.kdc_setup", "kdc-setup"),
    ("abe.issue_key", "issue-keys"),
    ("abe.abe_encrypt", "encrypt"),
    ("abe.revoke", "revoke"),
])
def test_the_loop_names_every_phase_that_fails(monkeypatch, target, phase):
    import gridseal.harness.scenario as scenario_module

    def boom(*args, **kwargs):
        raise RuntimeError(f"{target} failed")

    owner, _, attribute = target.rpartition(".")
    monkeypatch.setattr(scenario_module.abe if owner else scenario_module, attribute, boom)
    report = run_scenario(_resolve_scenario("full_demo"), seed=1)
    assert report["error"] == {"phase": phase, "message": f"{target} failed"}
    names = [name for name, _ in PHASE_SECTIONS]
    assert [name for name, _ in scenario_module._PHASES] == names
    for _, section in PHASE_SECTIONS[names.index(phase):]:
        assert report[section] in (None, []), section
    assert report["totals"] == {"pairings": 0, "scalar_muls": 0}


def test_a_scenario_file_with_a_duplicate_member_is_refused(tmp_path):
    # read as the last member, the duplicated value would aggregate to 2
    path = tmp_path / "twice.json"
    path.write_text(
        '{"schema": "gridseal-scenario/1", "paillier": {"bits": 64}, "topology": {"nodes": ['
        '{"id": "nan", "role": "NAN"}, {"id": "ban", "role": "BAN", "parent": "nan"}, '
        '{"id": "h1", "role": "HAN", "parent": "ban"}], '
        '"readings": [{"node": "h1", "tag": ["t"], "value": 1, "value": 2}]}}')
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert excinfo.value.path == str(path)
    assert "'value' appears twice" in str(excinfo.value)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_scenario_file_with_a_non_standard_constant_is_refused(tmp_path, constant):
    path = tmp_path / "constant.json"
    path.write_text('{"schema": "gridseal-scenario/1", "paillier": {"bits": %s}}' % constant)
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(str(path))
    assert excinfo.value.path == str(path)
    assert f"{constant} is not a JSON value" in str(excinfo.value)


def test_summarize_report_lines_are_pinned():
    report = {
        "aggregation": {"tags": [{"tag": ["load:high", "zone:2"], "sum": 3100}],
                        "warnings": ["aggregate headroom: max reading times meter count "
                                     "approaches the modulus"]},
        "records": [{"id": "r1", "rows": 2, "columns": 2, "pairings": 1, "scalar_muls": 8}],
        "attempts": [{"user": "u3", "record": "r1", "outcome": "ok"},
                     {"user": "auditor", "record": "r1", "outcome": "denied"}],
        "reattempts": [{"user": "u3", "record": "r1", "outcome": "error"}],
        "totals": {"pairings": 0, "scalar_muls": 0},
        "error": {"phase": "reattempts", "message": "backend blew a fuse"},
    }
    assert summarize_report(report).splitlines() == [
        "aggregate load:high+zone:2: 3100",
        "warning: aggregate headroom: max reading times meter count approaches the modulus",
        "stored r1: 2 rows, 1 pairings, 8 scalar muls",
        "attempt u3 -> r1: ok",
        "attempt auditor -> r1: denied",
        "reattempt u3 -> r1: error",
        "totals: 0 pairings, 0 scalar muls",
        "error in reattempts: backend blew a fuse",
    ]
