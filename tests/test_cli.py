import json

import pytest

from gridseal import pairing
from gridseal.harness.cli import bundled_scenarios, main
from gridseal.harness.cost import estimate_comm_overhead
from gridseal.pairing import ReferenceBackend


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bundled_scenarios_present():
    names = bundled_scenarios()
    for expected in ("empty", "fig2_aggregation", "full_demo", "revocation_demo",
                     "sec51_access"):
        assert expected in names


def test_run_is_deterministic_under_seed(capsys):
    code_a, out_a, _ = run_cli(capsys, "run", "fig2_aggregation", "--seed", "7")
    code_b, out_b, _ = run_cli(capsys, "run", "fig2_aggregation", "--seed", "7")
    assert code_a == code_b == 0
    assert out_a == out_b
    _, out_c, _ = run_cli(capsys, "run", "fig2_aggregation", "--seed", "8")
    assert out_c != out_a


def test_run_fig2_sums_five_meters(capsys):
    code, out, err = run_cli(capsys, "run", "fig2_aggregation", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["aggregation"]["tags"][0]["sum"] == 1210 + 830 + 560 + 1975 + 402
    assert "aggregate" in err


def test_run_sec51_denial_exit_code(capsys):
    code, out, _ = run_cli(capsys, "run", "sec51_access", "--seed", "7")
    assert code == 1
    report = json.loads(out)
    outcomes = {a["user"]: a["outcome"] for a in report["attempts"]}
    assert outcomes == {"u3": "ok", "solar_analyst": "denied"}


def test_run_writes_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "empty", "--seed", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["error"] is None


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_missing_scenario_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_scenario")
    assert code == 2
    assert "no_such_scenario" in err


def test_invalid_scenario_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "gridseal-scenario/1", "zap": 1}))
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "zap" in err


@pytest.mark.parametrize("patch, path", [
    ({"users": [{"id": "u", "attributes": None}]}, "users[0].attributes"),
    ({"kdcs": [5]}, "kdcs[0]"),
])
def test_malformed_scenario_shape_exits_2_with_its_path(tmp_path, capsys, patch, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "gridseal-scenario/1", **patch}))
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert path in err and "Traceback" not in err


def test_aggregate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "aggregate", "full_demo", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["aggregation"]["meters"] == 5
    assert report["records"] == []  # access phases stripped


def test_keygen_paillier(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "keygen-paillier", "--bits", "128", "--seed", "3")
    assert code == 0
    summary = json.loads(out)
    assert summary["modulus_bits"] in (127, 128)
    prefix = tmp_path / "keys"
    code, out, _ = run_cli(capsys, "keygen-paillier", "--bits", "64", "--seed", "3",
                           "--out", str(prefix))
    assert code == 0
    assert (tmp_path / "keys.pub.json").exists()
    assert (tmp_path / "keys.sec.json").exists()


def test_bench_reports_default_prediction(capsys):
    code, out, err = run_cli(capsys, "bench", "--m", "10", "--seed", "5")
    assert code == 0
    result = json.loads(out)
    assert result["predicted_ms"] == 124.5
    assert result["encrypt"] == {"pairings": 1, "scalar_muls": 40}
    assert result["decrypt"]["pairings"] == 20
    assert result["wire_bytes"] > 0
    # priced for the 13-byte payload the command actually encrypts
    q_bits = pairing.DEFAULT_Q_160.bit_length()
    assert result["comm_bits"] == estimate_comm_overhead(10, q_bits, q_bits, 10, 104)
    assert "wall clock" in err


@pytest.fixture()
def keyfiles(tmp_path, capsys):
    kdc_a = tmp_path / "kdc_a.json"
    kdc_b = tmp_path / "kdc_b.json"
    user_full = tmp_path / "full.json"
    user_partial = tmp_path / "partial.json"
    assert main(["kdc-setup", "--kdc-id", "A", "--attrs", "alpha,beta",
                 "--out", str(kdc_a), "--seed", "1"]) == 0
    assert main(["kdc-setup", "--kdc-id", "B", "--attrs", "gamma",
                 "--out", str(kdc_b), "--seed", "2"]) == 0
    assert main(["issue-key", "--kdc", str(kdc_a), "--user", "full",
                 "--attrs", "alpha,beta", "--keyring", str(user_full)]) == 0
    assert main(["issue-key", "--kdc", str(kdc_b), "--user", "full",
                 "--attrs", "gamma", "--keyring", str(user_full)]) == 0
    assert main(["issue-key", "--kdc", str(kdc_a), "--user", "partial",
                 "--attrs", "alpha", "--keyring", str(user_partial)]) == 0
    capsys.readouterr()
    return kdc_a, kdc_b, user_full, user_partial


def test_encrypt_decrypt_revoke_cycle(keyfiles, tmp_path, capsys):
    kdc_a, kdc_b, user_full, user_partial = keyfiles
    ct = tmp_path / "record.json"
    state = tmp_path / "state.json"
    updates = tmp_path / "updates.json"

    code, out, _ = run_cli(capsys, "encrypt", "--policy", "(alpha & gamma) | beta",
                           "--payload", "meter digest",
                           "--kdc", str(kdc_a), "--kdc", str(kdc_b),
                           "--out", str(ct), "--state", str(state), "--seed", "4")
    assert code == 0

    code, out, _ = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                           "--keyring", str(user_full))
    assert code == 0
    assert json.loads(out) == {"outcome": "ok", "payload": "meter digest"}

    code, out, _ = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                           "--keyring", str(user_partial))
    assert code == 1
    assert json.loads(out)["outcome"] == "denied"

    # revoke the full keyring; the partial user never qualified anyway
    code, out, _ = run_cli(capsys, "revoke", "--ciphertext", str(ct),
                           "--state", str(state),
                           "--kdc", str(kdc_a), "--kdc", str(kdc_b),
                           "--revoked", str(user_full),
                           "--out-updates", str(updates), "--seed", "5")
    assert code == 0
    assert json.loads(out)["updated_rows"] == [0, 1, 2]

    code, out, _ = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                           "--keyring", str(user_full))
    assert code == 1

    # a fresh user in good standing receives the out-of-band rows and succeeds
    survivor = tmp_path / "survivor.json"
    assert main(["issue-key", "--kdc", str(kdc_a), "--user", "survivor",
                 "--attrs", "beta", "--keyring", str(survivor)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                           "--keyring", str(survivor), "--updates", str(updates))
    assert code == 0
    assert json.loads(out)["payload"] == "meter digest"


def test_issue_key_guards_foreign_keyring(keyfiles, tmp_path, capsys):
    kdc_a, _, user_full, _ = keyfiles
    code, _, err = run_cli(capsys, "issue-key", "--kdc", str(kdc_a),
                           "--user", "someone_else", "--attrs", "alpha",
                           "--keyring", str(user_full))
    assert code == 2
    assert "belongs" in err


class _AltBackend(ReferenceBackend):
    wire_id = 0x5A

    def __init__(self, q):
        super().__init__(q)
        self.ident = f"alt:{q}"


def test_issue_key_takes_group_header_from_authority(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(pairing._BACKENDS, "alt", (_AltBackend.wire_id, _AltBackend))
    kdc = tmp_path / "kdc.json"
    keyring = tmp_path / "keyring.json"
    assert main(["kdc-setup", "--kdc-id", "A", "--attrs", "alpha", "--backend", "alt",
                 "--q-bits", "64", "--out", str(kdc), "--seed", "1"]) == 0
    assert main(["issue-key", "--kdc", str(kdc), "--user", "u",
                 "--attrs", "alpha", "--keyring", str(keyring)]) == 0
    authority = json.loads(kdc.read_text())
    issued = json.loads(keyring.read_text())
    for field in ("backend", "q", "hash"):
        assert issued[field] == authority[field]

    other = tmp_path / "other.json"
    assert main(["kdc-setup", "--kdc-id", "B", "--attrs", "beta",
                 "--out", str(other), "--seed", "2"]) == 0
    capsys.readouterr()
    code, _, err = run_cli(capsys, "issue-key", "--kdc", str(other), "--user", "u",
                           "--attrs", "beta", "--keyring", str(keyring))
    assert code == 2
    assert "different groups" in err


def test_files_in_the_dense_program_layout_are_refused_by_kind(keyfiles, tmp_path, capsys):
    kdc_a, _, user_full, _ = keyfiles
    ct = tmp_path / "record.json"
    state = tmp_path / "state.json"
    assert main(["encrypt", "--policy", "alpha & beta", "--payload", "x",
                 "--kdc", str(kdc_a), "--out", str(ct), "--state", str(state),
                 "--seed", "3"]) == 0
    for path, old_kind in ((ct, "gridseal-ciphertext"), (state, "gridseal-rtu-state")):
        document = json.loads(path.read_text())
        assert document["kind"] == old_kind + "-v2"
        document["kind"] = old_kind
        path.write_text(json.dumps(document))
    capsys.readouterr()
    code, _, err = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                           "--keyring", str(user_full))
    assert code == 2
    assert "expected a gridseal-ciphertext-v2 file" in err
    ct.write_text(json.dumps({**json.loads(ct.read_text()), "kind": "gridseal-ciphertext-v2"}))
    code, _, err = run_cli(capsys, "revoke", "--ciphertext", str(ct), "--state", str(state),
                           "--kdc", str(kdc_a), "--revoked", str(user_full),
                           "--out-updates", str(tmp_path / "updates.json"))
    assert code == 2
    assert "expected a gridseal-rtu-state-v2 file" in err
