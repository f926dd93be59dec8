import json
import random

import pytest

from gridseal import abe, pairing
from gridseal.harness.cli import bundled_scenarios, main
from gridseal.harness.cost import estimate_comm_overhead
from gridseal.lsss import compile_lsss, parse_policy
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


def test_a_record_is_refused_under_another_backend_of_the_same_order():
    q = 2**61 - 1
    reference, alt = pairing.ctx_new(q=q), pairing.PairingContext(_AltBackend(q))
    authority = abe.kdc_setup(reference, "A", ["a"], random.Random(1))
    record, _ = abe.abe_encrypt(reference, authority.shares, compile_lsss(parse_policy("a")),
                                b"x", random.Random(2))
    blob = record.to_bytes(reference)
    at = len(record.program.to_bytes())
    assert blob[at] == ReferenceBackend.wire_id
    with pytest.raises(ValueError, match="another backend"):
        abe.AbeCiphertext.from_bytes(blob, alt)
    # only the backend byte stands in the way: under alt's wire id the rest decodes
    relabelled = blob[:at] + bytes([_AltBackend.wire_id]) + blob[at + 1:]
    assert abe.AbeCiphertext.from_bytes(relabelled, alt).to_bytes(alt) == relabelled


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
    for path, old_kind, kind in ((ct, "gridseal-ciphertext", "gridseal-ciphertext-v3"),
                                 (state, "gridseal-rtu-state", "gridseal-rtu-state-v4")):
        document = json.loads(path.read_text())
        assert document["kind"] == kind
        document["kind"] = old_kind
        path.write_text(json.dumps(document))
    capsys.readouterr()
    code, _, err = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                           "--keyring", str(user_full))
    assert code == 2
    assert "expected a gridseal-ciphertext-v3 file" in err
    ct.write_text(json.dumps({**json.loads(ct.read_text()), "kind": "gridseal-ciphertext-v3"}))
    code, _, err = run_cli(capsys, "revoke", "--ciphertext", str(ct), "--state", str(state),
                           "--kdc", str(kdc_a), "--revoked", str(user_full),
                           "--out-updates", str(tmp_path / "updates.json"))
    assert code == 2
    assert "expected a gridseal-rtu-state-v4 file" in err


@pytest.fixture()
def record(keyfiles, tmp_path, capsys):
    """A record under "alpha | beta" after one revocation, with every file kind beside it."""
    kdc_a, _, user_full, user_partial = keyfiles
    files = {"kdc": kdc_a, "keyring": user_full, "survivor": tmp_path / "survivor.json",
             "ciphertext": tmp_path / "record.json", "state": tmp_path / "state.json",
             "updates": tmp_path / "updates.json"}
    assert main(["issue-key", "--kdc", str(kdc_a), "--user", "survivor", "--attrs", "beta",
                 "--keyring", str(files["survivor"])]) == 0
    assert main(["encrypt", "--policy", "alpha | beta", "--payload", "meter digest",
                 "--kdc", str(kdc_a), "--out", str(files["ciphertext"]),
                 "--state", str(files["state"]), "--seed", "3"]) == 0
    assert main(revoke_argv(files, tmp_path)) == 0
    assert main(decrypt_argv(files, tmp_path)) == 0
    capsys.readouterr()
    return files


def revoke_argv(files, tmp_path):
    return ["revoke", "--ciphertext", str(files["ciphertext"]), "--state", str(files["state"]),
            "--kdc", str(files["kdc"]), "--revoked", str(files["keyring"]),
            "--out-updates", str(files["updates"]), "--seed", "5"]


def decrypt_argv(files, tmp_path):
    return ["decrypt", "--ciphertext", str(files["ciphertext"]),
            "--keyring", str(files["survivor"]), "--updates", str(files["updates"])]


def encrypt_argv(files, tmp_path):
    return ["encrypt", "--policy", "alpha", "--payload", "x", "--kdc", str(files["kdc"]),
            "--out", str(tmp_path / "fresh.json"), "--state", str(tmp_path / "fresh_state.json")]


def issue_argv(files, tmp_path):
    return ["issue-key", "--kdc", str(files["kdc"]), "--user", "full", "--attrs", "alpha",
            "--keyring", str(files["keyring"])]


def test_every_file_carries_its_group_header(record):
    authority = json.loads(record["kdc"].read_text())
    header = {field: authority[field] for field in ("backend", "q", "hash")}
    assert header == {"backend": "reference", "q": str(pairing.DEFAULT_Q_160), "hash": "sha256"}
    for name, kind in (("keyring", "gridseal-keyring-v2"), ("ciphertext", "gridseal-ciphertext-v3"),
                       ("state", "gridseal-rtu-state-v4"), ("updates", "gridseal-updates-v3")):
        document = json.loads(record[name].read_text())
        assert document["kind"] == kind
        assert {field: document[field] for field in header} == header


def test_files_of_the_previous_header_are_refused_by_kind(record, tmp_path, capsys):
    for name, old_kind in (("state", "gridseal-rtu-state-v2"), ("updates", "gridseal-updates")):
        document = json.loads(record[name].read_text())
        document["kind"] = old_kind
        record[name].write_text(json.dumps(document))
    code, _, err = run_cli(capsys, *revoke_argv(record, tmp_path))
    assert code == 2
    assert "expected a gridseal-rtu-state-v4 file" in err
    code, _, err = run_cli(capsys, *decrypt_argv(record, tmp_path))
    assert code == 2
    assert "expected a gridseal-updates-v3 file" in err


@pytest.mark.parametrize("name, old_kind, kind, argv", [
    pytest.param("kdc", "gridseal-kdc", "gridseal-kdc-v2", issue_argv, id="kdc"),
    pytest.param("keyring", "gridseal-keyring", "gridseal-keyring-v2", issue_argv, id="keyring"),
    pytest.param("ciphertext", "gridseal-ciphertext-v2", "gridseal-ciphertext-v3", decrypt_argv,
                 id="ciphertext"),
    pytest.param("state", "gridseal-rtu-state-v3", "gridseal-rtu-state-v4", revoke_argv,
                 id="state"),
    pytest.param("updates", "gridseal-updates-v2", "gridseal-updates-v3", decrypt_argv,
                 id="updates"),
])
def test_files_of_the_framed_element_layout_are_refused_by_kind(record, tmp_path, capsys,
                                                                name, old_kind, kind, argv):
    document = json.loads(record[name].read_text())
    assert document["kind"] == kind
    record[name].write_text(json.dumps({**document, "kind": old_kind}))
    code, _, err = run_cli(capsys, *argv(record, tmp_path))
    assert code == 2
    assert f"expected a {kind} file" in err


@pytest.fixture()
def other_group(tmp_path, capsys):
    """The same file kinds in a 64-bit group."""
    files = {"kdc": tmp_path / "o_kdc.json", "keyring": tmp_path / "o_full.json",
             "survivor": tmp_path / "o_survivor.json", "ciphertext": tmp_path / "o_record.json",
             "state": tmp_path / "o_state.json", "updates": tmp_path / "o_updates.json"}
    assert main(["kdc-setup", "--kdc-id", "O", "--attrs", "alpha,beta", "--q-bits", "64",
                 "--out", str(files["kdc"]), "--seed", "9"]) == 0
    for user, attrs in (("keyring", "alpha,beta"), ("survivor", "beta")):
        assert main(["issue-key", "--kdc", str(files["kdc"]), "--user", user, "--attrs", attrs,
                     "--keyring", str(files[user])]) == 0
    assert main(["encrypt", "--policy", "alpha | beta", "--payload", "other",
                 "--kdc", str(files["kdc"]), "--out", str(files["ciphertext"]),
                 "--state", str(files["state"]), "--seed", "3"]) == 0
    assert main(revoke_argv(files, tmp_path)) == 0
    capsys.readouterr()
    return files


@pytest.mark.parametrize("argv, swapped", [
    pytest.param(lambda f, t: encrypt_argv(f, t) + ["--kdc", str(f["other_kdc"])], None,
                 id="encrypt-kdc"),
    pytest.param(decrypt_argv, "survivor", id="decrypt-keyring"),
    pytest.param(decrypt_argv, "updates", id="decrypt-updates"),
    pytest.param(revoke_argv, "state", id="revoke-state"),
    pytest.param(revoke_argv, "kdc", id="revoke-kdc"),
    pytest.param(revoke_argv, "keyring", id="revoke-revoked-keyring"),
])
def test_files_from_different_groups_exit_2(record, other_group, tmp_path, capsys,
                                            argv, swapped):
    files = {**record, "other_kdc": other_group["kdc"]}
    if swapped:
        files[swapped] = other_group[swapped]
    before = {name: path.read_bytes() for name, path in record.items()}
    code, _, err = run_cli(capsys, *argv(files, tmp_path))
    assert code == 2
    assert "different groups" in err
    assert {name: path.read_bytes() for name, path in record.items()} == before


def test_revoke_refuses_the_state_of_another_record(record, keyfiles, tmp_path, capsys):
    kdc_a = keyfiles[0]
    for policy, name in (("alpha | beta", "same_policy"), ("alpha", "fewer_rows")):
        assert main(["encrypt", "--policy", policy, "--payload", "B", "--kdc", str(kdc_a),
                     "--out", str(tmp_path / f"{name}.json"),
                     "--state", str(tmp_path / f"{name}_state.json"), "--seed", "8"]) == 0
    capsys.readouterr()
    before = record["ciphertext"].read_bytes()
    for name in ("same_policy", "fewer_rows"):
        files = {**record, "state": tmp_path / f"{name}_state.json"}
        code, _, err = run_cli(capsys, *revoke_argv(files, tmp_path))
        assert code == 2
        assert "another record" in err
    assert record["ciphertext"].read_bytes() == before


def test_revoke_names_an_attribute_no_authority_file_covers(keyfiles, tmp_path, capsys):
    kdc_a, kdc_b, user_full, _ = keyfiles
    ct, state = tmp_path / "record.json", tmp_path / "state.json"
    assert main(["encrypt", "--policy", "alpha | gamma", "--payload", "x", "--kdc", str(kdc_a),
                 "--kdc", str(kdc_b), "--out", str(ct), "--state", str(state),
                 "--seed", "3"]) == 0
    capsys.readouterr()
    before = ct.read_bytes(), state.read_bytes()
    code, _, err = run_cli(capsys, "revoke", "--ciphertext", str(ct), "--state", str(state),
                           "--kdc", str(kdc_a), "--revoked", str(user_full),
                           "--out-updates", str(tmp_path / "updates.json"))
    assert code == 2
    assert "no published share for attribute 'gamma'" in err
    assert (ct.read_bytes(), state.read_bytes()) == before


def test_secret_files_are_owner_only(record, tmp_path, capsys):
    assert main(["keygen-paillier", "--bits", "64", "--seed", "3",
                 "--out", str(tmp_path / "paillier")]) == 0
    secret = [record["kdc"], record["keyring"], record["survivor"], record["state"],
              tmp_path / "paillier.sec.json"]
    for path in secret:
        assert path.stat().st_mode & 0o777 == 0o600, path
    # a rewrite narrows a file that was readable by others
    for path in (record["keyring"], record["state"]):
        path.chmod(0o644)
    assert main(issue_argv(record, tmp_path)) == 0
    assert main(revoke_argv(record, tmp_path)) == 0
    capsys.readouterr()
    for path in (record["keyring"], record["state"]):
        assert path.stat().st_mode & 0o777 == 0o600, path


def _set(field, value):
    return lambda document: {**document, field: value}


def _drop(field):
    return lambda document: {k: v for k, v in document.items() if k != field}


@pytest.mark.parametrize("name, damage, argv", [
    pytest.param("ciphertext", lambda d: [], decrypt_argv, id="ciphertext-list"),
    pytest.param("ciphertext", lambda d: "{", decrypt_argv, id="ciphertext-not-json"),
    pytest.param("ciphertext", _drop("data"), decrypt_argv, id="ciphertext-no-data"),
    pytest.param("ciphertext", _set("q", 7), decrypt_argv, id="header-q-number"),
    pytest.param("ciphertext", _set("backend", None), decrypt_argv, id="header-no-backend"),
    pytest.param("kdc", _set("shares", None), issue_argv, id="kdc-shares-null"),
    pytest.param("kdc", _drop("secrets"), issue_argv, id="kdc-no-secrets"),
    pytest.param("kdc", lambda d: {**d, "secrets": {"alpha": {"alpha": 5, "y": "7"}}},
                 issue_argv, id="kdc-secret-number"),
    pytest.param("keyring", _set("user", 5), issue_argv, id="keyring-user-number"),
    pytest.param("survivor", lambda d: {**d, "keys": {"beta": d["keys"]["beta"] + "00"}},
                 decrypt_argv, id="keyring-trailing-bytes"),
    pytest.param("survivor", _set("keys", ["beta"]), decrypt_argv, id="keyring-keys-list"),
    pytest.param("state", lambda d: {**d, "v": "".join(d["v"])}, revoke_argv,
                 id="state-v-string"),
    pytest.param("state", _set("seed", None), revoke_argv, id="state-seed-null"),
    pytest.param("state", _set("payload", None), revoke_argv, id="state-payload-null"),
    pytest.param("state", lambda d: {**d, "rho": d["rho"][:1]}, revoke_argv,
                 id="state-rho-short"),
    pytest.param("updates", _set("rows", None), decrypt_argv, id="updates-rows-null"),
    pytest.param("updates", _set("rows", {"x": "00"}), decrypt_argv, id="updates-bad-index"),
])
def test_malformed_files_exit_2_naming_the_file(record, tmp_path, capsys, name, damage, argv):
    damaged = damage(json.loads(record[name].read_text()))
    record[name].write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
    code, _, err = run_cli(capsys, *argv(record, tmp_path))
    assert code == 2
    assert str(record[name]) in err
