import argparse
import json
import os
import random
from importlib import resources

import pytest

from gridseal import abe, paillier, pairing
from gridseal.harness import cli
from gridseal.harness.cli import _resolve_scenario, bundled_scenarios, main
from gridseal.harness.cost import estimate_comm_overhead
from gridseal.harness.scenario import Scenario, load_scenario, render_report, run_scenario
from gridseal.lsss import LsssProgram, compile_lsss, parse_policy
from gridseal.pairing import ReferenceBackend
from gridseal.primes import is_probable_prime

REFERENCE_WARNING = "public shares reveal every attribute secret \u03b1"


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


@pytest.mark.parametrize("existing", [False, True], ids=["created", "replaced"])
def test_a_report_file_is_owner_only(tmp_path, capsys, existing):
    # the report holds the payload of every granted attempt
    target = tmp_path / "report.json"
    if existing:
        target.write_text("{}")
        target.chmod(0o644)
    umask = os.umask(0o022)
    try:
        code, out, _ = run_cli(capsys, "run", "full_demo", "--seed", "1", "--out", str(target))
    finally:
        os.umask(umask)
    assert (code, out) == (1, "")  # the auditor is denied
    assert "ok" in [a["outcome"] for a in json.loads(target.read_text())["attempts"]]
    assert target.stat().st_mode & 0o777 == 0o600


def test_run_warns_once_about_the_reference_backend(capsys):
    code, out, err = run_cli(capsys, "run", "full_demo", "--seed", "1")
    assert code == 1  # the auditor is denied
    assert err.count(REFERENCE_WARNING) == 1 and err.startswith("warning: ")
    bundle = resources.files("gridseal.harness").joinpath("scenarios", "full_demo.json")
    scenario = load_scenario(json.loads(bundle.read_text(encoding="utf-8")))
    assert out == render_report(run_scenario(scenario, seed=1))
    # no pairing group, no warning
    code, _, err = run_cli(capsys, "run", "empty", "--seed", "1")
    assert code == 0 and "warning" not in err


def test_a_composite_group_order_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "kdc-setup", "--kdc-id", "A", "--attrs", "a", "--q", "15",
                           "--out", str(tmp_path / "kdc.json"))
    assert code == 2
    assert "must be prime" in err
    assert not (tmp_path / "kdc.json").exists()


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_missing_scenario_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_scenario")
    assert code == 2
    assert "no_such_scenario" in err


def test_unknown_scenario_lists_the_bundled_names(capsys):
    code, _, err = run_cli(capsys, "run", "nope")
    assert code == 2
    assert "no file or bundled scenario named 'nope'" in err
    listed = err[err.index("(bundled: ") + len("(bundled: "):err.rindex(")")].split(", ")
    assert listed == bundled_scenarios()
    assert {"empty", "fig2_aggregation", "full_demo", "revocation_demo",
            "sec51_access"} <= set(listed)


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


@pytest.fixture()
def no_keygen(monkeypatch):
    """Fail the test if any Paillier prime is drawn."""
    def drawn(bits, rng):
        raise AssertionError(f"a {bits}-bit prime was drawn")
    monkeypatch.setattr(paillier, "generate_prime", drawn)


@pytest.mark.parametrize("argv, message", [
    pytest.param(["kdc-setup", "--kdc-id", "A", "--attrs", "a", "--out", "kdc.json",
                  "--q", str(2**1279 - 1)], "at most 1024", id="argv1-at most 1024"),
    # with --q a missing --m check would prove the group order first
    pytest.param(["bench", "--m", "1025", "--q", "18446744073709551557"],
                 "--m must be at most 1024", id="argv2---m must be at most 1024"),
])
def test_oversized_requests_exit_2_before_any_keygen(no_keygen, tmp_path, monkeypatch, capsys,
                                                     argv, message):
    def proven(n):
        raise AssertionError(f"a {n.bit_length()}-bit order was proven")
    monkeypatch.setattr(pairing, "is_probable_prime", proven)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "sec51_access", "--out", "r.json", "--q", "18446744073709551557"],
                 id="run-q"),
    pytest.param(["run", "sec51_access", "--out", "r.json", "--q-bits", "64"], id="run-q-bits"),
    pytest.param(["run", "sec51_access", "--out", "r.json", "--backend", "reference"],
                 id="run-backend"),
    pytest.param(["kdc-setup", "--kdc-id", "A", "--attrs", "a", "--out", "kdc.json",
                  "--q-bits", "64"], id="kdc-setup-q-bits"),
    pytest.param(["bench", "--m", "2", "--q-bits", "64"], id="bench-q-bits"),
])
def test_removed_group_options_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    # a scenario run always works in the pinned group; an order is only ever supplied
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert list(tmp_path.iterdir()) == []


def test_an_oversized_scenario_key_exits_2_before_any_keygen(no_keygen, tmp_path, capsys):
    scenario = json.loads(resources.files("gridseal.harness").joinpath(
        "scenarios", "fig2_aggregation.json").read_text(encoding="utf-8"))
    scenario["paillier"] = {"bits": 8193}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "paillier.bits" in err and "16 to 8192" in err


def test_a_scenario_with_injected_primes_exits_2_at_paillier_q1(no_keygen, tmp_path, capsys):
    scenario = json.loads(resources.files("gridseal.harness").joinpath(
        "scenarios", "fig2_aggregation.json").read_text(encoding="utf-8"))
    scenario["paillier"] = {"q1": 5, "q2": 7}
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert "paillier.q1: unknown field" in err


def test_the_cli_offers_exactly_its_commands(capsys):
    # a Paillier key pair lives only inside a run; no command prints one
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(commands.choices) == {"run", "aggregate", "kdc-setup", "issue-key", "encrypt",
                                     "decrypt", "revoke", "bench"}
    code, out, err = run_cli(capsys, "keygen-paillier", "--bits", "64")
    assert (code, out) == (2, "")
    assert "invalid choice: 'keygen-paillier'" in err


def test_aggregate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "aggregate", "full_demo", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["aggregation"]["meters"] == 5
    assert report["records"] == []  # access phases stripped


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


def test_decrypt_prints_the_code_of_each_denial(keyfiles, tmp_path, capsys):
    kdc_a, _, user_full, user_partial = keyfiles
    ct, state = tmp_path / "record.json", tmp_path / "state.json"
    assert main(["encrypt", "--policy", "alpha & beta", "--payload", "x", "--kdc", str(kdc_a),
                 "--out", str(ct), "--state", str(state), "--seed", "4"]) == 0
    capsys.readouterr()

    def denial(keyring):
        code, out, _ = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                               "--keyring", str(keyring))
        assert code == 1
        document = json.loads(out)
        assert document["outcome"] == "denied" and document["reason"]
        return document["code"]

    assert denial(user_partial) == "policy-unsatisfied"
    planted = tmp_path / "planted.json"  # full's key for beta beside partial's for alpha
    document = json.loads(user_partial.read_text())
    document["keys"]["beta"] = json.loads(user_full.read_text())["keys"]["beta"]
    planted.write_text(json.dumps(document))
    assert denial(planted) == "auth-failed"
    assert main(["revoke", "--ciphertext", str(ct), "--state", str(state), "--kdc", str(kdc_a),
                 "--revoked", str(user_full), "--out-updates", str(tmp_path / "updates.json"),
                 "--seed", "5"]) == 0
    capsys.readouterr()
    assert denial(user_full) == "rows-revoked"


def test_encrypt_takes_a_policy_of_1200_leaves(keyfiles, tmp_path, capsys):
    kdc_a = keyfiles[0]
    policy = " & ".join(("alpha", "beta")[i % 2] for i in range(1200))
    code, out, _ = run_cli(capsys, "encrypt", "--policy", policy, "--payload", "x",
                           "--kdc", str(kdc_a), "--out", str(tmp_path / "ct.json"),
                           "--state", str(tmp_path / "state.json"))
    assert code == 0
    assert (json.loads(out)["rows"], json.loads(out)["columns"]) == (1200, 1200)


def revoked_twice(tmp_path, *group):
    """A record under "(x & y) | z" revoked from A (updates u1), then from B (u2).

    Returns the argv of a decrypt by `user` with the named updates files.
    """
    kdc, ct, state = tmp_path / "kdc.json", tmp_path / "ct.json", tmp_path / "state.json"
    assert main(["kdc-setup", "--kdc-id", "K", "--attrs", "x,y,z,w", "--out", str(kdc),
                 "--seed", "1", *group]) == 0
    for user, attrs in (("U", "x,y"), ("A", "y"), ("B", "z")):
        assert main(["issue-key", "--kdc", str(kdc), "--user", user, "--attrs", attrs,
                     "--keyring", str(tmp_path / f"{user}.json")]) == 0
    assert main(["encrypt", "--policy", "(x & y) | z", "--payload", "p", "--kdc", str(kdc),
                 "--out", str(ct), "--state", str(state), "--seed", "2"]) == 0
    for n, user in ((1, "A"), (2, "B")):
        assert main(["revoke", "--ciphertext", str(ct), "--state", str(state),
                     "--kdc", str(kdc), "--revoked", str(tmp_path / f"{user}.json"),
                     "--out-updates", str(tmp_path / f"u{n}.json"), "--seed", str(n)]) == 0

    def decrypt_argv(user, *updates):
        argv = ["decrypt", "--ciphertext", str(ct), "--keyring", str(tmp_path / f"{user}.json")]
        for name in updates:
            argv += ["--updates", str(tmp_path / f"{name}.json")]
        return argv
    return decrypt_argv


def test_decrypt_merges_the_updates_of_successive_revocations(tmp_path, capsys):
    decrypt_argv = revoked_twice(tmp_path)
    capsys.readouterr()

    def decrypt(user, *updates):
        code, out, _ = run_cli(capsys, *decrypt_argv(user, *updates))
        return code, json.loads(out)["outcome"]

    assert decrypt("U", "u1", "u2") == (0, "ok")
    # a later file's row replaces an earlier one's, so the order matters; B was in
    # good standing at the first revocation only, so it is sent u1 alone
    for user, updates in (("U", ("u1",)), ("U", ("u2",)), ("U", ("u2", "u1")),
                          ("A", ("u1", "u2")), ("B", ("u1",))):
        assert decrypt(user, *updates) == (1, "denied"), (user, updates)


def test_decrypt_refuses_the_updates_of_another_record(keyfiles, tmp_path, capsys):
    """Two records under "alpha | beta", each revoked from the full keyring once."""
    kdc_a, _, user_full, _ = keyfiles
    survivor = tmp_path / "survivor.json"
    assert main(["issue-key", "--kdc", str(kdc_a), "--user", "survivor", "--attrs", "beta",
                 "--keyring", str(survivor)]) == 0
    for n in (1, 2):
        ct, state = tmp_path / f"record{n}.json", tmp_path / f"state{n}.json"
        assert main(["encrypt", "--policy", "alpha | beta", "--payload", f"record {n}",
                     "--kdc", str(kdc_a), "--out", str(ct), "--state", str(state),
                     "--seed", str(n)]) == 0
        assert main(["revoke", "--ciphertext", str(ct), "--state", str(state),
                     "--kdc", str(kdc_a), "--revoked", str(user_full),
                     "--out-updates", str(tmp_path / f"updates{n}.json"),
                     "--seed", str(10 + n)]) == 0
    capsys.readouterr()

    def decrypt(record, updates):
        return run_cli(capsys, "decrypt", "--ciphertext", str(tmp_path / f"record{record}.json"),
                       "--keyring", str(survivor),
                       "--updates", str(tmp_path / f"updates{updates}.json"))

    code, out, _ = decrypt(1, 1)
    assert (code, json.loads(out)) == (0, {"outcome": "ok", "payload": "record 1"})
    code, out, err = decrypt(1, 2)
    assert (code, out) == (2, "")
    assert f"{tmp_path / 'updates2.json'}: the updates belong to another record" in err


def test_successive_updates_of_one_record_carry_its_digest(tmp_path, capsys):
    revoked_twice(tmp_path)
    first, second = (json.loads((tmp_path / f"u{n}.json").read_text()) for n in (1, 2))
    assert first["record"] == second["record"]
    assert len(bytes.fromhex(first["record"])) == 32


@pytest.mark.parametrize("group, proofs", [([], 0), (["--q", "18446744073709551557"], 1)],
                         ids=["pinned-order", "supplied-order"])
def test_a_command_builds_its_group_once(tmp_path, capsys, monkeypatch, group, proofs):
    decrypt_argv = revoked_twice(tmp_path, *group)
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(pairing, "is_probable_prime",
                        lambda n: calls.append(n) or is_probable_prime(n))
    code, out, err = run_cli(capsys, *decrypt_argv("U", "u1", "u2"))
    assert (code, json.loads(out)["outcome"]) == (0, "ok")
    # four files, one group: a supplied order is proven once, the pinned one never
    assert len(calls) == proofs
    assert err.count(REFERENCE_WARNING) == 1


def test_decrypt_self_tests_its_group_once(record, tmp_path, capsys, monkeypatch):
    calls = []
    self_test = pairing._self_test
    monkeypatch.setattr(pairing, "_self_test",
                        lambda backend, rng: calls.append(backend) or self_test(backend, rng))
    code, out, _ = run_cli(capsys, *decrypt_argv(record, tmp_path))
    assert (code, json.loads(out)["outcome"]) == (0, "ok")
    assert len(calls) == 1  # three files, one group


def test_issue_key_guards_foreign_keyring(keyfiles, tmp_path, capsys):
    kdc_a, _, user_full, _ = keyfiles
    code, _, err = run_cli(capsys, "issue-key", "--kdc", str(kdc_a),
                           "--user", "someone_else", "--attrs", "alpha",
                           "--keyring", str(user_full))
    assert code == 2
    assert "belongs" in err


def test_issue_key_refuses_keys_that_fail_their_published_share(keyfiles, tmp_path, capsys):
    # with the two g_y shares swapped, no key the authority issues passes its pairing check
    kdc_a = keyfiles[0]
    document = json.loads(kdc_a.read_text())
    shares = document["shares"]
    shares["alpha"]["g_y"], shares["beta"]["g_y"] = shares["beta"]["g_y"], shares["alpha"]["g_y"]
    kdc_a.write_text(json.dumps(document))
    keyring = tmp_path / "newcomer.json"
    code, _, err = run_cli(capsys, "issue-key", "--kdc", str(kdc_a), "--user", "newcomer",
                           "--attrs", "alpha", "--keyring", str(keyring))
    assert code == 2
    assert "fails verification" in err
    assert not keyring.exists()


def test_issue_key_refuses_a_keyring_holding_a_bad_key(keyfiles, capsys):
    # full's key for alpha, planted in partial's keyring, fails partial's check
    kdc_a, _, user_full, user_partial = keyfiles
    planted = json.loads(user_partial.read_text())
    planted["keys"]["alpha"] = json.loads(user_full.read_text())["keys"]["alpha"]
    user_partial.write_text(json.dumps(planted))
    before = user_partial.read_bytes()
    code, out, err = run_cli(capsys, "issue-key", "--kdc", str(kdc_a), "--user", "partial",
                             "--attrs", "beta", "--keyring", str(user_partial))
    assert (code, out) == (2, "")
    assert str(user_partial) in err and "'alpha' fails verification" in err
    assert user_partial.read_bytes() == before


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
                 "--q", "18446744073709551557", "--out", str(kdc), "--seed", "1"]) == 0
    assert main(["issue-key", "--kdc", str(kdc), "--user", "u",
                 "--attrs", "alpha", "--keyring", str(keyring)]) == 0
    authority = json.loads(kdc.read_text())
    issued = json.loads(keyring.read_text())
    for field in ("backend", "q"):
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
    for path, old_kind, kind in ((ct, "gridseal-ciphertext", "gridseal-ciphertext-v4"),
                                 (state, "gridseal-rtu-state", "gridseal-rtu-state-v6")):
        document = json.loads(path.read_text())
        assert document["kind"] == kind
        document["kind"] = old_kind
        path.write_text(json.dumps(document))
    capsys.readouterr()
    code, _, err = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                           "--keyring", str(user_full))
    assert code == 2
    assert "expected a gridseal-ciphertext-v4 file" in err
    ct.write_text(json.dumps({**json.loads(ct.read_text()), "kind": "gridseal-ciphertext-v4"}))
    code, _, err = run_cli(capsys, "revoke", "--ciphertext", str(ct), "--state", str(state),
                           "--kdc", str(kdc_a), "--revoked", str(user_full),
                           "--out-updates", str(tmp_path / "updates.json"))
    assert code == 2
    assert "expected a gridseal-rtu-state-v6 file" in err


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


def issue_beta_argv(files, tmp_path):
    return ["issue-key", "--kdc", str(files["kdc"]), "--user", "full", "--attrs", "beta",
            "--keyring", str(files["keyring"])]


def test_every_file_carries_its_group_header(record):
    authority = json.loads(record["kdc"].read_text())
    header = {field: authority[field] for field in ("backend", "q")}
    assert header == {"backend": "reference", "q": str(pairing.DEFAULT_Q_160)}
    assert authority["kind"] == "gridseal-kdc-v4" and "hash" not in authority
    for name, kind in (("keyring", "gridseal-keyring-v3"), ("ciphertext", "gridseal-ciphertext-v4"),
                       ("state", "gridseal-rtu-state-v6"), ("updates", "gridseal-updates-v5")):
        document = json.loads(record[name].read_text())
        assert document["kind"] == kind
        assert {field: document[field] for field in header} == header
        assert "hash" not in document


def test_a_kdc_file_holds_only_what_its_reader_reads(record):
    document = json.loads(record["kdc"].read_text())
    assert set(document) == {"kind", "backend", "q", "kdc_id", "secrets", "shares"}
    assert set(document["secrets"]) == set(document["shares"]) == {"alpha", "beta"}


def test_a_state_file_holds_only_what_revocation_reads(record):
    document = json.loads(record["state"].read_text())
    assert set(document) == {"kind", "backend", "q", "program", "v", "rho", "payload"}


def test_a_state_file_of_the_previous_layout_exits_2_naming_it(record, tmp_path, capsys):
    # a gridseal-rtu-state-v5 file also held the masking vector w and the KEM seed
    document = json.loads(record["state"].read_text())
    record["state"].write_text(json.dumps({**document, "kind": "gridseal-rtu-state-v5",
                                           "w": ["0"] * len(document["v"]), "seed": "00"}))
    before = record["ciphertext"].read_bytes()
    code, out, err = run_cli(capsys, *revoke_argv(record, tmp_path))
    assert (code, out) == (2, "")
    assert f"{record['state']}: expected a gridseal-rtu-state-v6 file" in err
    assert record["ciphertext"].read_bytes() == before


def test_every_file_kind_the_cli_writes_is_read(tmp_path, capsys, monkeypatch):
    written, read = set(), set()
    save, load = cli._save, cli._load
    monkeypatch.setattr(cli, "_save",
                        lambda path, kind, *rest: written.add(kind) or save(path, kind, *rest))
    monkeypatch.setattr(cli, "_load",
                        lambda path, kind, *rest: read.add(kind) or load(path, kind, *rest))
    kdc, user, survivor, ct, state, updates = (
        str(tmp_path / f"{name}.json")
        for name in ("kdc", "user", "survivor", "ct", "state", "updates"))
    for argv in (["kdc-setup", "--kdc-id", "A", "--attrs", "alpha,beta", "--out", kdc,
                  "--seed", "1"],
                 ["issue-key", "--kdc", kdc, "--user", "u", "--attrs", "alpha,beta",
                  "--keyring", user],
                 ["issue-key", "--kdc", kdc, "--user", "s", "--attrs", "beta",
                  "--keyring", survivor],
                 ["encrypt", "--policy", "alpha | beta", "--payload", "p", "--kdc", kdc,
                  "--out", ct, "--state", state, "--seed", "2"],
                 ["decrypt", "--ciphertext", ct, "--keyring", user],
                 ["revoke", "--ciphertext", ct, "--state", state, "--kdc", kdc,
                  "--revoked", user, "--out-updates", updates, "--seed", "3"],
                 ["decrypt", "--ciphertext", ct, "--keyring", survivor, "--updates", updates]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert written == {"gridseal-kdc-v4", "gridseal-keyring-v3", "gridseal-ciphertext-v4",
                       "gridseal-rtu-state-v6", "gridseal-updates-v5"}
    assert written <= read


def test_files_of_the_previous_header_are_refused_by_kind(record, tmp_path, capsys):
    # the kinds before the identity hash left the header may hold SHA-1 hashes
    for name, old_kind, argv in (("kdc", "gridseal-kdc-v2", issue_argv),
                                 ("keyring", "gridseal-keyring-v2", issue_argv),
                                 ("ciphertext", "gridseal-ciphertext-v3", decrypt_argv),
                                 ("state", "gridseal-rtu-state-v4", revoke_argv),
                                 ("updates", "gridseal-updates-v3", decrypt_argv),
                                 ("state", "gridseal-rtu-state-v2", revoke_argv),
                                 ("updates", "gridseal-updates", decrypt_argv)):
        text = record[name].read_text()
        kind = json.loads(text)["kind"]
        record[name].write_text(json.dumps({**json.loads(text), "kind": old_kind, "hash": "sha1"}))
        code, _, err = run_cli(capsys, *argv(record, tmp_path))
        assert code == 2, old_kind
        assert f"expected a {kind} file" in err
        record[name].write_text(text)


@pytest.mark.parametrize("name, old_kind, kind, argv", [
    pytest.param("kdc", "gridseal-kdc", "gridseal-kdc-v4", issue_argv, id="kdc"),
    pytest.param("kdc", "gridseal-kdc-v3", "gridseal-kdc-v4", issue_argv, id="kdc-attribute-list"),
    pytest.param("keyring", "gridseal-keyring", "gridseal-keyring-v3", issue_argv, id="keyring"),
    pytest.param("ciphertext", "gridseal-ciphertext-v2", "gridseal-ciphertext-v4", decrypt_argv,
                 id="ciphertext"),
    pytest.param("state", "gridseal-rtu-state-v3", "gridseal-rtu-state-v6", revoke_argv,
                 id="state"),
    pytest.param("updates", "gridseal-updates-v2", "gridseal-updates-v5", decrypt_argv,
                 id="updates"),
    pytest.param("updates", "gridseal-updates-v4", "gridseal-updates-v5", decrypt_argv,
                 id="updates-unbound"),
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
    assert main(["kdc-setup", "--kdc-id", "O", "--attrs", "alpha,beta",
                 "--q", "18446744073709551557", "--out", str(files["kdc"]), "--seed", "9"]) == 0
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
        assert (f"error: {files['ciphertext']} with {files['state']}: "
                "the sealed state belongs to another record") in err
    assert record["ciphertext"].read_bytes() == before


def test_a_program_the_walk_cannot_decide_is_refused(keyfiles, tmp_path, capsys):
    # (1, 1), (0, 1) spans (1, 0) only as row 0 minus row 1; it is "alpha & beta"
    # compiled, (1, 1), (0, -1), with one sign flipped, and encodes to as many bytes
    kdc_a, _, user_full, _ = keyfiles
    ct, state, updates = (tmp_path / f"{name}.json" for name in ("record", "state", "updates"))
    assert main(["encrypt", "--policy", "alpha & beta", "--payload", "x", "--kdc", str(kdc_a),
                 "--out", str(ct), "--state", str(state), "--seed", "3"]) == 0
    capsys.readouterr()
    compiled = compile_lsss(parse_policy("alpha & beta")).to_bytes().hex()
    walkless = LsssProgram(((1, 1), (0, 1)), ("alpha", "beta"))
    record = json.loads(ct.read_text())
    ctx = pairing.ctx_new(q=int(record["q"]))
    assert record["data"].startswith(compiled)
    data = bytes.fromhex(walkless.to_bytes().hex() + record["data"][len(compiled):])
    with pytest.raises(ValueError, match="start with"):
        abe.AbeCiphertext.from_bytes(data, ctx)
    shares = abe.kdc_setup(ctx, "A", ["alpha", "beta"], random.Random(1)).shares
    with pytest.raises(ValueError, match="start with"):
        abe.abe_encrypt(ctx, shares, walkless, b"x", random.Random(2))
    document = json.loads(state.read_text())
    assert document["program"] == compiled
    state.write_text(json.dumps({**document, "program": walkless.to_bytes().hex()}))
    before = ct.read_bytes(), state.read_bytes()
    code, out, err = run_cli(capsys, "revoke", "--ciphertext", str(ct), "--state", str(state),
                             "--kdc", str(kdc_a), "--revoked", str(user_full),
                             "--out-updates", str(updates))
    assert (code, out) == (2, "")
    assert f"error: {state}: malformed gridseal-rtu-state-v6 file (ValueError: " in err
    assert "start with" in err
    assert (ct.read_bytes(), state.read_bytes()) == before and not updates.exists()


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
    # the record and state are not at fault: the --kdc file is
    assert err.endswith(f"\nerror: no published share for attribute 'gamma' in --kdc {kdc_a}\n")
    assert (ct.read_bytes(), state.read_bytes()) == before


def test_encrypt_names_an_attribute_no_authority_file_covers(keyfiles, tmp_path, capsys):
    kdc_a, kdc_b, _, _ = keyfiles
    ct, state = tmp_path / "record.json", tmp_path / "state.json"
    code, out, err = run_cli(capsys, "encrypt", "--policy", "alpha & delta", "--payload", "x",
                             "--kdc", str(kdc_a), "--kdc", str(kdc_b),
                             "--out", str(ct), "--state", str(state), "--seed", "3")
    assert (code, out) == (2, "")
    assert err.endswith("\nerror: no published share for attribute 'delta' "
                        f"in --kdc {kdc_a}, --kdc {kdc_b}\n")
    assert not ct.exists() and not state.exists()


def test_secret_files_are_owner_only(record, tmp_path, capsys):
    for path in (record["kdc"], record["keyring"], record["survivor"], record["state"]):
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


def _secret(attribute, member, value):
    """Set secrets.<attribute>.<member> to value(its old value, q)."""
    def damage(document):
        secret = document["secrets"][attribute]
        new = str(value(int(secret[member]), int(document["q"])))
        return {**document, "secrets": {**document["secrets"], attribute: {**secret, member: new}}}
    return damage


def _first(member, value):
    """Set the state's <member>[0] to value(its old value, q)."""
    return lambda document: {**document, member: [
        str(value(int(document[member][0]), int(document["q"])))] + document[member][1:]}


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
    # an authority whose secrets and shares differ could issue a key for an
    # attribute no record can be encrypted to, or publish a share it cannot serve
    pytest.param("kdc", lambda d: {**d, "shares": {"alpha": d["shares"]["alpha"]}},
                 issue_beta_argv, id="kdc-share-missing"),
    pytest.param("kdc", lambda d: {**d, "secrets": {"alpha": d["secrets"]["alpha"]}},
                 issue_argv, id="kdc-secret-missing"),
    pytest.param("kdc", lambda d: {**d, "shares": {**d["shares"], "gamma": d["shares"]["beta"]}},
                 issue_argv, id="kdc-share-extra"),
    pytest.param("keyring", _set("user", 5), issue_argv, id="keyring-user-number"),
    pytest.param("kdc", _set("kdc_id", [1, 2]), issue_argv, id="kdc-id-list"),
    pytest.param("kdc", _set("kdc_id", [1, 2]), encrypt_argv, id="kdc-id-list-encrypt"),
    pytest.param("survivor", lambda d: {**d, "keys": {"beta": d["keys"]["beta"] + "00"}},
                 decrypt_argv, id="keyring-trailing-bytes"),
    pytest.param("survivor", _set("keys", ["beta"]), decrypt_argv, id="keyring-keys-list"),
    pytest.param("state", lambda d: {**d, "v": "".join(d["v"])}, revoke_argv,
                 id="state-v-string"),
    pytest.param("state", _set("payload", None), revoke_argv, id="state-payload-null"),
    pytest.param("state", lambda d: {**d, "rho": d["rho"][:1]}, revoke_argv,
                 id="state-rho-short"),
    pytest.param("updates", _set("rows", None), decrypt_argv, id="updates-rows-null"),
    pytest.param("updates", _set("rows", {"x": "00"}), decrypt_argv, id="updates-bad-index"),
    pytest.param("updates", _drop("record"), decrypt_argv, id="updates-no-record"),
    # decimal and hex fields read only what the CLI writes: str(int) and lowercase .hex()
    pytest.param("ciphertext", lambda d: {**d, "q": "0" + d["q"]}, decrypt_argv,
                 id="header-q-leading-zero"),
    pytest.param("ciphertext", lambda d: {**d, "data": d["data"].upper()}, decrypt_argv,
                 id="ciphertext-data-uppercase"),
    pytest.param("ciphertext", lambda d: {**d, "data": " " + d["data"]}, decrypt_argv,
                 id="ciphertext-data-space"),
    pytest.param("kdc", lambda d: {**d, "secrets": {a: {**s, "y": "+" + s["y"]}
                                                    for a, s in d["secrets"].items()}},
                 issue_argv, id="kdc-secret-plus"),
    pytest.param("survivor", lambda d: {**d, "keys": {a: e.upper() for a, e in d["keys"].items()}},
                 decrypt_argv, id="keyring-key-uppercase"),
    pytest.param("state", lambda d: {**d, "v": [" " + x for x in d["v"]]}, revoke_argv,
                 id="state-v-space"),
    pytest.param("state", lambda d: {**d, "rho": [x[:1] + "_" + x[1:] for x in d["rho"]]},
                 revoke_argv, id="state-rho-underscore"),
    pytest.param("state", lambda d: {**d, "program": d["program"].upper()}, revoke_argv,
                 id="state-program-uppercase"),
    pytest.param("state", lambda d: {**d, "program": d["program"] + "00"}, revoke_argv,
                 id="state-program-trailing-bytes"),
    pytest.param("state", lambda d: {**d, "payload": d["payload"][:2] + " " + d["payload"][2:]},
                 revoke_argv, id="state-payload-space"),
    pytest.param("updates", lambda d: {**d, "rows": {"0" + i: e for i, e in d["rows"].items()}},
                 decrypt_argv, id="updates-index-leading-zero"),
    pytest.param("updates", lambda d: {**d, "rows": {i: e.upper() for i, e in d["rows"].items()}},
                 decrypt_argv, id="updates-element-uppercase"),
    # a secret or state entry outside the range it is drawn from would give one
    # key or one state many spellings
    pytest.param("kdc", _secret("beta", "alpha", lambda x, q: -1), issue_argv,
                 id="kdc-alpha-negative"),
    pytest.param("kdc", _secret("beta", "alpha", lambda x, q: -1), encrypt_argv,
                 id="kdc-alpha-negative-encrypt"),
    pytest.param("kdc", _secret("beta", "alpha", lambda x, q: 0), encrypt_argv,
                 id="kdc-alpha-zero"),
    pytest.param("kdc", _secret("beta", "y", lambda x, q: q + 5), issue_argv, id="kdc-y-over-q"),
    pytest.param("kdc", _secret("beta", "y", lambda x, q: q + 5), encrypt_argv,
                 id="kdc-y-over-q-encrypt"),
    pytest.param("kdc", _secret("beta", "y", lambda x, q: x + q), issue_argv,
                 id="kdc-y-raised-by-q"),
    pytest.param("state", _first("v", lambda x, q: -1), revoke_argv, id="state-v-negative"),
    pytest.param("state", _first("v", lambda x, q: q), revoke_argv, id="state-v-q"),
    pytest.param("state", _first("rho", lambda x, q: x + q), revoke_argv,
                 id="state-rho-raised-by-q"),
    pytest.param("state", _first("rho", lambda x, q: 0), revoke_argv, id="state-rho-zero"),
])
def test_malformed_files_exit_2_naming_the_file(record, tmp_path, capsys, name, damage, argv):
    damaged = damage(json.loads(record[name].read_text()))
    record[name].write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    code, _, err = run_cli(capsys, *argv(record, tmp_path))
    assert code == 2
    assert str(record[name]) in err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("name, damage, argv, member", [
    ("kdc", _secret("beta", "alpha", lambda x, q: -1), encrypt_argv,
     "secrets.beta.alpha must lie in [1, q), found -1"),
    ("state", _first("v", lambda x, q: -1), revoke_argv, "v[0] must lie in [0, q), found -1"),
], ids=["kdc-alpha", "state-v"])
def test_an_out_of_range_scalar_exits_2_naming_its_member(record, tmp_path, capsys,
                                                          name, damage, argv, member):
    record[name].write_text(json.dumps(damage(json.loads(record[name].read_text()))))
    code, out, err = run_cli(capsys, *argv(record, tmp_path))
    assert (code, out) == (2, "")
    assert str(record[name]) in err and member in err


@pytest.mark.parametrize("name, argv", [
    ("ciphertext", decrypt_argv), ("state", revoke_argv), ("updates", decrypt_argv),
    ("kdc", encrypt_argv), ("survivor", decrypt_argv)])
def test_an_unknown_member_exits_2_naming_it(record, tmp_path, capsys, name, argv):
    document = json.loads(record[name].read_text())
    record[name].write_text(json.dumps({**document, "extra": 1}))
    code, out, err = run_cli(capsys, *argv(record, tmp_path))
    assert (code, out) == (2, "")
    assert f"{record[name]}: unknown member 'extra' in a {document['kind']} file" in err


@pytest.mark.parametrize("section, member", [("secrets", "alpha"), ("shares", "e_alpha")])
@pytest.mark.parametrize("argv", [encrypt_argv, issue_argv, revoke_argv])
def test_an_unknown_member_of_a_kdc_entry_exits_2_naming_it(record, tmp_path, capsys,
                                                             section, member, argv):
    document = json.loads(record["kdc"].read_text())
    attribute = sorted(document[section])[-1]
    document[section][attribute]["extra"] = 1
    record["kdc"].write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *argv(record, tmp_path))
    assert (code, out) == (2, "")
    assert str(record["kdc"]) in err and f"unknown member 'extra' in {section}.{attribute}" in err
    del document[section][attribute]["extra"], document[section][attribute][member]
    record["kdc"].write_text(json.dumps(document))
    assert run_cli(capsys, *argv(record, tmp_path))[0] == 2  # and a missing one


@pytest.mark.parametrize("name", ["fig2_aggregation", "full_demo"])
@pytest.mark.parametrize("seed", [1, 7, 11, 9001])
def test_aggregate_prints_the_report_of_the_aggregation_section(capsys, name, seed):
    code, out, _ = run_cli(capsys, "aggregate", name, "--seed", str(seed))
    scenario = _resolve_scenario(name)
    alone = Scenario(scenario.paillier, scenario.topology, scenario.readings)
    assert (code, out) == (0, render_report(run_scenario(alone, seed=seed)))


def _record_under_alpha(kdc_a, tmp_path, capsys):
    ct = tmp_path / "alpha_record.json"
    assert main(["encrypt", "--policy", "alpha", "--payload", "x", "--kdc", str(kdc_a),
                 "--out", str(ct), "--state", str(tmp_path / "alpha_state.json"),
                 "--seed", "4"]) == 0
    capsys.readouterr()
    return ct


def test_a_keyring_naming_an_attribute_twice_is_refused(keyfiles, tmp_path, capsys):
    # full's key for alpha, then partial's own: read as the last member, partial's opened
    kdc_a, _, user_full, user_partial = keyfiles
    ct = _record_under_alpha(kdc_a, tmp_path, capsys)
    planted = json.loads(user_full.read_text())["keys"]["alpha"]
    user_partial.write_text(user_partial.read_text().replace(
        '"keys": {', f'"keys": {{"alpha": "{planted}",', 1))
    code, out, err = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                             "--keyring", str(user_partial))
    assert (code, out) == (2, "")
    assert f"{user_partial}: not a JSON document (member 'alpha' appears twice)" in err


def test_a_keyring_with_a_second_kind_is_refused(keyfiles, tmp_path, capsys):
    # read as the last member, the keyring's own kind hid the KDC kind before it
    kdc_a, _, user_full, _ = keyfiles
    ct = _record_under_alpha(kdc_a, tmp_path, capsys)
    user_full.write_text(user_full.read_text().replace("{", '{"kind": "gridseal-kdc-v4",', 1))
    code, out, err = run_cli(capsys, "decrypt", "--ciphertext", str(ct),
                             "--keyring", str(user_full))
    assert (code, out) == (2, "")
    assert f"{user_full}: not a JSON document (member 'kind' appears twice)" in err


def test_a_scenario_file_with_a_duplicate_member_exits_2(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"schema": "gridseal-scenario/1", "schema": "gridseal-scenario/1"}')
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err == f"validation error: {path}: not a JSON document " \
                  "(member 'schema' appears twice)\n"


@pytest.fixture()
def conflicting_kdcs(tmp_path, capsys):
    """Authority A publishes d1 and d2, authority B its own, different share for d1."""
    kdc_a, kdc_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["kdc-setup", "--kdc-id", "A", "--attrs", "d1,d2", "--out", str(kdc_a),
                 "--seed", "1"]) == 0
    assert main(["kdc-setup", "--kdc-id", "B", "--attrs", "d1", "--out", str(kdc_b),
                 "--seed", "2"]) == 0
    capsys.readouterr()
    return kdc_a, kdc_b


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["a-then-b", "b-then-a"])
def test_encrypt_refuses_authorities_that_publish_different_shares(conflicting_kdcs, tmp_path,
                                                                   capsys, order):
    # read in order, the later file's share silently replaced the earlier one's
    first, second = (conflicting_kdcs[i] for i in order)
    ct, state = tmp_path / "record.json", tmp_path / "state.json"
    code, out, err = run_cli(capsys, "encrypt", "--policy", "d1", "--payload", "x",
                             "--kdc", str(first), "--kdc", str(second),
                             "--out", str(ct), "--state", str(state), "--seed", "3")
    assert (code, out) == (2, "")
    assert f"{first} and {second} publish different shares for attribute 'd1'" in err
    assert not ct.exists() and not state.exists()


def test_revoke_refuses_authorities_that_publish_different_shares(conflicting_kdcs, tmp_path,
                                                                  capsys):
    kdc_a, kdc_b = conflicting_kdcs
    ct, state, keyring = (tmp_path / f"{name}.json" for name in ("record", "state", "user"))
    # the same file given twice is one authority, read once
    assert main(["encrypt", "--policy", "d1 | d2", "--payload", "x", "--kdc", str(kdc_a),
                 "--kdc", str(kdc_a), "--out", str(ct), "--state", str(state),
                 "--seed", "3"]) == 0
    assert main(["issue-key", "--kdc", str(kdc_a), "--user", "u", "--attrs", "d1",
                 "--keyring", str(keyring)]) == 0
    capsys.readouterr()
    before = ct.read_bytes(), state.read_bytes()
    code, out, err = run_cli(capsys, "revoke", "--ciphertext", str(ct), "--state", str(state),
                             "--kdc", str(kdc_a), "--kdc", str(kdc_b), "--revoked", str(keyring),
                             "--out-updates", str(tmp_path / "updates.json"), "--seed", "4")
    assert (code, out) == (2, "")
    assert f"{kdc_a} and {kdc_b} publish different shares for attribute 'd1'" in err
    assert (ct.read_bytes(), state.read_bytes()) == before
    assert not (tmp_path / "updates.json").exists()


def _scenario_over_itself(files, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(resources.files("gridseal.harness").joinpath(
        "scenarios", "fig2_aggregation.json").read_text(encoding="utf-8"))
    return (["run", str(scenario), "--seed", "1", "--out", str(scenario)],
            f"--out {scenario} would overwrite scenario {scenario}")


def _encrypt_out_over_state(files, tmp_path):
    out, state = f"{tmp_path}/sub/../x.json", tmp_path / "x.json"
    return (["encrypt", "--policy", "alpha", "--payload", "x", "--kdc", str(files["kdc"]),
             "--out", out, "--state", str(state)], f"--state {state} would overwrite --out {out}")


def _encrypt_state_over_a_hard_link_of_out(files, tmp_path):
    out, state = tmp_path / "x.json", tmp_path / "y.json"
    out.write_text("{}")
    os.link(out, state)
    return (["encrypt", "--policy", "alpha", "--payload", "x", "--kdc", str(files["kdc"]),
             "--out", str(out), "--state", str(state)],
            f"--state {state} would overwrite --out {out}")


def _encrypt_out_over_kdc(files, tmp_path):
    kdc = files["kdc"]
    return (["encrypt", "--policy", "alpha", "--payload", "x", "--kdc", str(kdc),
             "--out", str(kdc), "--state", str(tmp_path / "fresh_state.json")],
            f"--out {kdc} would overwrite --kdc {kdc}")


def _revoke_with(name, option, over):
    def case(files, tmp_path):
        path = files[over]
        return (revoke_argv({**files, name: path}, tmp_path),
                f"{option} {path} would overwrite")
    return case


@pytest.mark.parametrize("case", [
    pytest.param(_encrypt_out_over_state, id="encrypt-out-is-state"),
    pytest.param(_encrypt_state_over_a_hard_link_of_out, id="encrypt-state-links-to-out"),
    pytest.param(_encrypt_out_over_kdc, id="encrypt-out-is-kdc"),
    pytest.param(_revoke_with("updates", "--out-updates", "state"),
                 id="revoke-out-updates-is-state"),
    pytest.param(_revoke_with("updates", "--out-updates", "kdc"), id="revoke-out-updates-is-kdc"),
    pytest.param(_revoke_with("state", "--state", "ciphertext"), id="revoke-state-is-ciphertext"),
    pytest.param(_revoke_with("keyring", "--state", "state"), id="revoke-revoked-is-state"),
    pytest.param(lambda f, t: (issue_argv({**f, "keyring": f["kdc"]}, t),
                               f"--keyring {f['kdc']} would overwrite --kdc {f['kdc']}"),
                 id="issue-key-keyring-is-kdc"),
    pytest.param(_scenario_over_itself, id="run-out-is-scenario"),
])
def test_an_output_that_would_overwrite_another_file_exits_2(record, tmp_path, capsys, case):
    argv, message = case(record, tmp_path)
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
