"""Command-line front end: scenario runs, key plumbing, benchmarks.

Machine-readable JSON goes to stdout (canonical form for reports, so a fixed
seed reproduces identical bytes); human summaries and timings go to stderr.
Exit codes: 0 success, 1 denial outcomes (or a failed phase), 2 usage or
validation errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from importlib import resources
from pathlib import Path
from typing import Any

from .. import abe
from ..lsss import compile_lsss, parse_policy
from ..paillier import paillier_keygen
from ..pairing import PairingContext, ctx_new
from .cost import CostModel, counters_cost, estimate_comm_overhead, predict_cost
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    render_report,
    report_has_denial,
    run_scenario,
    summarize_report,
)


# Kinds of the files that embed policy-program bytes; the suffix names the
# program layout, so a file in an older layout is refused by kind.
CIPHERTEXT_KIND = "gridseal-ciphertext-v2"
RTU_STATE_KIND = "gridseal-rtu-state-v2"


def _make_rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _add_group_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="reference",
                        help="pairing backend (default: reference)")
    parser.add_argument("--q", type=int, default=None, help="explicit prime group order")
    parser.add_argument("--q-bits", type=int, default=None, dest="q_bits",
                        help="generate a prime group order of this size")
    parser.add_argument("--hash", default="sha256", choices=("sha256", "sha1"),
                        help="identity hash (sha1 only for compatibility)")


def _ctx_from_args(args, rng: random.Random) -> PairingContext:
    return ctx_new(backend=args.backend, q=args.q, q_bits=args.q_bits,
                   rng=rng, hash_name=args.hash)


def _ctx_header(args_backend: str, ctx: PairingContext) -> dict[str, str]:
    return {"backend": args_backend, "q": str(ctx.q), "hash": ctx.hash_name}


def _ctx_from_header(header: dict[str, Any]) -> PairingContext:
    return ctx_new(backend=header["backend"], q=int(header["q"]),
                   hash_name=header["hash"], self_test=False)


def _write_json(path: str | Path, payload: dict[str, Any]) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _read_json(path: str | Path, kind: str) -> dict[str, Any]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("kind") != kind:
        raise ValueError(f"{path}: expected a {kind} file, found kind "
                         f"{document.get('kind')!r}")
    return document


def _emit(document: dict[str, Any]) -> None:
    print(json.dumps(document, sort_keys=True, separators=(",", ":")))


def _resolve_scenario(name_or_path: str) -> Scenario:
    path = Path(name_or_path)
    if path.exists():
        return load_scenario(path)
    bundle = resources.files(__package__).joinpath("scenarios", f"{name_or_path}.json")
    if bundle.is_file():
        return load_scenario(json.loads(bundle.read_text(encoding="utf-8")))
    raise ScenarioError("scenario", f"no file or bundled scenario named {name_or_path!r}")


def bundled_scenarios() -> list[str]:
    folder = resources.files(__package__).joinpath("scenarios")
    return sorted(p.name[:-5] for p in folder.iterdir() if p.name.endswith(".json"))


def _cmd_run(args) -> int:
    report = run_scenario(_resolve_scenario(args.scenario), seed=args.seed,
                          backend=args.backend, q=args.q, q_bits=args.q_bits,
                          hash_name=args.hash)
    rendered = render_report(report)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    sys.stderr.write(summarize_report(report))
    outcomes = list(report.get("attempts", [])) + list(report.get("reattempts", []))
    if report.get("error") or any(o.get("outcome") == "error" for o in outcomes):
        return 1
    return 1 if report_has_denial(report) else 0


def _cmd_aggregate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    report = run_scenario(Scenario(scenario.paillier, scenario.topology, scenario.readings),
                          seed=args.seed)
    rendered = render_report(report)
    sys.stdout.write(rendered)
    sys.stderr.write(summarize_report(report))
    return 1 if report.get("error") else 0


def _cmd_keygen_paillier(args) -> int:
    pk, sk = paillier_keygen(args.bits, rng=_make_rng(args.seed))
    public_hex = pk.to_bytes().hex()
    secret_hex = sk.to_bytes().hex()
    if args.out:
        _write_json(f"{args.out}.pub.json",
                    {"kind": "gridseal-paillier-public", "data": public_hex})
        _write_json(f"{args.out}.sec.json",
                    {"kind": "gridseal-paillier-secret", "data": secret_hex})
        _emit({"modulus_bits": pk.bit_length, "public": f"{args.out}.pub.json",
               "secret": f"{args.out}.sec.json"})
    else:
        _emit({"modulus_bits": pk.bit_length, "public": public_hex, "secret": secret_hex})
    return 0


def _cmd_kdc_setup(args) -> int:
    rng = _make_rng(args.seed)
    ctx = _ctx_from_args(args, rng)
    attributes = [a.strip() for a in args.attrs.split(",") if a.strip()]
    keyring = abe.kdc_setup(ctx, args.kdc_id, attributes, rng)
    document = {
        "kind": "gridseal-kdc",
        **_ctx_header(args.backend, ctx),
        "kdc_id": args.kdc_id,
        "attributes": attributes,
        "secrets": {a: {"alpha": str(s.alpha), "y": str(s.y)}
                    for a, s in keyring.secrets.items()},
        "shares": {a: {"e_alpha": ctx.element_to_bytes(p.e_alpha).hex(),
                       "g_y": ctx.element_to_bytes(p.g_y).hex()}
                   for a, p in keyring.shares.items()},
    }
    _write_json(args.out, document)
    _emit({"kdc": args.kdc_id, "attributes": attributes, "out": args.out})
    return 0


def _load_kdc(path: str) -> tuple[PairingContext, dict[str, str], abe.KdcKeyring]:
    """The authority's context, its group header (backend, q, hash) and keyring."""
    document = _read_json(path, "gridseal-kdc")
    ctx = _ctx_from_header(document)
    header = {k: document[k] for k in ("backend", "q", "hash")}
    secrets = {a: abe.AttributeSecret(int(s["alpha"]), int(s["y"]))
               for a, s in document["secrets"].items()}
    shares = {}
    for a, p in document["shares"].items():
        e_alpha, _ = ctx.element_gt_from_bytes(bytes.fromhex(p["e_alpha"]))
        g_y, _ = ctx.element_g_from_bytes(bytes.fromhex(p["g_y"]))
        shares[a] = abe.PublicShare(e_alpha, g_y)
    return ctx, header, abe.KdcKeyring(document["kdc_id"], secrets, shares)


def _cmd_issue_key(args) -> int:
    ctx, header, kdc = _load_kdc(args.kdc)
    keyring_path = Path(args.keyring)
    if keyring_path.exists():
        document = _read_json(keyring_path, "gridseal-keyring")
        if document["user"] != args.user:
            raise ValueError(f"{args.keyring} belongs to {document['user']!r}")
        if {k: document[k] for k in header} != header:
            raise ValueError(f"{args.keyring} and {args.kdc} use different groups")
    else:
        document = {"kind": "gridseal-keyring", **header, "user": args.user, "keys": {}}
    issued = []
    for attribute in [a.strip() for a in args.attrs.split(",") if a.strip()]:
        element = abe.issue_key(kdc, ctx, args.user, attribute)
        document["keys"][attribute] = ctx.element_to_bytes(element).hex()
        issued.append(attribute)
    _write_json(keyring_path, document)
    _emit({"user": args.user, "issued": issued, "keyring": str(keyring_path)})
    return 0


def _load_keyring(path: str) -> tuple[PairingContext, abe.UserKeyring]:
    document = _read_json(path, "gridseal-keyring")
    ctx = _ctx_from_header(document)
    keyring = abe.UserKeyring(document["user"])
    for attribute, blob in document["keys"].items():
        element, _ = ctx.element_g_from_bytes(bytes.fromhex(blob))
        keyring.add(attribute, element)
    return ctx, keyring


def _state_to_json(ctx: PairingContext, state: abe.EncryptionState) -> dict[str, Any]:
    return {
        "kind": RTU_STATE_KIND,
        **{"q": str(ctx.q), "hash": ctx.hash_name},
        "program": state.program.to_bytes().hex(),
        "v": [str(x) for x in state.v],
        "w": [str(x) for x in state.w],
        "rho": [str(x) for x in state.rho],
        "mode": state.mode,
        "seed": ctx.element_to_bytes(state.seed).hex() if state.seed else None,
        "payload": state.payload.hex() if state.payload is not None else None,
        "message": ctx.element_to_bytes(state.message).hex() if state.message else None,
    }


def _state_from_json(ctx: PairingContext, document: dict[str, Any]) -> abe.EncryptionState:
    from ..lsss import LsssProgram
    program, _ = LsssProgram.from_bytes(bytes.fromhex(document["program"]))
    seed = message = None
    if document["seed"]:
        seed, _ = ctx.element_gt_from_bytes(bytes.fromhex(document["seed"]))
    if document["message"]:
        message, _ = ctx.element_gt_from_bytes(bytes.fromhex(document["message"]))
    return abe.EncryptionState(
        program,
        tuple(int(x) for x in document["v"]),
        tuple(int(x) for x in document["w"]),
        tuple(int(x) for x in document["rho"]),
        document["mode"],
        seed,
        bytes.fromhex(document["payload"]) if document["payload"] is not None else None,
        message,
    )


def _cmd_encrypt(args) -> int:
    rng = _make_rng(args.seed)
    shares: dict[str, abe.PublicShare] = {}
    ctx = None
    header = None
    for kdc_path in args.kdc:
        kdc_ctx, kdc_header, kdc = _load_kdc(kdc_path)
        if ctx is None:
            ctx, header = kdc_ctx, kdc_header
        elif kdc_header["q"] != header["q"]:
            raise ValueError("authority files disagree on the group order")
        shares.update(kdc.shares)
    if ctx is None:
        raise ValueError("need at least one authority file")
    program = compile_lsss(parse_policy(args.policy), columns=args.columns)
    ciphertext, state = abe.abe_encrypt(
        ctx, shares, program, args.payload.encode("utf-8"), rng)
    _write_json(args.out, {"kind": CIPHERTEXT_KIND, **header,
                           "data": ciphertext.to_bytes(ctx).hex()})
    _write_json(args.state, _state_to_json(ctx, state))
    _emit({"rows": program.n, "columns": program.h, "out": args.out,
           "state": args.state})
    return 0


def _load_ciphertext(path: str) -> tuple[PairingContext, dict[str, Any], abe.AbeCiphertext]:
    document = _read_json(path, CIPHERTEXT_KIND)
    ctx = _ctx_from_header(document)
    return ctx, document, abe.AbeCiphertext.from_bytes(bytes.fromhex(document["data"]), ctx)


def _cmd_decrypt(args) -> int:
    ctx, _, ciphertext = _load_ciphertext(args.ciphertext)
    _, keyring = _load_keyring(args.keyring)
    updates = {}
    if args.updates:
        document = _read_json(args.updates, "gridseal-updates")
        for index, blob in document["rows"].items():
            element, _ = ctx.element_gt_from_bytes(bytes.fromhex(blob))
            updates[int(index)] = element
    try:
        payload = abe.abe_decrypt(ctx, keyring, ciphertext, updates)
    except abe.AccessDenied as exc:
        _emit({"outcome": "denied", "reason": str(exc)})
        return 1
    _emit({"outcome": "ok", "payload": payload.decode("utf-8")})
    return 0


def _cmd_revoke(args) -> int:
    rng = _make_rng(args.seed)
    ctx, header, ciphertext = _load_ciphertext(args.ciphertext)
    state = _state_from_json(ctx, _read_json(args.state, RTU_STATE_KIND))
    revoked = []
    shares: dict[str, abe.PublicShare] = {}
    for kdc_path in args.kdc:
        _, _, kdc = _load_kdc(kdc_path)
        shares.update(kdc.shares)
    for keyring_path in args.revoked:
        _, keyring = _load_keyring(keyring_path)
        revoked.append(keyring)
    new_ct, updates, new_state = abe.revoke(ctx, shares, ciphertext, state, revoked, rng)
    _write_json(args.ciphertext, {"kind": CIPHERTEXT_KIND,
                                  **{k: header[k] for k in ("backend", "q", "hash")},
                                  "data": new_ct.to_bytes(ctx).hex()})
    _write_json(args.state, _state_to_json(ctx, new_state))
    _write_json(args.out_updates, {
        "kind": "gridseal-updates", "q": str(ctx.q),
        "rows": {str(i): ctx.element_to_bytes(e).hex() for i, e in sorted(updates.items())},
    })
    _emit({"updated_rows": sorted(updates), "updates": args.out_updates})
    return 0


def _cmd_bench(args) -> int:
    rng = _make_rng(args.seed)
    ctx = _ctx_from_args(args, rng)
    m = args.m
    attributes = [f"attr{i}" for i in range(m)]
    kdc = abe.kdc_setup(ctx, "bench-authority", attributes, rng)
    keyring = abe.UserKeyring("bench-user")
    for attribute in attributes:
        keyring.add(attribute, abe.issue_key(kdc, ctx, "bench-user", attribute))
    program = compile_lsss(parse_policy(" & ".join(attributes)))
    model = CostModel(args.tp, args.tm)
    payload = b"bench payload"

    started = time.perf_counter()
    with ctx.measure() as enc_window:
        ciphertext, _ = abe.abe_encrypt(ctx, kdc.shares, program, payload, rng)
    encrypt_wall_ms = (time.perf_counter() - started) * 1000

    started = time.perf_counter()
    with ctx.measure() as dec_window:
        abe.abe_decrypt(ctx, keyring, ciphertext)
    decrypt_wall_ms = (time.perf_counter() - started) * 1000

    measured = ctx.counters
    result = {
        "m": m,
        "predicted_ms": predict_cost(model, m),
        "counter_ms": counters_cost(model, measured),
        "encrypt": {"pairings": enc_window.pairings, "scalar_muls": enc_window.scalar_muls},
        "decrypt": {"pairings": dec_window.pairings, "scalar_muls": dec_window.scalar_muls},
        "comm_bits": estimate_comm_overhead(m, ctx.q_bits, ctx.q_bits, max(m, 2),
                                             8 * len(payload)),
        "wire_bytes": len(ciphertext.to_bytes(ctx)),
    }
    _emit(result)
    sys.stderr.write(
        f"wall clock (informational): encrypt {encrypt_wall_ms:.3f} ms, "
        f"decrypt {decrypt_wall_ms:.3f} ms\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridseal",
                                     description="aggregation and access-control toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute a scenario end to end")
    run.add_argument("scenario", help="path or bundled scenario name")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None, help="write the report here instead of stdout")
    _add_group_args(run)
    run.set_defaults(func=_cmd_run)

    aggregate = commands.add_parser("aggregate", help="run only the aggregation phase")
    aggregate.add_argument("scenario")
    aggregate.add_argument("--seed", type=int, default=None)
    aggregate.set_defaults(func=_cmd_aggregate)

    keygen = commands.add_parser("keygen-paillier", help="generate an aggregation keypair")
    keygen.add_argument("--bits", type=int, default=2048)
    keygen.add_argument("--seed", type=int, default=None)
    keygen.add_argument("--out", default=None, help="file prefix for the key files")
    keygen.set_defaults(func=_cmd_keygen_paillier)

    kdc = commands.add_parser("kdc-setup", help="create an authority keyring file")
    kdc.add_argument("--kdc-id", required=True, dest="kdc_id")
    kdc.add_argument("--attrs", required=True, help="comma-separated attribute list")
    kdc.add_argument("--out", required=True)
    kdc.add_argument("--seed", type=int, default=None)
    _add_group_args(kdc)
    kdc.set_defaults(func=_cmd_kdc_setup)

    issue = commands.add_parser("issue-key", help="issue attribute keys into a user keyring file")
    issue.add_argument("--kdc", required=True)
    issue.add_argument("--user", required=True)
    issue.add_argument("--attrs", required=True)
    issue.add_argument("--keyring", required=True)
    issue.set_defaults(func=_cmd_issue_key)

    encrypt = commands.add_parser("encrypt", help="encrypt a payload under a policy")
    encrypt.add_argument("--policy", required=True)
    encrypt.add_argument("--payload", required=True)
    encrypt.add_argument("--kdc", action="append", required=True,
                         help="authority file (repeatable)")
    encrypt.add_argument("--out", required=True)
    encrypt.add_argument("--state", required=True,
                         help="sealed encryption state kept for revocation")
    encrypt.add_argument("--columns", default="fresh", choices=("fresh", "shared"))
    encrypt.add_argument("--seed", type=int, default=None)
    encrypt.set_defaults(func=_cmd_encrypt)

    decrypt = commands.add_parser("decrypt", help="attempt decryption with a user keyring")
    decrypt.add_argument("--ciphertext", required=True)
    decrypt.add_argument("--keyring", required=True)
    decrypt.add_argument("--updates", default=None, help="out-of-band row updates file")
    decrypt.set_defaults(func=_cmd_decrypt)

    revoke = commands.add_parser("revoke", help="rotate a stored record away from revoked users")
    revoke.add_argument("--ciphertext", required=True)
    revoke.add_argument("--state", required=True)
    revoke.add_argument("--kdc", action="append", required=True)
    revoke.add_argument("--revoked", action="append", required=True,
                        help="keyring file of a revoked user (repeatable)")
    revoke.add_argument("--out-updates", required=True, dest="out_updates")
    revoke.add_argument("--seed", type=int, default=None)
    revoke.set_defaults(func=_cmd_revoke)

    bench = commands.add_parser("bench", help="meter an encrypt/decrypt round trip")
    bench.add_argument("--m", type=int, required=True, help="policy attribute count")
    bench.add_argument("--tp", type=float, default=4.5, help="pairing cost, ms")
    bench.add_argument("--tm", type=float, default=0.6, help="scalar multiplication cost, ms")
    bench.add_argument("--seed", type=int, default=None)
    _add_group_args(bench)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        # argparse exits 2 on usage errors and 0 for --help; pass both through
        code = exit_request.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ScenarioError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
