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
from typing import Any, Callable

from .. import abe
from ..lsss import LsssProgram, compile_lsss, parse_policy
from ..paillier import paillier_keygen
from ..pairing import GroupElementG, GroupElementGT, PairingContext, ctx_new
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


# Every CLI file carries its kind and the group header (backend, q). The version
# suffixes name the record layout, the fixed-width element bodies and the header
# without a hash field; a file of an older kind, which may have been written
# under SHA-1 identity hashes, is refused by kind. An updates file also carries
# the digest of the record it was made for, the RTU state holds only what
# revocation reads (the program, v, rho and the payload), and a KDC file only
# its id, secrets and shares, over one attribute set.
CIPHERTEXT_KIND = "gridseal-ciphertext-v4"
RTU_STATE_KIND = "gridseal-rtu-state-v6"
_UPDATES_KIND = "gridseal-updates-v5"
_KDC_KIND = "gridseal-kdc-v4"
_KEYRING_KIND = "gridseal-keyring-v3"
_GROUP_FIELDS = ("backend", "q")
# Kinds holding secret keys, sealed randomness or plaintext: written owner-only.
_SECRET_KINDS = {_KDC_KIND, _KEYRING_KIND, RTU_STATE_KIND}
MAX_BENCH_M = 1024  # bench's largest policy; its set-up issues one key per attribute


def _make_rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _add_group_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="reference",
                        help="pairing backend (default: reference)")
    parser.add_argument("--q", type=int, default=None, help="explicit prime group order")
    parser.add_argument("--q-bits", type=int, default=None, dest="q_bits",
                        help="generate a prime group order of this size")


def _ctx_from_args(args, rng: random.Random) -> PairingContext:
    ctx = ctx_new(backend=args.backend, q=args.q, q_bits=args.q_bits, rng=rng)
    _warn_backend(args.backend)
    return ctx


def _warn_backend(backend: str) -> None:
    """The one stderr line of a command working in a reference-backend group."""
    if backend == "reference":
        sys.stderr.write("warning: the reference backend offers no hardness; "
                         "its public shares reveal every attribute secret \u03b1\n")


def _save(path: str, kind: str, header: dict[str, str], body: dict[str, Any]) -> None:
    """Write one CLI file: its kind, the group header, the body."""
    target = Path(path)
    if kind in _SECRET_KINDS:
        # created owner-only, or narrowed when rewritten, before the secret lands
        target.touch(mode=0o600)
        target.chmod(0o600)
    document = {"kind": kind, **header, **body}
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load(path: str, kind: str, decode: Callable[[PairingContext, dict[str, Any]], Any],
          first: tuple[PairingContext, dict[str, str]] | None = None,
          ) -> tuple[PairingContext, dict[str, str], Any]:
    """Read a CLI file of `kind`: (its group's context, its group header, its decoded body).

    With `first`, the context and header of a command's first file, the file
    must name the same group and is decoded under that context, so a command
    builds its group, and proves its order, once. Anything malformed raises
    ValueError naming the file.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a {kind} file, found a JSON {type(document).__name__}")
    if document.get("kind") != kind:
        raise ValueError(f"{path}: expected a {kind} file, found kind {document.get('kind')!r}")
    header = {field: document.get(field) for field in _GROUP_FIELDS}
    if first is not None and header != first[1]:
        raise ValueError(f"{path}: the command's files use different groups")
    try:
        if first is not None:
            ctx = first[0]
        else:
            ctx = ctx_new(backend=header["backend"], q=_int(header["q"]), self_test=False)
            _warn_backend(header["backend"])
        return ctx, header, decode(ctx, document)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {kind} file ({type(exc).__name__}: {exc})") from None


def _int(text: str) -> int:
    """Inverse of str(int): no '+', space, '_', leading zero or non-ASCII digit."""
    if not isinstance(text, str) or str(int(text)) != text:  # int() takes JSON numbers too
        raise ValueError(f"expected a decimal integer string, found {text!r}")
    return int(text)


def _ints(texts: list[str]) -> tuple[int, ...]:
    if not isinstance(texts, list):
        raise ValueError("expected a list of decimal integer strings")
    return tuple(_int(text) for text in texts)


def _bytes(text: str) -> bytes:
    """Inverse of bytes.hex: lowercase digit pairs, no space."""
    if not isinstance(text, str) or bytes.fromhex(text).hex() != text:
        raise ValueError("expected a lowercase hex string")
    return bytes.fromhex(text)


def _hex(ctx: PairingContext, element: GroupElementG | GroupElementGT) -> str:
    return ctx.element_to_bytes(element).hex()


def _element(ctx: PairingContext, text: str, group_t: bool = False):
    """Inverse of _hex: exactly one element of G (of G_T with group_t), no trailing bytes."""
    data = _bytes(text)
    element, end = (ctx.element_gt_from_bytes if group_t else ctx.element_g_from_bytes)(data)
    if end != len(data):
        raise ValueError("trailing bytes after an element")
    return element


def _emit(document: dict[str, Any]) -> None:
    print(json.dumps(document, sort_keys=True, separators=(",", ":")))


def bundled_scenarios() -> list[str]:
    folder = resources.files(__package__).joinpath("scenarios")
    return sorted(p.name[:-5] for p in folder.iterdir() if p.name.endswith(".json"))


def _resolve_scenario(name_or_path: str) -> Scenario:
    path = Path(name_or_path)
    if path.exists():
        return load_scenario(path)
    bundle = resources.files(__package__).joinpath("scenarios", f"{name_or_path}.json")
    if bundle.is_file():
        return load_scenario(json.loads(bundle.read_text(encoding="utf-8")))
    raise ScenarioError("scenario", f"no file or bundled scenario named {name_or_path!r}"
                                    f" (bundled: {', '.join(bundled_scenarios())})")


def _cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    if scenario.kdcs or scenario.records:  # the scenario runs in a pairing group
        _warn_backend(args.backend)
    report = run_scenario(scenario, seed=args.seed,
                          backend=args.backend, q=args.q, q_bits=args.q_bits)
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
    _emit({"modulus_bits": pk.bit_length, "public": pk.to_bytes().hex(),
           "secret": sk.to_bytes().hex()})
    return 0


def _cmd_kdc_setup(args) -> int:
    rng = _make_rng(args.seed)
    ctx = _ctx_from_args(args, rng)
    attributes = [a.strip() for a in args.attrs.split(",") if a.strip()]
    keyring = abe.kdc_setup(ctx, args.kdc_id, attributes, rng)
    header = {"backend": args.backend, "q": str(ctx.q)}
    _save(args.out, _KDC_KIND, header, {
        "kdc_id": args.kdc_id,
        "secrets": {a: {"alpha": str(s.alpha), "y": str(s.y)}
                    for a, s in keyring.secrets.items()},
        "shares": {a: {"e_alpha": _hex(ctx, p.e_alpha), "g_y": _hex(ctx, p.g_y)}
                   for a, p in keyring.shares.items()},
    })
    _emit({"kdc": args.kdc_id, "attributes": attributes, "out": args.out})
    return 0


def _kdc(ctx: PairingContext, fields: dict[str, Any]) -> abe.KdcKeyring:
    secrets = {a: abe.AttributeSecret(_int(s["alpha"]), _int(s["y"]))
               for a, s in fields["secrets"].items()}
    shares = {a: abe.PublicShare(_element(ctx, p["e_alpha"], True), _element(ctx, p["g_y"]))
              for a, p in fields["shares"].items()}
    if secrets.keys() != shares.keys():
        raise ValueError("secrets and shares name different attributes")
    return abe.KdcKeyring(fields["kdc_id"], secrets, shares)


def _keyring(ctx: PairingContext, fields: dict[str, Any]) -> abe.UserKeyring:
    if not isinstance(fields["user"], str):
        raise ValueError("the user must be a string")
    return abe.UserKeyring(fields["user"],
                           {a: _element(ctx, e) for a, e in fields["keys"].items()})


def _cmd_issue_key(args) -> int:
    ctx, header, kdc = _load(args.kdc, _KDC_KIND, _kdc)
    try:
        _, _, keyring = _load(args.keyring, _KEYRING_KIND, _keyring, (ctx, header))
    except FileNotFoundError:
        keyring = abe.UserKeyring(args.user)
    if keyring.user_id != args.user:
        raise ValueError(f"{args.keyring} belongs to {keyring.user_id!r}")
    issued = []
    for attribute in [a.strip() for a in args.attrs.split(",") if a.strip()]:
        keyring.add(attribute, abe.issue_key(kdc, ctx, args.user, attribute))
        issued.append(attribute)
    _save(args.keyring, _KEYRING_KIND, header,
          {"user": args.user, "keys": {a: _hex(ctx, e) for a, e in keyring.keys.items()}})
    _emit({"user": args.user, "issued": issued, "keyring": str(Path(args.keyring))})
    return 0


def _save_record(path: str, state_path: str, ctx: PairingContext, header: dict[str, str],
                 ciphertext: abe.AbeCiphertext, state: abe.EncryptionState) -> None:
    """Write a stored record and the RTU's sealed state for it (encrypt and revoke)."""
    _save(path, CIPHERTEXT_KIND, header, {"data": ciphertext.to_bytes(ctx).hex()})
    _save(state_path, RTU_STATE_KIND, header, {
        "program": state.program.to_bytes().hex(),
        "v": [str(x) for x in state.v],
        "rho": [str(x) for x in state.rho],
        "payload": state.payload.hex(),
    })


def _ciphertext(ctx: PairingContext, fields: dict[str, Any]) -> abe.AbeCiphertext:
    return abe.AbeCiphertext.from_bytes(_bytes(fields["data"]), ctx)


def _state(ctx: PairingContext, fields: dict[str, Any]) -> abe.EncryptionState:
    data = _bytes(fields["program"])
    program, end = LsssProgram.from_bytes(data)
    if end != len(data):
        raise ValueError("trailing bytes after the program")
    return abe.EncryptionState(program, _ints(fields["v"]), _ints(fields["rho"]),
                               _bytes(fields["payload"]))


def _updates(ctx: PairingContext, fields: dict[str, Any]
             ) -> tuple[str, dict[int, GroupElementGT]]:
    """An updates file's record digest and its rows."""
    return fields["record"], {_int(i): _element(ctx, e, group_t=True)
                              for i, e in fields["rows"].items()}


def _cmd_encrypt(args) -> int:
    rng = _make_rng(args.seed)
    ctx, header, kdc = _load(args.kdc[0], _KDC_KIND, _kdc)
    shares = dict(kdc.shares)
    for kdc_path in args.kdc[1:]:
        shares.update(_load(kdc_path, _KDC_KIND, _kdc, (ctx, header))[2].shares)
    program = compile_lsss(parse_policy(args.policy))
    ciphertext, state = abe.abe_encrypt(
        ctx, shares, program, args.payload.encode("utf-8"), rng)
    _save_record(args.out, args.state, ctx, header, ciphertext, state)
    _emit({"rows": program.n, "columns": program.h, "out": args.out,
           "state": args.state})
    return 0


def _cmd_decrypt(args) -> int:
    ctx, header, ciphertext = _load(args.ciphertext, CIPHERTEXT_KIND, _ciphertext)
    _, _, keyring = _load(args.keyring, _KEYRING_KIND, _keyring, (ctx, header))
    updates = {}
    digest = ciphertext.binding_digest() if args.updates else None
    for path in args.updates:
        record, rows = _load(path, _UPDATES_KIND, _updates, (ctx, header))[2]
        if record != digest:
            raise ValueError(f"{path}: the updates belong to another record")
        updates.update(rows)
    try:
        payload = abe.abe_decrypt(ctx, keyring, ciphertext, updates)
    except abe.AccessDenied as exc:
        _emit({"outcome": "denied", "reason": str(exc)})
        return 1
    _emit({"outcome": "ok", "payload": payload.decode("utf-8")})
    return 0


def _cmd_revoke(args) -> int:
    rng = _make_rng(args.seed)
    ctx, header, ciphertext = _load(args.ciphertext, CIPHERTEXT_KIND, _ciphertext)
    _, _, state = _load(args.state, RTU_STATE_KIND, _state, (ctx, header))
    shares: dict[str, abe.PublicShare] = {}
    for kdc_path in args.kdc:
        shares.update(_load(kdc_path, _KDC_KIND, _kdc, (ctx, header))[2].shares)
    revoked = [_load(path, _KEYRING_KIND, _keyring, (ctx, header))[2]
               for path in args.revoked]
    new_ct, updates, new_state = abe.revoke(ctx, shares, ciphertext, state, revoked, rng)
    _save_record(args.ciphertext, args.state, ctx, header, new_ct, new_state)
    _save(args.out_updates, _UPDATES_KIND, header,
          {"record": new_ct.binding_digest(),
           "rows": {str(i): _hex(ctx, e) for i, e in sorted(updates.items())}})
    _emit({"updated_rows": sorted(updates), "updates": args.out_updates})
    return 0


def _cmd_bench(args) -> int:
    m = args.m
    if m > MAX_BENCH_M:
        raise ValueError(f"--m must be at most {MAX_BENCH_M}")
    rng = _make_rng(args.seed)
    ctx = _ctx_from_args(args, rng)
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
    keygen.add_argument("--bits", type=int, default=2048,
                        help="size of N; N has this many bits or one fewer (default: 2048)")
    keygen.add_argument("--seed", type=int, default=None)
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
    encrypt.add_argument("--seed", type=int, default=None)
    encrypt.set_defaults(func=_cmd_encrypt)

    decrypt = commands.add_parser("decrypt", help="attempt decryption with a user keyring")
    decrypt.add_argument("--ciphertext", required=True)
    decrypt.add_argument("--keyring", required=True)
    decrypt.add_argument("--updates", action="append", default=[],
                         help="out-of-band row updates file (repeatable, oldest revocation "
                              "first: a later file's row replaces an earlier one's)")
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
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
