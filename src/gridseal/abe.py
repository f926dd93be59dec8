"""Decentralized multi-authority ciphertext-policy attribute encryption.

Each key distribution center owns a disjoint attribute slice and publishes,
per attribute i, the pair (e(g,g)^alpha_i, g^y_i) while keeping (alpha_i,
y_i) secret. A user u collects per-attribute keys sk_{i,u} = g^alpha_i *
H(u)^y_i across centers. Encryption shares a fresh secret s over the policy
matrix rows; decryption pairs per-row components back together and the H(u)
terms cancel only within a single identity, which is what stops key pooling
across users.

Payloads travel in one of two modes: "direct" keeps the payload as a G_T
element blinded by e(g,g)^s (handy for algebra tests); "kem" (default)
blinds a random G_T seed instead, hashes the seed into an AES-GCM key and
carries the real payload authenticated in the ciphertext body.

Revocation rotates the shared secret: the encrypting terminal keeps its
sharing vectors and per-row randomizers sealed, recomputes the affected
per-row components under the new secret, strips them from the stored record
and hands them only to users still in good standing.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .lsss import LsssProgram, solve_for_rows
from .pairing import GroupElementG, GroupElementGT, PairingContext
from .wire import decode_blob, encode_blob

MODE_DIRECT = "direct"
MODE_KEM = "kem"

_KEM_NONCE_BYTES = 12
_KEM_TAG_BYTES = 16


class AccessDenied(Exception):
    """The keyring cannot reconstruct the blinding secret, or authentication failed."""


@dataclass(frozen=True)
class AttributeSecret:
    alpha: int
    y: int


@dataclass(frozen=True)
class PublicShare:
    """Published per-attribute pair (e(g,g)^alpha, g^y)."""

    e_alpha: GroupElementGT
    g_y: GroupElementG


class KdcKeyring:
    """One authority's per-attribute secrets and their published shares."""

    def __init__(self, kdc_id: str, secrets: Mapping[str, AttributeSecret],
                 shares: Mapping[str, PublicShare]):
        self.kdc_id = kdc_id
        self.secrets = dict(secrets)
        self.shares = dict(shares)

    @property
    def attributes(self) -> list[str]:
        return list(self.secrets)

    def owns(self, attribute: str) -> bool:
        return attribute in self.secrets


def kdc_setup(
    ctx: PairingContext,
    kdc_id: str,
    attributes: Sequence[str],
    rng: random.Random,
) -> KdcKeyring:
    """Draw fresh (alpha_i, y_i) per attribute and publish the share pairs."""
    if not attributes:
        raise ValueError("a key distribution center needs at least one attribute")
    if len(set(attributes)) != len(attributes):
        raise ValueError("duplicate attribute in authority setup")
    gt = ctx.backend.pair(ctx.g, ctx.g)
    secrets: dict[str, AttributeSecret] = {}
    shares: dict[str, PublicShare] = {}
    for attribute in attributes:
        alpha = rng.randrange(1, ctx.q)
        y = rng.randrange(1, ctx.q)
        secrets[attribute] = AttributeSecret(alpha, y)
        shares[attribute] = PublicShare(
            ctx.backend.gt_exp(gt, alpha),
            ctx.backend.g_exp(ctx.g, y),
        )
    return KdcKeyring(kdc_id, secrets, shares)


def issue_key(kdc: KdcKeyring, ctx: PairingContext, user_id: str, attribute: str) -> GroupElementG:
    """sk_{i,u} = g^alpha_i * H(u)^y_i; deterministic for a fixed (kdc, u, i)."""
    if not kdc.owns(attribute):
        raise ValueError(f"authority {kdc.kdc_id!r} does not own attribute {attribute!r}")
    secret = kdc.secrets[attribute]
    h_u = ctx.hash_to_g(user_id)
    return ctx.backend.g_mul(
        ctx.backend.g_exp(ctx.g, secret.alpha),
        ctx.backend.g_exp(h_u, secret.y),
    )


def verify_user_key(
    ctx: PairingContext,
    share: PublicShare,
    user_id: str,
    element: GroupElementG,
) -> bool:
    """Check e(sk, g) == e(g,g)^alpha * e(H(u), g^y) against the published share."""
    left = ctx.backend.pair(element, ctx.g)
    right = ctx.backend.gt_mul(
        share.e_alpha,
        ctx.backend.pair(ctx.hash_to_g(user_id), share.g_y),
    )
    return left == right


class UserKeyring:
    """Attribute keys one user accumulated across authorities."""

    def __init__(self, user_id: str, keys: Mapping[str, GroupElementG] | None = None):
        self.user_id = user_id
        self.keys: dict[str, GroupElementG] = dict(keys or {})

    @property
    def attributes(self) -> set[str]:
        return set(self.keys)

    def add(
        self,
        attribute: str,
        element: GroupElementG,
        ctx: PairingContext | None = None,
        share: PublicShare | None = None,
    ) -> None:
        """Store a key; verifies the pairing equation when ctx and share are given."""
        if ctx is not None and share is not None:
            if not verify_user_key(ctx, share, self.user_id, element):
                raise ValueError(f"key for {attribute!r} fails verification")
        self.keys[attribute] = element


@dataclass(frozen=True)
class CiphertextRow:
    """Per-row triple; c1 is None once revocation strips it from the stored record."""

    c1: Optional[GroupElementGT]
    c2: GroupElementG
    c3: GroupElementG


@dataclass(frozen=True)
class AbeCiphertext:
    """A record under a compiled policy.

    Wire layout (to_bytes), every integer big-endian:

    * the policy program in LsssProgram's sparse layout;
    * a mode byte: 0 direct, 1 kem;
    * C0 as a framed G_T element (backend wire id, 4-byte length, body);
    * per row: a flag byte (1 if C1 follows, 0 once revocation stripped it),
      then C1 if present, C2 and C3 as framed elements;
    * kem mode only: the nonce, the AES-GCM body and its 16-byte tag, each
      with a 4-byte length prefix.
    """

    program: LsssProgram
    c0: GroupElementGT
    rows: tuple[CiphertextRow, ...]
    mode: str
    kem_nonce: bytes | None = None
    kem_body: bytes | None = None

    def __post_init__(self):
        if len(self.rows) != self.program.n:
            raise ValueError("row triple count must match the matrix")
        if self.mode not in (MODE_DIRECT, MODE_KEM):
            raise ValueError(f"unknown payload mode {self.mode!r}")
        if self.mode == MODE_KEM and (self.kem_nonce is None or self.kem_body is None):
            raise ValueError("kem mode needs nonce and body")

    def to_bytes(self, ctx: PairingContext) -> bytes:
        parts = [self.program.to_bytes(), b"\x00" if self.mode == MODE_DIRECT else b"\x01",
                 ctx.element_to_bytes(self.c0)]
        for row in self.rows:
            if row.c1 is None:
                parts.append(b"\x00")
            else:
                parts += (b"\x01", ctx.element_to_bytes(row.c1))
            parts += (ctx.element_to_bytes(row.c2), ctx.element_to_bytes(row.c3))
        if self.mode == MODE_KEM:
            # nonce, ciphertext body and authentication tag, each length-prefixed
            body, tag = self.kem_body[:-_KEM_TAG_BYTES], self.kem_body[-_KEM_TAG_BYTES:]
            parts += (encode_blob(self.kem_nonce), encode_blob(body), encode_blob(tag))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, ctx: PairingContext) -> "AbeCiphertext":
        """Strict inverse of to_bytes: anything it would not emit raises ValueError."""
        program, offset = LsssProgram.from_bytes(data)
        if offset >= len(data):
            raise ValueError("truncated ciphertext")
        if data[offset] > 1:
            raise ValueError("unknown payload mode byte")
        mode = MODE_KEM if data[offset] else MODE_DIRECT
        offset += 1
        c0, offset = ctx.element_gt_from_bytes(data, offset)
        rows = []
        for _ in range(program.n):
            if offset >= len(data):
                raise ValueError("truncated ciphertext row")
            if data[offset] > 1:
                raise ValueError("unknown row flag")
            has_c1 = data[offset] == 1
            offset += 1
            c1 = None
            if has_c1:
                c1, offset = ctx.element_gt_from_bytes(data, offset)
            c2, offset = ctx.element_g_from_bytes(data, offset)
            c3, offset = ctx.element_g_from_bytes(data, offset)
            rows.append(CiphertextRow(c1, c2, c3))
        nonce = body = None
        if mode == MODE_KEM:
            nonce, offset = decode_blob(data, offset)
            body, offset = decode_blob(data, offset)
            tag, offset = decode_blob(data, offset)
            if len(tag) != _KEM_TAG_BYTES:
                raise ValueError("authentication tag has the wrong size")
            body += tag
        if offset != len(data):
            raise ValueError("trailing bytes after ciphertext")
        return cls(program, c0, tuple(rows), mode, nonce, body)


@dataclass(frozen=True)
class EncryptionState:
    """Sealed encrypting-terminal state that revocation needs: the sharing
    vectors, per-row randomizers and the blinded seed or payload element."""

    program: LsssProgram
    v: tuple[int, ...]
    w: tuple[int, ...]
    rho: tuple[int, ...]
    mode: str
    seed: GroupElementGT | None  # kem mode: the G_T element whose hash keys the body
    payload: bytes | None        # kem mode: the plaintext payload
    message: GroupElementGT | None = None  # direct mode

    def __post_init__(self):
        h, n = self.program.h, self.program.n
        if len(self.v) != h or len(self.w) != h or len(self.rho) != n:
            raise ValueError("sharing vectors and randomizers must match the matrix")
        held = {MODE_KEM: (self.seed, self.payload), MODE_DIRECT: (self.message,)}.get(self.mode)
        if held is None or any(x is None for x in held):
            raise ValueError(f"state in mode {self.mode!r} lacks its seed, payload or message")


def _kem_key(ctx: PairingContext, seed: GroupElementGT) -> bytes:
    return hashlib.sha256(ctx.element_to_bytes(seed)).digest()


def _rand_bytes(rng: random.Random, count: int) -> bytes:
    return rng.getrandbits(count * 8).to_bytes(count, "big")


def abe_encrypt(
    ctx: PairingContext,
    shares: Mapping[str, PublicShare],
    program: LsssProgram,
    payload: bytes | GroupElementGT,
    rng: random.Random,
    mode: str = MODE_KEM,
) -> tuple[AbeCiphertext, EncryptionState]:
    """Encrypt a payload under a compiled policy.

    Draws the sharing vector v (first entry s), the masking vector w (first
    entry 0) and one randomizer per row, then computes

        C0    = seed * e(g,g)^s          (seed is the payload in direct mode)
        C1,x  = e(g,g)^lambda_x * (e(g,g)^alpha)^rho_x
        C2,x  = g^rho_x
        C3,x  = (g^y)^rho_x * g^omega_x

    with lambda_x, omega_x the row shares of v and w. Per row the meters see
    four scalar multiplications (C3 is a fused double exponentiation) and the
    whole call performs exactly one pairing; the C0 blinding runs through the
    backend directly because the cost model's per-encryption budget counts
    row components only.

    Returns the ciphertext together with the sealed state revocation needs.
    """
    for attribute in program.attributes:
        if attribute not in shares:
            raise ValueError(f"no published share for attribute {attribute!r}")
    h = program.h
    v = tuple(rng.randrange(ctx.q) for _ in range(h))
    w = (0,) + tuple(rng.randrange(ctx.q) for _ in range(h - 1))
    rho = tuple(rng.randrange(1, ctx.q) for _ in range(program.n))
    s = v[0]

    gt = ctx.pair(ctx.g, ctx.g)
    blind = ctx.backend.gt_exp(gt, s)  # unmetered: outside the 4m row budget

    if mode == MODE_KEM:
        if not isinstance(payload, (bytes, bytearray)):
            raise ValueError("kem mode encrypts byte payloads")
        seed = ctx.backend.gt_exp(gt, rng.randrange(1, ctx.q))  # random G_T seed
        c0 = ctx.backend.gt_mul(seed, blind)
        nonce = _rand_bytes(rng, _KEM_NONCE_BYTES)
        body = AESGCM(_kem_key(ctx, seed)).encrypt(nonce, bytes(payload), None)
        state = EncryptionState(program, v, w, rho, mode, seed, bytes(payload))
    elif mode == MODE_DIRECT:
        if not isinstance(payload, GroupElementGT):
            raise ValueError("direct mode encrypts a G_T element")
        seed = payload
        c0 = ctx.backend.gt_mul(seed, blind)
        nonce = body = None
        state = EncryptionState(program, v, w, rho, mode, None, None, payload)
    else:
        raise ValueError(f"unknown payload mode {mode!r}")

    rows = []
    for x in range(program.n):
        lam = program.share(v, x, ctx.q)
        omega = program.share(w, x, ctx.q)
        share = shares[program.attributes[x]]
        c1 = ctx.gt_mul(ctx.gt_exp(gt, lam), ctx.gt_exp(share.e_alpha, rho[x]))
        c2 = ctx.g_exp(ctx.g, rho[x])
        c3 = ctx.g_mulexp([(share.g_y, rho[x]), (ctx.g, omega)])
        rows.append(CiphertextRow(c1, c2, c3))

    return AbeCiphertext(program, c0, tuple(rows), mode, nonce, body), state


def _open_with_blind(ctx: PairingContext, ciphertext: AbeCiphertext,
                     blind: GroupElementGT) -> bytes | GroupElementGT:
    seed = ctx.gt_mul(ciphertext.c0, ctx.gt_inv(blind))
    if ciphertext.mode == MODE_DIRECT:
        return seed
    try:
        return AESGCM(_kem_key(ctx, seed)).decrypt(
            ciphertext.kem_nonce, ciphertext.kem_body, None)
    except InvalidTag as exc:
        raise AccessDenied("payload authentication failed") from exc


def abe_decrypt(
    ctx: PairingContext,
    keyring: UserKeyring,
    ciphertext: AbeCiphertext,
    row_updates: Mapping[int, GroupElementGT] | None = None,
) -> bytes | GroupElementGT:
    """Recover the payload, or raise AccessDenied.

    Usable rows are those whose attribute the keyring holds and whose C1 is
    available (stored, or supplied out-of-band in `row_updates` after a
    revocation). The reconstruction coefficients come from the policy matrix;
    each used row costs exactly two pairings, and coefficients of one skip
    their G_T exponentiation.
    """
    updates = dict(row_updates or {})
    program = ciphertext.program
    usable = [
        x for x in range(program.n)
        if program.attributes[x] in keyring.keys
        and (ciphertext.rows[x].c1 is not None or x in updates)
    ]
    coefficients = solve_for_rows(program, usable, ctx.q)
    if coefficients is None:
        raise AccessDenied("attributes do not satisfy the access policy")
    h_u = ctx.hash_to_g(keyring.user_id)
    blind = ctx.identity_gt()
    for x, k in coefficients.items():
        row = ciphertext.rows[x]
        c1 = updates.get(x, row.c1)
        dec = ctx.gt_mul(c1, ctx.pair(h_u, row.c3))
        dec = ctx.gt_mul(dec, ctx.gt_inv(ctx.pair(keyring.keys[program.attributes[x]], row.c2)))
        if k != 1:
            dec = ctx.gt_exp(dec, k)
        blind = ctx.gt_mul(blind, dec)
    return _open_with_blind(ctx, ciphertext, blind)


def revoke(
    ctx: PairingContext,
    shares: Mapping[str, PublicShare],
    ciphertext: AbeCiphertext,
    state: EncryptionState,
    revoked: Iterable[UserKeyring],
    rng: random.Random,
) -> tuple[AbeCiphertext, dict[int, GroupElementGT], EncryptionState]:
    """Rotate the blinding secret away from the revoked keyrings.

    Rows needing a fresh C1 are those whose share moves with the secret
    (nonzero first matrix coordinate) plus every row carrying a revoked
    attribute; the latter are stripped from the stored record either way.
    Fresh C1 values are returned out-of-band and must be delivered only to
    users still in good standing. When no ciphertext row carries a revoked
    attribute the payload seed is refreshed in place (new C0 and body bytes,
    same secret) and no row updates are emitted.

    Returns (stored record, out-of-band row updates, new sealed state).
    Raises ValueError when `state` was sealed for another record.
    """
    revoked = list(revoked)
    if not revoked:
        raise ValueError("revoked set must not be empty")
    program = ciphertext.program
    # row 0 carries C2 = g^rho_0, so a state sealed for another record fails here (unmetered)
    g_rho_0 = ctx.backend.g_exp(ctx.g, state.rho[0] % ctx.q)
    if state.program != program or ciphertext.rows[0].c2 != g_rho_0:
        raise ValueError("the sealed state belongs to another record")
    revoked_attrs: set[str] = set()
    for keyring in revoked:
        revoked_attrs |= keyring.attributes
    carrier_rows = {x for x in range(program.n) if program.attributes[x] in revoked_attrs}

    gt = ctx.backend.pair(ctx.g, ctx.g)

    if not carrier_rows:
        # Nothing here was reachable by the revoked users; refresh the seed so
        # the stored bytes rotate, leave shares and secret untouched.
        if ciphertext.mode == MODE_KEM:
            seed = ctx.backend.gt_exp(gt, rng.randrange(1, ctx.q))
            blind = ctx.backend.gt_exp(gt, state.v[0])
            c0 = ctx.backend.gt_mul(seed, blind)
            nonce = _rand_bytes(rng, _KEM_NONCE_BYTES)
            body = AESGCM(_kem_key(ctx, seed)).encrypt(nonce, state.payload, None)
            new_ct = replace(ciphertext, c0=c0, kem_nonce=nonce, kem_body=body)
            new_state = replace(state, seed=seed)
            return new_ct, {}, new_state
        return ciphertext, {}, state

    s_new = rng.randrange(1, ctx.q)
    v_new = (s_new,) + state.v[1:]
    moved_rows = {x for x in range(program.n) if program.support[x][:1] == (0,)}
    affected = sorted(carrier_rows | moved_rows)

    # e(g,g) is held from encryption time, so re-blinding C0 meters as one
    # scalar multiplication and each refreshed row as two.
    blind = ctx.gt_exp(gt, s_new)
    if ciphertext.mode == MODE_KEM:
        seed = ctx.backend.gt_exp(gt, rng.randrange(1, ctx.q))
        c0 = ctx.backend.gt_mul(seed, blind)
        nonce = _rand_bytes(rng, _KEM_NONCE_BYTES)
        body = AESGCM(_kem_key(ctx, seed)).encrypt(nonce, state.payload, None)
        new_state = replace(state, v=v_new, seed=seed)
    else:
        seed = state.message
        c0 = ctx.backend.gt_mul(seed, blind)
        nonce = body = None
        new_state = replace(state, v=v_new)

    updates: dict[int, GroupElementGT] = {}
    stored_rows = list(ciphertext.rows)
    for x in affected:
        lam = program.share(v_new, x, ctx.q)
        share = shares[program.attributes[x]]
        c1 = ctx.gt_mul(ctx.gt_exp(gt, lam), ctx.gt_exp(share.e_alpha, state.rho[x]))
        updates[x] = c1
        stored_rows[x] = replace(stored_rows[x], c1=None)

    new_ct = AbeCiphertext(program, c0, tuple(stored_rows), ciphertext.mode, nonce, body)
    return new_ct, updates, new_state
