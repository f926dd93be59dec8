"""Decentralized multi-authority ciphertext-policy attribute encryption.

Each key distribution center owns a disjoint attribute slice and publishes,
per attribute i, the pair (e(g,g)^alpha_i, g^y_i) while keeping (alpha_i,
y_i) secret. A user u collects per-attribute keys sk_{i,u} = g^alpha_i *
H(u)^y_i across centers. Encryption shares a fresh secret s over the policy
matrix rows; decryption pairs per-row components back together and the H(u)
terms cancel only within a single identity, which is what stops key pooling
across users.

The payload travels under a KEM: C0 = M * e(g,g)^s blinds a random G_T
seed M, the hash of M keys AES-GCM, and the record carries the payload
authenticated, so a wrong key is a denial, never garbage.

Revocation rotates the shared secret: the encrypting terminal keeps the
sharing vector v, the per-row randomizers rho and the payload sealed,
recomputes the affected per-row components under the new secret, strips
them from the stored record, re-seals the payload under a fresh seed and
hands the new components only to users still in good standing.

A record is held as its wire bytes and its rows are built on read.
from_bytes checks every element body as bytes and refuses anything to_bytes
would not emit, but builds a row's elements only when that row is first
read. Decryption picks its rows from the C1 flags, so a denial builds no row,
and a grant only the rows it pairs. Revocation copies the bytes of the rows
it keeps and builds none.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .lsss import LsssProgram, solve_for_rows
from .pairing import (BackendMismatchError, GroupElementG, GroupElementGT, PairingBackend,
                      PairingContext)

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


@dataclass(frozen=True, slots=True)
class CiphertextRow:
    """Per-row triple; c1 is None once revocation strips it from the stored record."""

    c1: Optional[GroupElementGT]
    c2: GroupElementG
    c3: GroupElementG


@dataclass(eq=False, repr=False, slots=True)
class _Rows(SequenceABC):
    """A record's rows, each built from the record's bytes when its index is
    first read and kept from then on.

    Row 0's flag byte lies at `first`, and `flags` holds each row's C1 flag.
    A row is its flag byte, C1 if the flag is set, then C2 and C3, so the
    flags place every row. `built` holds each row once built, None before. Two
    threads reading one row at once may both build it; the builds are equal.
    """

    data: bytes
    backend: PairingBackend
    first: int
    flags: bytes
    built: list[Optional[CiphertextRow]]

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, index: int) -> CiphertextRow:
        row = self.built[index]
        if row is None:
            row = self.built[index] = self._build(index)
        return row

    def c2_at(self, index: int) -> int:
        """Where row `index`'s C2 begins; its C3 follows. Up to there, each row
        takes a flag byte and C1 where its flag is set, each row before it C2 and C3."""
        x = range(len(self.flags))[index]
        g, gt = self.backend.g_bytes, self.backend.gt_bytes
        return self.first + 1 + x * (1 + 2 * g) + gt * self.flags.count(1, 0, x + 1)

    def _build(self, index: int) -> CiphertextRow:
        data, backend, at = self.data, self.backend, self.c2_at(index)
        c1 = None
        if self.flags[index]:
            c1 = backend.element_gt_from_bytes(data[at - backend.gt_bytes:at])
        mid = at + backend.g_bytes
        return CiphertextRow(c1, backend.element_g_from_bytes(data[at:mid]),
                             backend.element_g_from_bytes(data[mid:mid + backend.g_bytes]))


@dataclass(frozen=True)
class AbeCiphertext:
    """A record under a compiled policy, held as its wire bytes.

    Wire layout (to_bytes), every integer big-endian, with no length prefix
    outside the program:

    * the policy program in LsssProgram's sparse layout;
    * the backend's wire id, one byte;
    * C0, then per row a flag byte (1 if C1 follows, 0 once revocation
      stripped it), C1 if present, C2 and C3; each element is its bare body,
      `gt_bytes` long in G_T and `g_bytes` long in G;
    * the 12-byte KEM nonce, then the AES-GCM output (body and 16-byte tag)
      to the end of the record.

    Records come from abe_encrypt, revoke and from_bytes. Two records are
    equal when their bytes and their group (which C0 names) are. `rows` is
    a read-only sequence of CiphertextRow over the bytes that builds each row
    on first read; a record abe_encrypt returns holds the rows it computed.
    """

    program: LsssProgram = field(compare=False)
    c0: GroupElementGT
    rows: _Rows = field(compare=False, repr=False)
    kem_nonce: bytes = field(compare=False)
    kem_body: bytes = field(compare=False)
    _data: bytes = field(repr=False)
    _program_end: int = field(compare=False, repr=False)

    def to_bytes(self, ctx: PairingContext) -> bytes:
        """The held bytes; BackendMismatchError under another group's context."""
        if self.c0.backend != ctx.backend.ident:
            raise BackendMismatchError("record from another group")
        return self._data

    @property
    def c1_stored(self) -> bytes:
        """Per row, whether the record stores its C1; reading this builds no row."""
        return self.rows.flags

    def binding_digest(self) -> str:
        """SHA-256 of what revocation leaves alone: the program bytes, then each
        row's C2 and C3. It binds an updates file to its record across every
        revocation of that record."""
        data, rows, width = self._data, self.rows, 2 * self.rows.backend.g_bytes
        digest = hashlib.sha256(data[:self._program_end])
        for x in range(len(rows)):
            at = rows.c2_at(x)
            digest.update(data[at:at + width])
        return digest.hexdigest()

    @classmethod
    def from_bytes(cls, data: bytes, ctx: PairingContext) -> "AbeCiphertext":
        """Strict inverse of to_bytes: anything it would not emit raises ValueError.

        The check is complete here: the program, C0, every row flag and,
        in one call to the backend's `check_bodies`, every element body. A
        row's elements are built only when the row is first read. The
        record keeps an immutable copy of data, so a caller's bytearray
        cannot change a row later.
        """
        data = bytes(data)
        backend = ctx.backend
        program, program_end = LsssProgram.from_bytes(data)
        if program_end >= len(data):
            raise ValueError("truncated ciphertext")
        if data[program_end] != backend.wire_id:
            raise ValueError("record from another backend")
        c0, offset = ctx.element_gt_from_bytes(data, program_end + 1)
        g, gt, end, first = backend.g_bytes, backend.gt_bytes, len(data), offset
        flags: list[int] = []
        g_offsets: list[int] = []
        gt_offsets: list[int] = []
        for _ in range(program.n):
            if offset >= end:
                raise ValueError("truncated ciphertext row")
            flag = data[offset]
            offset += 1
            flags.append(flag)
            if flag:
                if flag > 1:
                    raise ValueError("unknown row flag")
                gt_offsets.append(offset)
                offset += gt
            g_offsets += (offset, offset + g)
            offset += 2 * g
        if offset > end:
            raise ValueError("truncated element")
        backend.check_bodies(data, g_offsets, gt_offsets)
        if end - offset < _KEM_NONCE_BYTES + _KEM_TAG_BYTES:
            raise ValueError("the KEM part is shorter than its nonce and tag")
        nonce_end = offset + _KEM_NONCE_BYTES
        return cls(program, c0, _Rows(data, backend, first, bytes(flags),
                                      [None] * program.n),
                   data[offset:nonce_end], data[nonce_end:], data, program_end)


def _write(ctx: PairingContext, program: LsssProgram, program_bytes: bytes,
           sealed: tuple[GroupElementGT, bytes, bytes], flags: bytes, row_bytes: list[bytes],
           built: list[Optional[CiphertextRow]]) -> AbeCiphertext:
    """Lay out a record from its parts: the program and its bytes, the sealed
    KEM part (C0, nonce, body), each row's C1 flag, the rows' wire bytes in
    order (in pieces of any size) and each row already built, None for the others."""
    c0, nonce, body = sealed
    head = program_bytes + bytes([ctx.backend.wire_id]) + ctx.element_to_bytes(c0)
    data = b"".join([head, *row_bytes, nonce, body])
    return AbeCiphertext(program, c0, _Rows(data, ctx.backend, len(head), flags, built),
                         nonce, body, data, len(program_bytes))


@dataclass(frozen=True)
class EncryptionState:
    """Sealed encrypting-terminal state, exactly what revocation reads: the
    sharing vector v, the per-row randomizers rho and the payload (it never
    touches C3, so needs no w, and re-seals under a fresh seed)."""

    program: LsssProgram
    v: tuple[int, ...]
    rho: tuple[int, ...]
    payload: bytes

    def __post_init__(self):
        if len(self.v) != self.program.h or len(self.rho) != self.program.n:
            raise ValueError("the sharing vector and randomizers must match the matrix")
        if self.payload is None:
            raise ValueError("the state lacks its payload")


def _kem_key(ctx: PairingContext, seed: GroupElementGT) -> bytes:
    return hashlib.sha256(ctx.element_to_bytes(seed)).digest()


def _seal(ctx: PairingContext, gt: GroupElementGT, blind: GroupElementGT, payload: bytes,
          rng: random.Random) -> tuple[GroupElementGT, bytes, bytes]:
    """The KEM: a fresh seed M, then (C0 = M * blind, a nonce, AES-GCM over the payload)."""
    seed = ctx.backend.gt_exp(gt, rng.randrange(1, ctx.q))
    nonce = rng.getrandbits(_KEM_NONCE_BYTES * 8).to_bytes(_KEM_NONCE_BYTES, "big")
    body = AESGCM(_kem_key(ctx, seed)).encrypt(nonce, payload, None)
    return ctx.backend.gt_mul(seed, blind), nonce, body


def _require_shares(shares: Mapping[str, PublicShare], attributes: Iterable[str]) -> None:
    for attribute in attributes:
        if attribute not in shares:
            raise ValueError(f"no published share for attribute {attribute!r}")


def abe_encrypt(
    ctx: PairingContext,
    shares: Mapping[str, PublicShare],
    program: LsssProgram,
    payload: bytes,
    rng: random.Random,
) -> tuple[AbeCiphertext, EncryptionState]:
    """Encrypt a payload under a compiled policy.

    Draws the sharing vector v (first entry s), the masking vector w (first
    entry 0) and one randomizer per row, then computes

        C0    = M * e(g,g)^s             (M a random G_T seed, see _seal)
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
    if not isinstance(payload, (bytes, bytearray)):
        raise ValueError("the payload must be bytes")
    _require_shares(shares, program.attributes)
    h = program.h
    v = tuple(rng.randrange(ctx.q) for _ in range(h))
    w = (0,) + tuple(rng.randrange(ctx.q) for _ in range(h - 1))
    rho = tuple(rng.randrange(1, ctx.q) for _ in range(program.n))

    gt = ctx.pair(ctx.g, ctx.g)
    blind = ctx.backend.gt_exp(gt, v[0])  # unmetered: outside the 4m row budget
    payload = bytes(payload)
    sealed = _seal(ctx, gt, blind, payload, rng)

    g, encode = ctx.g, ctx.backend.element_bytes
    rows, row_bytes = [], []
    for attribute, cols, signs, rho_x in zip(program.attributes, program.support,
                                             program.signs, rho):
        # lambda_x and omega_x in one pass over the row's support; the
        # metered operations reduce them mod q
        lam = omega = 0
        for c, sign in zip(cols, signs):
            lam += sign * v[c]
            omega += sign * w[c]
        share = shares[attribute]
        c1 = ctx.gt_mul(ctx.gt_exp(gt, lam), ctx.gt_exp(share.e_alpha, rho_x))
        c2 = ctx.g_exp(g, rho_x)
        c3 = ctx.g_mulexp(((share.g_y, rho_x), (g, omega)))
        rows.append(CiphertextRow(c1, c2, c3))
        row_bytes += (b"\x01", encode(c1), encode(c2), encode(c3))

    record = _write(ctx, program, program.to_bytes(), sealed, b"\x01" * program.n, row_bytes,
                    rows)
    return record, EncryptionState(program, v, rho, payload)


def abe_decrypt(
    ctx: PairingContext,
    keyring: UserKeyring,
    ciphertext: AbeCiphertext,
    row_updates: Mapping[int, GroupElementGT] | None = None,
) -> bytes:
    """Recover the payload, or raise AccessDenied.

    Usable rows are those whose attribute the keyring holds and whose C1 is
    available (stored, or supplied out-of-band in `row_updates` after a
    revocation). The reconstruction coefficients come from the policy matrix;
    each used row costs exactly two pairings, and coefficients of one skip
    their G_T exponentiation.
    """
    updates = dict(row_updates or {})
    program = ciphertext.program
    stored = ciphertext.c1_stored
    usable = [x for x, attribute in enumerate(program.attributes)
              if attribute in keyring.keys and (stored[x] or x in updates)]
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
    seed = ctx.gt_mul(ciphertext.c0, ctx.gt_inv(blind))
    try:
        return AESGCM(_kem_key(ctx, seed)).decrypt(
            ciphertext.kem_nonce, ciphertext.kem_body, None)
    except InvalidTag as exc:
        raise AccessDenied("payload authentication failed") from exc


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
    Raises ValueError when `state` was sealed for another record, or when
    `shares` lacks the share of a row to refresh.
    """
    revoked = list(revoked)
    if not revoked:
        raise ValueError("revoked set must not be empty")
    program, rows, data = ciphertext.program, ciphertext.rows, ciphertext.to_bytes(ctx)
    # row 0 carries C2 = g^rho_0, so a state sealed for another record fails here (unmetered)
    g_rho_0 = ctx.element_to_bytes(ctx.backend.g_exp(ctx.g, state.rho[0] % ctx.q))
    if state.program != program or not data.startswith(g_rho_0, rows.c2_at(0)):
        raise ValueError("the sealed state belongs to another record")
    revoked_attrs: set[str] = set()
    for keyring in revoked:
        revoked_attrs |= keyring.attributes
    carrier_rows = {x for x in range(program.n) if program.attributes[x] in revoked_attrs}
    moved_rows = {x for x in range(program.n) if program.support[x][:1] == (0,)}
    # With no carrier row nothing here was reachable by the revoked users:
    # secret and shares stay, and only the seed is refreshed so the stored bytes rotate.
    affected = sorted(carrier_rows | moved_rows) if carrier_rows else []
    _require_shares(shares, (program.attributes[x] for x in affected))

    gt = ctx.backend.pair(ctx.g, ctx.g)
    if affected:
        v_new = (rng.randrange(1, ctx.q),) + state.v[1:]
        # e(g,g) is held from encryption time, so re-blinding C0 meters as one
        # scalar multiplication and each refreshed row as two.
        blind = ctx.gt_exp(gt, v_new[0])
    else:
        v_new, blind = state.v, ctx.backend.gt_exp(gt, state.v[0])
    sealed = _seal(ctx, gt, blind, state.payload, rng)

    updates: dict[int, GroupElementGT] = {}
    for x in affected:
        lam = program.share(v_new, x, ctx.q)
        share = shares[program.attributes[x]]
        updates[x] = ctx.gt_mul(ctx.gt_exp(gt, lam), ctx.gt_exp(share.e_alpha, state.rho[x]))

    # each row's C2 and C3 bytes are copied; an affected row loses its flag and C1
    flags = bytes(flag and x not in updates for x, flag in enumerate(rows.flags))
    gt_bytes, width, row_bytes = ctx.backend.gt_bytes, 2 * ctx.backend.g_bytes, []
    for x, keep in enumerate(flags):
        at = rows.c2_at(x)  # a kept row keeps its flag byte and C1 before this
        row_bytes.append(data[at - gt_bytes - 1:at + width] if keep
                         else b"\x00" + data[at:at + width])
    new_ct = _write(ctx, program, data[:ciphertext._program_end], sealed, flags, row_bytes,
                    [None] * program.n)
    return new_ct, updates, replace(state, v=v_new)
