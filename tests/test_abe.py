import hashlib
import pickle
import random
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from gridseal.abe import (
    AbeCiphertext,
    AccessDenied,
    UserKeyring,
    abe_decrypt,
    abe_encrypt,
    issue_key,
    kdc_setup,
    revoke,
    verify_user_key,
)
from gridseal.lsss import Gate, Leaf, LsssProgram, compile_lsss, parse_policy, solve_for_rows
from gridseal.pairing import BackendMismatchError, GroupElementGT, ctx_new
from collusion import combine_keyrings_attack
from lsss_oracles import evaluate_tree, solve_reconstruction
from treegen import random_tree

Q = 2**61 - 1

CONFORMANCE_PROGRAM = LsssProgram(
    ((1, 1), (0, -1), (1, 1), (0, -1), (1, 0), (1, 0)),
    ("D4", "E1", "D3", "S1", "D1", "D2"),
)


@pytest.fixture()
def ctx():
    return ctx_new(q=Q)


def build_user(ctx, authorities, user_id, attributes):
    keyring = UserKeyring(user_id)
    for attribute in attributes:
        for authority in authorities:
            if authority.owns(attribute):
                keyring.add(attribute, issue_key(authority, ctx, user_id, attribute),
                            ctx, authority.shares[attribute])
                break
        else:
            raise AssertionError(f"no authority owns {attribute}")
    return keyring


def merged_shares(authorities):
    shares = {}
    for authority in authorities:
        shares.update(authority.shares)
    return shares


@pytest.fixture()
def sec51(ctx):
    rng = random.Random(51)
    a1 = kdc_setup(ctx, "A1", ["D1", "D2", "D3", "D4"], rng)
    a2 = kdc_setup(ctx, "A2", ["E1", "E2"], rng)
    a3 = kdc_setup(ctx, "A3", ["S1", "S2"], rng)
    return rng, (a1, a2, a3)


# --- authority setup --------------------------------------------------------------

def test_kdc_setup_shapes_and_consistency(ctx):
    rng = random.Random(1)
    authority = kdc_setup(ctx, "A1", ["D1", "D2", "D3", "D4"], rng)
    assert len(authority.secrets) == len(authority.shares) == 4
    gt = ctx.backend.pair(ctx.g, ctx.g)
    for attribute, secret in authority.secrets.items():
        share = authority.shares[attribute]
        assert share.e_alpha == ctx.backend.gt_exp(gt, secret.alpha)
        assert share.g_y == ctx.backend.g_exp(ctx.g, secret.y)


def test_kdc_setup_rejects_empty_and_duplicates(ctx):
    with pytest.raises(ValueError):
        kdc_setup(ctx, "A", [], random.Random(2))
    with pytest.raises(ValueError):
        kdc_setup(ctx, "A", ["x", "x"], random.Random(2))


def test_three_authorities_disjoint(sec51):
    _, authorities = sec51
    seen = set()
    for authority in authorities:
        owned = set(authority.secrets)
        assert not owned & seen
        seen |= owned


def test_setup_randomness_matters(ctx):
    a = kdc_setup(ctx, "A", ["x"], random.Random(3))
    b = kdc_setup(ctx, "A", ["x"], random.Random(4))
    assert a.secrets["x"].alpha != b.secrets["x"].alpha


# --- key issuance -------------------------------------------------------------------

def test_issued_key_passes_verification_equation(ctx):
    rng = random.Random(5)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    element = issue_key(authority, ctx, "u1", "a")
    assert verify_user_key(ctx, authority.shares["a"], "u1", element)
    assert not verify_user_key(ctx, authority.shares["b"], "u1", element)
    assert not verify_user_key(ctx, authority.shares["a"], "u2", element)


def test_issue_is_deterministic(ctx):
    authority = kdc_setup(ctx, "A", ["a"], random.Random(6))
    assert issue_key(authority, ctx, "u1", "a") == issue_key(authority, ctx, "u1", "a")


def test_issue_rejects_unowned_attribute(sec51, ctx):
    _, (a1, a2, _) = sec51
    with pytest.raises(ValueError):
        issue_key(a2, ctx, "u3", "D4")  # appliance authority does not own D4


def test_keyring_add_verifies_when_asked(ctx):
    rng = random.Random(7)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    keyring = UserKeyring("u1")
    wrong = issue_key(authority, ctx, "someone-else", "a")
    with pytest.raises(ValueError):
        keyring.add("a", wrong, ctx, authority.shares["a"])


def test_sec51_user3_issuance(sec51, ctx):
    _, (a1, a2, a3) = sec51
    user3 = build_user(ctx, (a1, a2, a3), "u3", ["D4", "S1", "S2"])
    assert user3.attributes == {"D4", "S1", "S2"}
    for attribute in user3.attributes:
        owner = a1 if attribute.startswith("D") else a3
        assert verify_user_key(ctx, owner.shares[attribute], "u3",
                               user3.keys[attribute])


# --- encrypt / decrypt ----------------------------------------------------------------

def test_single_row_round_trip(ctx):
    rng = random.Random(8)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    user = build_user(ctx, (authority,), "u1", ["a"])
    program = compile_lsss(parse_policy("a"))
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"payload", rng)
    assert abe_decrypt(ctx, user, ciphertext) == b"payload"


def test_encryption_is_probabilistic(ctx):
    rng_a, rng_b = random.Random(10), random.Random(11)
    authority = kdc_setup(ctx, "A", ["a"], random.Random(12))
    program = compile_lsss(parse_policy("a"))
    ct_a, _ = abe_encrypt(ctx, authority.shares, program, b"m", rng_a)
    ct_b, _ = abe_encrypt(ctx, authority.shares, program, b"m", rng_b)
    assert ct_a.c0 != ct_b.c0
    user = build_user(ctx, (authority,), "u1", ["a"])
    assert abe_decrypt(ctx, user, ct_a) == abe_decrypt(ctx, user, ct_b) == b"m"


def test_unsatisfying_keyring_denied_never_wrong(ctx):
    rng = random.Random(13)
    authority = kdc_setup(ctx, "A", ["a", "b", "c"], rng)
    program = compile_lsss(parse_policy("a & b"))
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"secret", rng)
    for attrs in ((), ("a",), ("b",), ("c",), ("a", "c")):
        keyring = build_user(ctx, (authority,), "u", list(attrs))
        with pytest.raises(AccessDenied):
            abe_decrypt(ctx, keyring, ciphertext)


def test_empty_keyring_always_denied(ctx):
    rng = random.Random(14)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    program = compile_lsss(parse_policy("a"))
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"x", rng)
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, UserKeyring("repository"), ciphertext)


def test_encrypt_requires_published_shares(ctx):
    rng = random.Random(15)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    program = compile_lsss(parse_policy("a & mystery"))
    with pytest.raises(ValueError):
        abe_encrypt(ctx, authority.shares, program, b"x", rng)


def test_sec51_conformance_program_access(sec51, ctx):
    rng, authorities = sec51
    shares = merged_shares(authorities)
    user3 = build_user(ctx, authorities, "u3", ["D4", "S1", "S2"])
    solar_only = build_user(ctx, authorities, "solar", ["S2"])
    ciphertext, _ = abe_encrypt(ctx, shares, CONFORMANCE_PROGRAM,
                                b"high-consumption fossil record", rng)
    assert abe_decrypt(ctx, user3, ciphertext) == b"high-consumption fossil record"
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, solar_only, ciphertext)


def test_row_decryption_algebra(ctx):
    # dec(x) must equal e(g,g)^lambda_x * e(H(u), g)^omega_x on every row
    rng = random.Random(16)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    user = build_user(ctx, (authority,), "u9", ["a", "b"])
    program = compile_lsss(parse_policy("a & b"))
    replay = random.Random()
    replay.setstate(rng.getstate())
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"x", rng)
    # the masking vector w is not sealed: replay abe_encrypt's draws, v then w
    v = tuple(replay.randrange(Q) for _ in range(program.h))
    w = (0,) + tuple(replay.randrange(Q) for _ in range(program.h - 1))
    assert v == state.v
    gt = ctx.backend.pair(ctx.g, ctx.g)
    h_u = ctx.backend.hash_to_g(b"u9")
    for x in range(program.n):
        row = ciphertext.rows[x]
        lam = sum(program.rows[x][c] * v[c] for c in range(program.h)) % Q
        omega = sum(program.rows[x][c] * w[c] for c in range(program.h)) % Q
        dec = ctx.backend.gt_mul(row.c1, ctx.backend.pair(h_u, row.c3))
        dec = ctx.backend.gt_mul(dec, ctx.backend.gt_inv(
            ctx.backend.pair(user.keys[program.attributes[x]], row.c2)))
        expected = ctx.backend.gt_mul(
            ctx.backend.gt_exp(gt, lam),
            ctx.backend.gt_exp(ctx.backend.pair(h_u, ctx.g), omega))
        assert dec == expected


def test_randomized_access_exactness(ctx):
    rng = random.Random(17)
    attributes = [f"a{i}" for i in range(6)]
    authority = kdc_setup(ctx, "A", attributes, rng)
    for trial in range(40):
        tree = random_tree(rng, attributes, rng.randrange(1, 7))
        program = compile_lsss(tree)
        held = [a for a in attributes if rng.random() < 0.5]
        user = build_user(ctx, (authority,), f"user{trial}", held)
        payload = f"record {trial}".encode()
        ciphertext, _ = abe_encrypt(ctx, authority.shares, program, payload, rng)
        if evaluate_tree(tree, held):
            assert abe_decrypt(ctx, user, ciphertext) == payload
        else:
            with pytest.raises(AccessDenied):
                abe_decrypt(ctx, user, ciphertext)


def test_access_exactness_exhaustive_small_universe(ctx):
    rng = random.Random(170)
    attributes = ["a", "b", "c", "d", "e"]
    authority = kdc_setup(ctx, "A", attributes, rng)
    for policy in ("(a & b) | (c & d)", "a & (b | c) & (d | e)", "a | (b & c & d)"):
        tree = parse_policy(policy)
        program = compile_lsss(tree)
        ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"probe", rng)
        for mask in range(2 ** len(attributes)):
            held = [attributes[i] for i in range(len(attributes)) if mask >> i & 1]
            user = build_user(ctx, (authority,), f"m{mask}", held)
            if evaluate_tree(tree, held):
                assert abe_decrypt(ctx, user, ciphertext) == b"probe"
            else:
                with pytest.raises(AccessDenied):
                    abe_decrypt(ctx, user, ciphertext)


def test_kem_body_tamper_detected(ctx):
    rng = random.Random(18)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    user = build_user(ctx, (authority,), "u1", ["a"])
    program = compile_lsss(parse_policy("a"))
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"payload", rng)
    blob = bytearray(ciphertext.to_bytes(ctx))
    blob[-len(ciphertext.kem_body)] ^= 1  # the body's first byte
    tampered = AbeCiphertext.from_bytes(blob, ctx)
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, user, tampered)


# --- operation counting -----------------------------------------------------------------

def test_encryption_counts_one_pairing_and_4n_muls(ctx):
    rng = random.Random(19)
    authority = kdc_setup(ctx, "A", [f"a{i}" for i in range(6)], rng)
    program = compile_lsss(parse_policy(" & ".join(f"a{i}" for i in range(6))))
    with ctx.measure() as window:
        abe_encrypt(ctx, authority.shares, program, b"x", rng)
    assert window.pairings == 1
    assert window.scalar_muls == 4 * program.n


def _and_heavy_tree(rng, attributes, leaves):
    """A random formula whose gates are AND with probability 0.95."""
    if leaves == 1:
        return Leaf(rng.choice(attributes))
    split = rng.randrange(1, leaves)
    op = "AND" if rng.random() < 0.95 else "OR"
    return Gate(op, _and_heavy_tree(rng, attributes, split),
                _and_heavy_tree(rng, attributes, leaves - split))


# sha256 of each record's bytes and its sealed state (v, rho, payload), one per
# (leaves, AND-heavy) policy below. The records are byte for byte those of the
# encryption code before its row loop was fused.
GOLDEN_RECORDS = (
    (1, False,
     "01a54a316e373c945cb1fb6dda8cdfca5d584a04cfe93ba5d8c2356e409abeea"),
    (3, True,
     "22486a961fa56055885a5a23e3b5ff97ba0a0aae821869a03af730dd2f6610cd"),
    (9, False,
     "0fb0d33321162fc2e38b710f31dd01314091f2e8234ceb899c248ac25e877f3d"),
    (16, True,
     "094331191772f5e734f839a6f3f05150c86b7cd33eaf6cfb7662f80a946a8f3a"),
    (40, False,
     "279076d17f1fa968181abf6d58f6e2c0e512e05298eebf32a55c038911d3b4b9"),
    (64, True,
     "56dd835f69366b6ca358ab6b07738e4752b485e365056cea1b35b0ddc5ffa9f3"),
    (128, False,
     "f82f7ccea25042692324cf2ecbdc52f367f5daa1602801cd5b6a41375d5bfe2b"),
    (200, True,
     "26dafea830c6bc9a411d73da30a8f9186e1780faaf2eeec230d3aa49c567ece9"),
)


def test_encryption_output_is_pinned():
    # the 160-bit default group, so any change to a draw, an element or the
    # wire layout of a record moves a digest
    ctx = ctx_new()
    attributes = [f"a{i}" for i in range(48)]
    authority = kdc_setup(ctx, "A", attributes, random.Random(0x601D))
    for leaves, and_heavy, digest in GOLDEN_RECORDS:
        rng = random.Random(leaves)
        tree = (_and_heavy_tree if and_heavy else random_tree)(rng, attributes, leaves)
        program = compile_lsss(tree)
        with ctx.measure() as window:
            ciphertext, state = abe_encrypt(ctx, authority.shares, program,
                                            rng.randbytes(64), rng)
        assert (window.pairings, window.scalar_muls) == (1, 4 * program.n)
        # the record bytes pin w through C3 and the KEM seed through C0
        sealed = (ciphertext.to_bytes(ctx) + repr((state.v, state.rho)).encode()
                  + state.payload)
        assert state.program == program
        assert hashlib.sha256(sealed).hexdigest() == digest, (leaves, and_heavy)


# sha256 over seeded revocations, one per group: each round's stored record
# bytes, its row updates (index, then C1 body, in index order) and its binding
# digest. Computed with the code that rebuilt every row on revocation; a fresh
# and a decoded input must give the same output.
GOLDEN_REVOCATIONS = {
    160: "c7a568289891a779317c51045acc9a719f714da4777d48d93829ae8b4d73356e",
    61: "87feaef839773de6fe1212545e223e1b93b355081c9dbd21ecbe5eda9cfdb4c4",
}


@pytest.mark.parametrize("source", ["fresh", "decoded"])
@pytest.mark.parametrize("bits", sorted(GOLDEN_REVOCATIONS))
def test_revocation_output_is_pinned(bits, source):
    ctx = ctx_new() if bits == 160 else ctx_new(q=Q)
    attributes = [f"a{i}" for i in range(12)]
    authority = kdc_setup(ctx, "A", attributes, random.Random(0x2E40))
    pinned = hashlib.sha256()
    for seed in range(12):
        rng = random.Random(seed)
        tree = (_and_heavy_tree if seed % 2 else random_tree)(rng, attributes, 1 + 3 * seed)
        ciphertext, state = abe_encrypt(ctx, authority.shares, compile_lsss(tree),
                                        rng.randbytes(32), rng)
        for turn in range(1 + seed % 3):  # one to three successive revocations
            if source == "decoded":
                ciphertext = AbeCiphertext.from_bytes(ciphertext.to_bytes(ctx), ctx)
            gone = UserKeyring(f"gone{turn}", {a: issue_key(authority, ctx, "gone", a)
                                               for a in rng.sample(attributes, 2)})
            ciphertext, updates, state = revoke(ctx, authority.shares, ciphertext, state,
                                                [gone], rng)
            pinned.update(ciphertext.to_bytes(ctx))
            for x in sorted(updates):
                pinned.update(x.to_bytes(4, "big") + ctx.backend.element_bytes(updates[x]))
            pinned.update(ciphertext.binding_digest().encode())
    assert pinned.hexdigest() == GOLDEN_REVOCATIONS[bits]


def test_decryption_counts_two_pairings_per_used_row(ctx):
    rng = random.Random(20)
    attributes = [f"a{i}" for i in range(10)]
    authority = kdc_setup(ctx, "A", attributes, rng)
    user = build_user(ctx, (authority,), "u1", attributes)
    program = compile_lsss(parse_policy(" & ".join(attributes)))
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"x", rng)
    coefficients = solve_reconstruction(program, set(attributes), Q)
    assert len(coefficients) == 10  # the chain needs every row
    with ctx.measure() as window:
        abe_decrypt(ctx, user, ciphertext)
    assert window.pairings == 2 * len(coefficients)
    assert window.scalar_muls <= len(coefficients)


def test_denied_decryption_costs_no_pairings(ctx):
    rng = random.Random(21)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    program = compile_lsss(parse_policy("a & b"))
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"x", rng)
    outsider = build_user(ctx, (authority,), "u1", ["a"])
    with ctx.measure() as window:
        with pytest.raises(AccessDenied):
            abe_decrypt(ctx, outsider, ciphertext)
    assert window.pairings == 0


# --- collusion ---------------------------------------------------------------------------

def test_two_user_pooling_fails(ctx):
    rng = random.Random(22)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    program = compile_lsss(parse_policy("a & b"))
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"secret", rng)
    holder_a = build_user(ctx, (authority,), "u1", ["a"])
    holder_b = build_user(ctx, (authority,), "u2", ["b"])
    assert combine_keyrings_attack(ctx, holder_a, holder_b, ciphertext) is None
    # control: one identity holding both attributes succeeds
    insider = build_user(ctx, (authority,), "u3", ["a", "b"])
    assert abe_decrypt(ctx, insider, ciphertext) == b"secret"


def test_pooling_requires_distinct_identities(ctx):
    keyring = UserKeyring("u1")
    with pytest.raises(ValueError):
        combine_keyrings_attack(ctx, keyring, UserKeyring("u1"), None)


def test_randomized_collusion_splits(ctx):
    rng = random.Random(23)
    attributes = [f"a{i}" for i in range(6)]
    authority = kdc_setup(ctx, "A", attributes, rng)
    done = 0
    while done < 10:
        tree = random_tree(rng, attributes, rng.randrange(2, 7))
        involved = sorted(set(a for a in attributes if evaluate_tree(tree, {a})) |
                          set(attributes))
        # find a split where the union satisfies but neither side does
        union = [a for a in attributes if rng.random() < 0.7]
        if not evaluate_tree(tree, union) or len(union) < 2:
            continue
        cut = rng.randrange(1, len(union))
        part_a, part_b = union[:cut], union[cut:]
        if evaluate_tree(tree, part_a) or evaluate_tree(tree, part_b):
            continue
        program = compile_lsss(tree)
        ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"top", rng)
        first = build_user(ctx, (authority,), f"left{done}", part_a)
        second = build_user(ctx, (authority,), f"right{done}", part_b)
        assert combine_keyrings_attack(ctx, first, second, ciphertext) is None
        done += 1


# --- revocation ---------------------------------------------------------------------------

def test_revocation_blocks_revoked_and_keeps_updated_users(ctx):
    rng = random.Random(24)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    program = compile_lsss(parse_policy("a | b"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"record", rng)
    revoked_user = build_user(ctx, (authority,), "gone", ["a"])
    survivor = build_user(ctx, (authority,), "stays", ["b"])
    assert abe_decrypt(ctx, revoked_user, ciphertext) == b"record"

    new_ct, updates, _ = revoke(ctx, authority.shares, ciphertext, state,
                                [revoked_user], rng)
    assert updates  # both rows have a nonzero first coordinate here
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, revoked_user, new_ct)
    assert abe_decrypt(ctx, survivor, new_ct, updates) == b"record"
    # without the out-of-band rows even the survivor is stuck
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, survivor, new_ct)


def test_revocation_boundary_no_shared_attributes(ctx):
    rng = random.Random(25)
    authority = kdc_setup(ctx, "A", ["a", "z"], rng)
    program = compile_lsss(parse_policy("a"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"record", rng)
    stranger = build_user(ctx, (authority,), "stranger", ["z"])
    reader = build_user(ctx, (authority,), "reader", ["a"])
    new_ct, updates, _ = revoke(ctx, authority.shares, ciphertext, state,
                                [stranger], rng)
    assert updates == {}
    assert new_ct.kem_body != ciphertext.kem_body  # refreshed bytes
    assert abe_decrypt(ctx, reader, new_ct) == b"record"  # no updates required


def test_double_revocation_only_latest_updates_work(ctx):
    rng = random.Random(26)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    program = compile_lsss(parse_policy("a"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"v1", rng)
    first = build_user(ctx, (authority,), "first", ["a"])
    second = build_user(ctx, (authority,), "second", ["a"])
    third = build_user(ctx, (authority,), "third", ["a"])

    ct1, updates1, state1 = revoke(ctx, authority.shares, ciphertext, state,
                                   [first], rng)
    assert abe_decrypt(ctx, second, ct1, updates1) == b"v1"
    ct2, updates2, _ = revoke(ctx, authority.shares, ct1, state1, [second], rng)
    assert abe_decrypt(ctx, third, ct2, updates2) == b"v1"
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, third, ct2, updates1)  # stale round-one updates
    # what locks a revoked user out is the delivery policy: the stored record
    # alone (and any stale updates) stay sealed to them
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, second, ct2)
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, second, ct2, updates1)


def test_each_denial_names_its_reason(ctx, monkeypatch):
    rng = random.Random(28)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    ciphertext, state = abe_encrypt(ctx, authority.shares, compile_lsss(parse_policy("a & b")),
                                    b"record", rng)
    both = build_user(ctx, (authority,), "both", ["a", "b"])
    only_a = build_user(ctx, (authority,), "only_a", ["a"])
    other = build_user(ctx, (authority,), "other", ["b"])
    planted = UserKeyring("both", {"a": both.keys["a"], "b": other.keys["b"]})
    revoked_ct, _, _ = revoke(ctx, authority.shares, ciphertext, state, [both], rng)
    solves = []
    monkeypatch.setattr("gridseal.abe.solve_for_rows",
                        lambda *args: solves.append(args[1]) or solve_for_rows(*args))

    def denial(keyring, record):
        solves.clear()
        with pytest.raises(AccessDenied) as caught:
            abe_decrypt(ctx, keyring, record)
        return caught.value.reason, str(caught.value), len(solves)

    assert denial(only_a, ciphertext) == (
        "policy-unsatisfied", "attributes do not satisfy the access policy", 1)
    assert denial(planted, ciphertext) == ("auth-failed", "payload authentication failed", 1)
    # both attributes satisfy a & b, but their rows were stripped and no update is given
    reason, message, count = denial(both, revoked_ct)
    assert (reason, count) == ("rows-revoked", 2) and "satisfy the access policy" not in message
    # a stripped row alone cannot satisfy the policy: still unsatisfied, after a second solve
    assert denial(only_a, revoked_ct)[::2] == ("policy-unsatisfied", 2)
    assert solves == [[], [0]]


def test_an_access_denial_survives_pickling():
    denied = pickle.loads(pickle.dumps(AccessDenied("rows-revoked")))
    assert (denied.reason, str(denied)) == ("rows-revoked", str(AccessDenied("rows-revoked")))


def test_revoke_requires_nonempty_set(ctx):
    rng = random.Random(27)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    program = compile_lsss(parse_policy("a"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"x", rng)
    with pytest.raises(ValueError):
        revoke(ctx, authority.shares, ciphertext, state, [], rng)


def test_revoke_refuses_the_state_of_another_record(ctx):
    rng = random.Random(31)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    program = compile_lsss(parse_policy("a | b"))
    record, state = abe_encrypt(ctx, authority.shares, program, b"A", rng)
    _, same_policy = abe_encrypt(ctx, authority.shares, program, b"B", rng)
    _, fewer_rows = abe_encrypt(ctx, authority.shares, compile_lsss(parse_policy("a")), b"C", rng)
    gone = build_user(ctx, (authority,), "gone", ["a"])
    for foreign in (same_policy, fewer_rows):
        with ctx.measure() as window:
            with pytest.raises(ValueError, match="another record"):
                revoke(ctx, authority.shares, record, foreign, [gone], rng)
        assert (window.pairings, window.scalar_muls) == (0, 0)
    with ctx.measure() as window:
        revoke(ctx, authority.shares, record, state, [gone], rng)
    # the binding check is unmetered: one multiplication for C0, two per refreshed row
    assert (window.pairings, window.scalar_muls) == (0, 1 + 2 * 2)


def test_revoke_names_an_attribute_without_a_published_share(ctx):
    rng = random.Random(33)
    first = kdc_setup(ctx, "A", ["alpha", "beta"], rng)
    second = kdc_setup(ctx, "B", ["gamma"], rng)
    shares = {**first.shares, **second.shares}
    program = compile_lsss(parse_policy("alpha | gamma"))
    record, state = abe_encrypt(ctx, shares, program, b"x", rng)
    gone = build_user(ctx, (second,), "gone", ["gamma"])
    draws = rng.getstate()
    with ctx.measure() as window:
        with pytest.raises(ValueError, match="no published share for attribute 'gamma'"):
            revoke(ctx, first.shares, record, state, [gone], rng)
    assert (window.pairings, window.scalar_muls) == (0, 0)
    assert rng.getstate() == draws


def test_encryption_state_must_fit_its_program(ctx):
    rng = random.Random(32)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    _, state = abe_encrypt(ctx, authority.shares, compile_lsss(parse_policy("a & b")), b"x", rng)
    for changes in ({"rho": state.rho[:-1]}, {"v": state.v + (1,)}, {"payload": None}):
        with pytest.raises(ValueError):
            replace(state, **changes)

def test_revoked_rows_are_stripped_from_storage(ctx):
    rng = random.Random(28)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    program = compile_lsss(parse_policy("a & b"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"x", rng)
    revoked_user = build_user(ctx, (authority,), "gone", ["a"])
    new_ct, updates, _ = revoke(ctx, authority.shares, ciphertext, state,
                                [revoked_user], rng)
    stripped = [x for x, row in enumerate(new_ct.rows) if row.c1 is None]
    assert stripped == sorted(updates)


# --- serialization -------------------------------------------------------------------------

def test_ciphertext_serialization_round_trip(ctx):
    rng = random.Random(29)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    program = compile_lsss(parse_policy("a & b"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"wire", rng)
    restored = AbeCiphertext.from_bytes(ciphertext.to_bytes(ctx), ctx)
    assert restored == ciphertext
    user = build_user(ctx, (authority,), "u1", ["a", "b"])
    assert abe_decrypt(ctx, user, restored) == b"wire"


def test_reference_backend_offers_zero_hardness(sec51, ctx):
    # no keyring: the published shares and the stored record give up the payload
    rng, authorities = sec51
    shares = merged_shares(authorities)
    program = compile_lsss(parse_policy("(D4 & E1) | (D3 & S1) | D1"))
    ciphertext, _ = abe_encrypt(ctx, shares, program, b"feeder 7 telemetry", rng)
    stored = AbeCiphertext.from_bytes(ciphertext.to_bytes(ctx), ctx)
    # a reference element is its discrete log: C1 = lambda + alpha * rho, C2 = rho
    lam = [(row.c1.data - shares[attribute].e_alpha.data * row.c2.data) % Q
           for row, attribute in zip(stored.rows, stored.program.attributes)]
    coefficients = solve_for_rows(stored.program, range(stored.program.n), Q)
    s = sum(k * lam[x] for x, k in coefficients.items()) % Q
    seed = GroupElementGT(ctx.backend.ident, (stored.c0.data - s) % Q)  # C0 = M * e(g,g)^s
    key = hashlib.sha256(ctx.backend.element_bytes(seed)).digest()
    assert AESGCM(key).decrypt(stored.kem_nonce, stored.kem_body, None) == b"feeder 7 telemetry"


def test_kem_wire_layout_separates_nonce_body_tag(ctx):
    rng = random.Random(31)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    program = compile_lsss(parse_policy("a"))
    ciphertext, _ = abe_encrypt(ctx, authority.shares, program, b"abc", rng)
    blob = ciphertext.to_bytes(ctx)
    width = ctx.backend.g_bytes  # one width for both groups in the reference backend
    # program, backend byte, C0, one row (flag, C1, C2, C3), then the bare KEM
    # part: the 12-byte nonce and the AES-GCM output, body (3) and tag (16)
    head = len(program.to_bytes())
    assert blob[head] == ctx.backend.wire_id
    kem = head + 1 + width + 1 + 3 * width
    assert len(blob) == kem + 12 + 3 + 16
    assert blob[kem:kem + 12] == ciphertext.kem_nonce
    assert blob[kem + 12:] == ciphertext.kem_body
    assert blob[head + 1:kem] == b"".join(
        [ctx.backend.element_bytes(ciphertext.c0), b"\x01"]
        + [ctx.backend.element_bytes(e) for e in (ciphertext.rows[0].c1, ciphertext.rows[0].c2,
                                                  ciphertext.rows[0].c3)])


def test_post_revocation_serialization_keeps_holes(ctx):
    rng = random.Random(30)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    program = compile_lsss(parse_policy("a"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"x", rng)
    target = build_user(ctx, (authority,), "gone", ["a"])
    new_ct, updates, _ = revoke(ctx, authority.shares, ciphertext, state, [target], rng)
    restored = AbeCiphertext.from_bytes(new_ct.to_bytes(ctx), ctx)
    assert restored == new_ct
    assert restored.rows[0].c1 is None
    survivor = build_user(ctx, (authority,), "here", ["a"])
    assert abe_decrypt(ctx, survivor, restored, updates) == b"x"


def test_record_operations_never_build_the_dense_matrix(ctx):
    rng = random.Random(32)
    authority = kdc_setup(ctx, "A", ["a", "b", "c"], rng)
    program = compile_lsss(parse_policy("(a & b) | (b & c) | a & c"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"sparse", rng)
    restored = AbeCiphertext.from_bytes(ciphertext.to_bytes(ctx), ctx)
    reader = build_user(ctx, (authority,), "reader", ["a", "b"])
    assert abe_decrypt(ctx, reader, restored) == b"sparse"
    gone = build_user(ctx, (authority,), "gone", ["c"])
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, gone, restored)
    new_ct, updates, _ = revoke(ctx, authority.shares, restored, state, [gone], rng)
    assert abe_decrypt(ctx, reader, new_ct, updates) == b"sparse"
    # `rows` is built on first read and cached in the instance
    assert "rows" not in vars(program) and "rows" not in vars(restored.program)
    assert restored.program.rows == program.rows
    assert "rows" in vars(restored.program)


def _count_element_decodes(monkeypatch, backend):
    """Count the backend's element decoder calls, per group, from now on."""
    calls = {"g": 0, "gt": 0}
    for group in calls:
        decode = getattr(backend, f"element_{group}_from_bytes")

        def spy(body, group=group, decode=decode):
            calls[group] += 1
            return decode(body)
        monkeypatch.setattr(backend, f"element_{group}_from_bytes", spy)
    return calls


@pytest.mark.parametrize("revoked", [False, True], ids=["stored", "revoked"])
def test_a_decoded_record_builds_only_the_rows_decryption_pairs(ctx, monkeypatch, revoked):
    rng = random.Random(33)
    authority = kdc_setup(ctx, "A", ["a", "b", "c", "d", "e"], rng)
    program = compile_lsss(parse_policy("(a & b) | (c & d) | e"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"lazy", rng)
    updates = {}
    if revoked:
        gone = build_user(ctx, (authority,), "gone", ["e"])
        ciphertext, updates, _ = revoke(ctx, authority.shares, ciphertext, state, [gone], rng)
    blob = ciphertext.to_bytes(ctx)
    calls = _count_element_decodes(monkeypatch, ctx.backend)
    record = AbeCiphertext.from_bytes(blob, ctx)
    assert calls == {"g": 0, "gt": 1}  # C0 only: the rows' bodies are checked as bytes
    calls["gt"] = 0

    outsider = build_user(ctx, (authority,), "outsider", ["a", "c"])
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, outsider, record, updates)
    assert calls == {"g": 0, "gt": 0}

    reader = build_user(ctx, (authority,), "reader", ["c", "d", "a"])
    assert abe_decrypt(ctx, reader, record, updates) == b"lazy"
    stored = [x for x in range(program.n) if ciphertext.c1_stored[x]]
    usable = [x for x in range(program.n) if program.attributes[x] in reader.keys
              and (x in stored or x in updates)]
    picked = solve_for_rows(program, usable, ctx.q)
    assert calls == {"g": 2 * len(picked), "gt": len(set(picked) & set(stored))}


def test_a_fresh_record_reads_the_rows_its_bytes_decode_to(ctx):
    rng = random.Random(37)
    authority = kdc_setup(ctx, "A", ["a", "b", "c", "d"], rng)
    program = compile_lsss(parse_policy("(a & b) | (c & d)"))
    fresh, state = abe_encrypt(ctx, authority.shares, program, b"parity", rng)
    gone = build_user(ctx, (authority,), "gone", ["c"])
    revoked, updates, _ = revoke(ctx, authority.shares, fresh, state, [gone], rng)
    for record in (fresh, revoked):
        decoded = AbeCiphertext.from_bytes(record.to_bytes(ctx), ctx)
        assert len(record.rows) == len(decoded.rows) == program.n
        for x in range(program.n):
            assert record.rows[x] == decoded.rows[x]
    assert updates and [row.c1 is None for row in revoked.rows] == [
        x in updates for x in range(program.n)]


def test_a_slice_of_rows_reads_the_rows_the_list_gives(ctx):
    rng = random.Random(39)
    authority = kdc_setup(ctx, "A", ["a", "b", "c", "d", "e"], rng)
    program = compile_lsss(parse_policy("(a & b) | (c & d) | e"))
    fresh, state = abe_encrypt(ctx, authority.shares, program, b"slices", rng)
    gone = build_user(ctx, (authority,), "gone", ["c"])
    revoked, _, _ = revoke(ctx, authority.shares, fresh, state, [gone], rng)
    slices = [slice(None), slice(0, 2), slice(1, None), slice(None, -1), slice(-2, None),
              slice(None, None, 2), slice(None, None, -1), slice(4, 1, -2), slice(3, 3),
              slice(7, 20), slice(-20, 2)]
    for record in (fresh, revoked, AbeCiphertext.from_bytes(revoked.to_bytes(ctx), ctx)):
        rows = list(record.rows)
        for window in slices:
            assert record.rows[window] == rows[window], window


def test_a_fresh_record_builds_only_the_rows_decryption_pairs(ctx, monkeypatch):
    rng = random.Random(38)
    authority = kdc_setup(ctx, "A", ["a", "b", "c", "d", "e"], rng)
    program = compile_lsss(parse_policy("(a & b) | (c & d) | e"))
    outsider = build_user(ctx, (authority,), "outsider", ["a", "c"])
    reader = build_user(ctx, (authority,), "reader", ["c", "d", "a"])
    calls = _count_element_decodes(monkeypatch, ctx.backend)
    record, _ = abe_encrypt(ctx, authority.shares, program, b"fresh", rng)
    assert calls == {"g": 0, "gt": 0}  # encryption builds no row
    with pytest.raises(AccessDenied):
        abe_decrypt(ctx, outsider, record)
    assert calls == {"g": 0, "gt": 0}
    assert abe_decrypt(ctx, reader, record) == b"fresh"
    usable = [x for x, attribute in enumerate(program.attributes) if attribute in reader.keys]
    picked = solve_for_rows(program, usable, ctx.q)
    assert len(picked) < program.n
    assert calls == {"g": 2 * len(picked), "gt": len(picked)}


def test_revoking_a_decoded_record_builds_no_element(ctx, monkeypatch):
    rng = random.Random(35)
    authority = kdc_setup(ctx, "A", ["a", "b", "c"], rng)
    program = compile_lsss(parse_policy("(a & b) | c"))
    ciphertext, state = abe_encrypt(ctx, authority.shares, program, b"spliced", rng)
    gone = build_user(ctx, (authority,), "gone", ["c"])
    blob = ciphertext.to_bytes(ctx)
    calls = _count_element_decodes(monkeypatch, ctx.backend)
    record = AbeCiphertext.from_bytes(blob, ctx)
    calls["gt"] = 0  # C0
    for _ in range(2):  # a decoded record, then the record revocation wrote
        record, updates, state = revoke(ctx, authority.shares, record, state, [gone], rng)
        assert record.binding_digest() == ciphertext.binding_digest()
    assert calls == {"g": 0, "gt": 0}
    assert list(record.c1_stored) == [0, 1, 0] and sorted(updates) == [0, 2]


def test_a_record_is_bound_to_its_group(ctx):
    rng = random.Random(36)
    authority = kdc_setup(ctx, "A", ["a"], rng)
    ciphertext, _ = abe_encrypt(ctx, authority.shares, compile_lsss(parse_policy("a")),
                                b"group", rng)
    blob = ciphertext.to_bytes(ctx)
    # the largest 64-bit prime: bodies of the same width, every body of Q's group valid
    other = ctx_new(q=2**64 - 59)
    with pytest.raises(BackendMismatchError):
        ciphertext.to_bytes(other)
    relabelled = AbeCiphertext.from_bytes(blob, other)
    assert relabelled != ciphertext and relabelled.to_bytes(other) == blob
    with pytest.raises(BackendMismatchError):
        relabelled.to_bytes(ctx)


def test_an_out_of_range_body_in_the_last_row_fails_the_decode(ctx):
    rng = random.Random(34)
    authority = kdc_setup(ctx, "A", ["a", "b"], rng)
    ciphertext, _ = abe_encrypt(ctx, authority.shares, compile_lsss(parse_policy("a & b")),
                                b"strict", rng)
    blob = ciphertext.to_bytes(ctx)
    c3_at = len(blob) - len(ciphertext.kem_nonce) - len(ciphertext.kem_body) - ctx.backend.g_bytes
    assert (blob[c3_at:c3_at + ctx.backend.g_bytes]
            == ctx.backend.element_bytes(ciphertext.rows[-1].c3))
    for bad in (ctx.q, 2 ** (8 * ctx.backend.g_bytes) - 1):
        damaged = blob[:c3_at] + bad.to_bytes(ctx.backend.g_bytes, "big") + blob[c3_at + 8:]
        with pytest.raises(ValueError, match="out of range"):
            AbeCiphertext.from_bytes(damaged, ctx)
