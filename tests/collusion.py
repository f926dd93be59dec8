"""Naive key pooling between two identities, shared by the abe and acceptance tests."""

from gridseal.abe import AbeCiphertext, AccessDenied, UserKeyring, abe_decrypt
from gridseal.pairing import GroupElementGT, PairingContext


def combine_keyrings_attack(
    ctx: PairingContext,
    first: UserKeyring,
    second: UserKeyring,
    ciphertext: AbeCiphertext,
) -> bytes | GroupElementGT | None:
    """Merge both key maps and try decryption under each identity.

    Returns the payload if anything opened (it should not: the H(u) terms only
    cancel within one identity) and None for the expected denial.
    """
    if first.user_id == second.user_id:
        raise ValueError("pooling needs two distinct identities")
    merged = {**second.keys, **first.keys}
    for identity in (first.user_id, second.user_id):
        try:
            return abe_decrypt(ctx, UserKeyring(identity, merged), ciphertext)
        except AccessDenied:
            continue
    return None
