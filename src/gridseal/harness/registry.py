"""The untrusted record store."""

from __future__ import annotations

from typing import Mapping

from ..abe import AbeCiphertext, GroupElementGT


class Repository:
    """Honest-but-curious record store.

    Holds ciphertexts and the per-user out-of-band row-update deliveries.
    Nothing here accepts key material; reads are free, writes append, and
    only the revocation path may replace a stored record.
    """

    def __init__(self):
        self._records: dict[str, AbeCiphertext] = {}
        self._deliveries: dict[tuple[str, str], dict[int, GroupElementGT]] = {}

    def store(self, record_id: str, ciphertext: AbeCiphertext) -> None:
        if record_id in self._records:
            raise ValueError(f"record {record_id!r} already stored")
        self._records[record_id] = ciphertext

    def get(self, record_id: str) -> AbeCiphertext:
        return self._records[record_id]

    def record_ids(self) -> list[str]:
        return list(self._records)

    def apply_revocation(self, record_id: str, ciphertext: AbeCiphertext) -> None:
        if record_id not in self._records:
            raise KeyError(f"record {record_id!r} not stored")
        self._records[record_id] = ciphertext

    def deliver_updates(self, record_id: str, user_id: str,
                        updates: Mapping[int, GroupElementGT]) -> None:
        held = self._deliveries.setdefault((record_id, user_id), {})
        held.update(updates)

    def updates_for(self, record_id: str, user_id: str) -> dict[int, GroupElementGT]:
        return dict(self._deliveries.get((record_id, user_id), {}))
