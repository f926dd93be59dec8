"""Operation-count cost model for the access-control scheme.

The model prices a policy of m attributes at (2m + 1) pairings plus 5m
scalar multiplications end to end: encryption contributes one pairing and 4m
multiplications (two for C1, one each for C2 and the fused C3), decryption
two pairings per used row and at most one multiplication per reconstruction
coefficient. Validation runs on meters, not wall clocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..pairing import CounterSnapshot


@dataclass(frozen=True)
class CostModel:
    t_pair_ms: float = 4.5
    t_mul_ms: float = 0.6


def predict_cost(model: CostModel, m: int) -> float:
    """(2m + 1) * T_p + 5m * T_m milliseconds for an m-attribute policy."""
    if m < 1:
        raise ValueError("attribute count must be positive")
    return (2 * m + 1) * model.t_pair_ms + 5 * m * model.t_mul_ms


def counters_cost(model: CostModel, counters: CounterSnapshot) -> float:
    """Price measured meter readings with the model's constants."""
    return counters.pairings * model.t_pair_ms + counters.scalar_muls * model.t_mul_ms


def estimate_comm_overhead(
    rows: int,
    g_bits: int,
    gt_bits: int,
    universe_size: int,
    data_bits: int,
) -> int:
    """Ciphertext transfer size in bits: m^2 + m(|G_T| + 2|G|) + |G_T| + log w + |Data|.

    The matrix costs m^2 bits, the row triples and C0 carry the group
    elements, and the row map needs ceil(log2 w) bits per the universe size.
    """
    if rows < 0:
        raise ValueError("row count must be non-negative")
    if g_bits <= 0 or gt_bits <= 0 or universe_size < 1 or data_bits < 0:
        raise ValueError("sizes must be positive")
    log_w = math.ceil(math.log2(universe_size)) if universe_size > 1 else 0
    return rows * rows + rows * (gt_bits + 2 * g_bits) + gt_bits + log_w + data_bits

