"""The dense Gauss-Jordan solver over program.rows: the oracle for lsss.solve_for_rows."""

from typing import Optional, Sequence

from gridseal.lsss import LsssProgram


def dense_solve_for_rows(program: LsssProgram, row_indices: Sequence[int],
                         q: int) -> Optional[dict[int, int]]:
    """Coefficients k over the given rows with sum(k_x * R_x) = (1, 0, ..., 0) in Z_q,
    or None; Gaussian elimination on the dense transposed system."""
    indices = list(row_indices)
    if not indices:
        return None
    h = program.h
    n = len(indices)
    # Augmented system A * k = e1 where column j of A is the j-th selected row.
    aug = [[program.rows[indices[j]][r] % q for j in range(n)] + [1 if r == 0 else 0]
           for r in range(h)]
    pivot_row_of_col: dict[int, int] = {}
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, h) if aug[r][col] % q), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = pow(aug[rank][col], -1, q)
        aug[rank] = [x * inv % q for x in aug[rank]]
        for r in range(h):
            if r != rank and aug[r][col] % q:
                factor = aug[r][col]
                aug[r] = [(aug[r][k] - factor * aug[rank][k]) % q for k in range(n + 1)]
        pivot_row_of_col[col] = rank
        rank += 1
    for r in range(rank, h):
        if aug[r][n] % q:
            return None  # inconsistent: target outside the span
    solution: dict[int, int] = {}
    for col, r in pivot_row_of_col.items():
        value = aug[r][n] % q
        if value:
            solution[indices[col]] = value
    if not solution:
        return None
    return solution
