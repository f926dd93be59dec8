"""Test-side oracles for policy programs: boolean satisfaction, span membership
over held attributes by linear algebra, re-substitution of reconstruction
coefficients, membership in the class the reconstruction walk decides, and
the compact shared-column layout."""

from typing import Iterable, Mapping, Optional

from gridseal.lsss import AccessTree, Leaf, LsssProgram
from dense_solver import dense_solve_for_rows


def evaluate_tree(tree: AccessTree, attributes: Iterable[str]) -> bool:
    """Boolean satisfaction of the formula by an attribute set."""
    held = set(attributes)

    def walk(node: AccessTree) -> bool:
        if isinstance(node, Leaf):
            return node.attribute in held
        if node.op == "AND":
            return walk(node.left) and walk(node.right)
        return walk(node.left) or walk(node.right)

    return walk(tree)


def solve_reconstruction(program: LsssProgram, attributes: Iterable[str],
                         q: int) -> Optional[dict[int, int]]:
    """Dense elimination over the rows whose attribute is held."""
    held = set(attributes)
    return dense_solve_for_rows(program, [x for x, a in enumerate(program.attributes)
                                          if a in held], q)


def verify_reconstruction(program: LsssProgram, coefficients: Mapping[int, int], q: int) -> bool:
    """Re-substitute: sum(k_x * R_x) must equal (1, 0, ..., 0) exactly in Z_q."""
    total: dict[int, int] = {}
    for index, k in coefficients.items():
        for c, sign in zip(program.support[index], program.signs[index]):
            total[c] = (total.get(c, 0) + k * sign) % q
    return total.get(0, 0) == 1 % q and not any(v for c, v in total.items() if c)


def in_walk_class(program: LsssProgram) -> bool:
    """The class LsssProgram.check_walkable accepts, as it is defined: each row's
    first entry is +1 at column 0 or -1 at a later column, every later entry
    is +1, and all rows holding a column j as a later entry hold the same
    columns before j."""
    before: dict[int, tuple[int, ...]] = {}
    for row in program.rows:
        cols = [c for c, entry in enumerate(row) if entry]
        if not cols or row[cols[0]] != (1 if cols[0] == 0 else -1):
            return False
        for i, c in enumerate(cols[1:], start=1):
            if row[c] != 1 or before.setdefault(c, tuple(cols[:i])) != tuple(cols[:i]):
                return False
    return True


def compile_shared_lsss(tree: AccessTree) -> LsssProgram:
    """The compact shared-column layout, the reference for the conformance matrix.

    As in compile_lsss, OR passes its vector to both children and AND gives
    the left child (v | 1) and the right child (0, ..., 0, -1); but an AND
    claims the column just past its parent's vector, so sibling AND branches
    reuse columns. That layout is unsound: with parallel ANDs under an OR it
    authorizes sets the formula rejects ((a & b) | (c & d) lets {a, d} through).
    """
    rows: list[list[int]] = []
    attributes: list[str] = []

    def walk(node: AccessTree, vector: list[int]) -> None:
        if isinstance(node, Leaf):
            rows.append(vector)
            attributes.append(node.attribute)
        elif node.op == "OR":
            walk(node.left, vector)
            walk(node.right, vector)
        else:
            walk(node.left, vector + [1])
            walk(node.right, [0] * len(vector) + [-1])

    walk(tree, [1])
    width = max(map(len, rows))
    return LsssProgram([row + [0] * (width - len(row)) for row in rows], attributes)
