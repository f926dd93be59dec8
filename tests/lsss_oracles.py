"""Test-side oracles for policy programs: boolean satisfaction, solving over
held attributes, and re-substitution of reconstruction coefficients."""

from typing import Iterable, Mapping, Optional

from gridseal.lsss import AccessTree, Leaf, LsssProgram, solve_for_rows


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
    """solve_for_rows over the rows whose attribute is held."""
    held = set(attributes)
    return solve_for_rows(program, [x for x, a in enumerate(program.attributes) if a in held], q)


def verify_reconstruction(program: LsssProgram, coefficients: Mapping[int, int], q: int) -> bool:
    """Re-substitute: sum(k_x * R_x) must equal (1, 0, ..., 0) exactly in Z_q."""
    total: dict[int, int] = {}
    for index, k in coefficients.items():
        for c, sign in zip(program.support[index], program.signs[index]):
            total[c] = (total.get(c, 0) + k * sign) % q
    return total.get(0, 0) == 1 % q and not any(v for c, v in total.items() if c)
