import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseal.lsss import (
    Gate,
    Leaf,
    LsssProgram,
    PolicySyntaxError,
    compile_lsss,
    parse_policy,
    solve_for_rows,
    tree_attributes,
)
from dense_solver import dense_solve_for_rows
from lsss_oracles import evaluate_tree, solve_reconstruction, verify_reconstruction
from treegen import policy_trees, random_tree

Q = 2**61 - 1

CONFORMANCE_ROWS = ((1, 1), (0, -1), (1, 1), (0, -1), (1, 0), (1, 0))
CONFORMANCE_PI = ("D4", "E1", "D3", "S1", "D1", "D2")
FIG3_POLICY = "((D4 & E1) | (D3 & S1)) | D1 | D2"


def conformance_program() -> LsssProgram:
    return LsssProgram(CONFORMANCE_ROWS, CONFORMANCE_PI)


# --- parsing ----------------------------------------------------------------

def test_single_leaf():
    assert parse_policy("a1") == Leaf("a1")


def test_seven_leaf_nested_tree():
    tree = parse_policy("((a1 & a2 & a3) | (a4 & a5)) & (a6 | a7)")
    assert tree_attributes(tree) == ["a1", "a2", "a3", "a4", "a5", "a6", "a7"]
    assert isinstance(tree, Gate) and tree.op == "AND"
    # the three-way AND binarizes left-associatively
    left = tree.left
    assert left.op == "OR"
    assert left.left == Gate("AND", Gate("AND", Leaf("a1"), Leaf("a2")), Leaf("a3"))


def test_word_operators_and_case():
    assert parse_policy("a AND b or c") == parse_policy("a & b | c")


def test_precedence_and_associativity():
    assert parse_policy("a | b & c") == Gate("OR", Leaf("a"), Gate("AND", Leaf("b"), Leaf("c")))
    assert parse_policy("a | b | c") == Gate("OR", Gate("OR", Leaf("a"), Leaf("b")), Leaf("c"))


def test_syntax_error_position():
    with pytest.raises(PolicySyntaxError) as excinfo:
        parse_policy("a1 & (a2 |")
    assert excinfo.value.position == 9


def test_negation_rejected():
    with pytest.raises(PolicySyntaxError):
        parse_policy("!a")
    with pytest.raises(PolicySyntaxError):
        parse_policy("a & NOT b")


def test_empty_and_garbage_rejected():
    with pytest.raises(PolicySyntaxError):
        parse_policy("")
    with pytest.raises(PolicySyntaxError):
        parse_policy("   ")
    with pytest.raises(PolicySyntaxError):
        parse_policy("a ^ b")
    with pytest.raises(PolicySyntaxError):
        parse_policy("a b")
    with pytest.raises(PolicySyntaxError):
        parse_policy("(a & b")


def test_identifiers_with_separators():
    tree = parse_policy("source:fossil & user:power_engineer")
    assert tree_attributes(tree) == ["source:fossil", "user:power_engineer"]


# --- compilation --------------------------------------------------------------

def test_single_leaf_program():
    program = compile_lsss(Leaf("a"))
    assert program.rows == ((1,),)
    assert program.attributes == ("a",)


def test_conformance_matrix_in_shared_mode():
    program = compile_lsss(parse_policy(FIG3_POLICY), columns="shared")
    assert program.rows == CONFORMANCE_ROWS
    assert program.attributes == CONFORMANCE_PI


def _and_gates(node):
    if isinstance(node, Leaf):
        return 0
    return (node.op == "AND") + _and_gates(node.left) + _and_gates(node.right)


def test_fresh_mode_width_is_one_plus_and_count():
    rng = random.Random(99)
    for _ in range(50):
        tree = random_tree(rng, [f"a{i}" for i in range(6)], rng.randrange(1, 9))
        and_count = _and_gates(tree)
        program = compile_lsss(tree)
        assert program.n == len(tree_attributes(tree))
        assert program.h == 1 + and_count


def test_shared_mode_reuses_columns():
    program = compile_lsss(parse_policy("(a & b) | (c & d)"), columns="shared")
    assert program.h == 2  # both AND branches land in the same column
    assert compile_lsss(parse_policy("(a & b) | (c & d)")).h == 3


def test_shared_mode_over_authorizes_parallel_ands():
    # the compact layout admits {a, d}; the default layout must not
    shared = compile_lsss(parse_policy("(a & b) | (c & d)"), columns="shared")
    fresh = compile_lsss(parse_policy("(a & b) | (c & d)"))
    assert solve_reconstruction(shared, {"a", "d"}, Q) is not None
    assert solve_reconstruction(fresh, {"a", "d"}, Q) is None


def test_unknown_column_mode_rejected():
    with pytest.raises(ValueError):
        compile_lsss(Leaf("a"), columns="diagonal")


def test_operand_swap_changes_rows_not_authorization():
    original = parse_policy("(a & b) | c")
    swapped = Gate("OR", Gate("AND", Leaf("b"), Leaf("a")), Leaf("c"))
    p_orig, p_swap = compile_lsss(original), compile_lsss(swapped)
    assert p_orig.rows != p_swap.rows or p_orig.attributes != p_swap.attributes
    universe = ["a", "b", "c"]
    for mask in range(8):
        held = {universe[i] for i in range(3) if mask >> i & 1}
        assert (solve_reconstruction(p_orig, held, Q) is not None) == \
               (solve_reconstruction(p_swap, held, Q) is not None)


# --- reconstruction -----------------------------------------------------------

def test_conformance_example_coefficients():
    program = conformance_program()
    coefficients = solve_reconstruction(program, {"D4", "S1"}, Q)
    assert coefficients == {0: 1, 3: 1}  # rows 1 and 4, one-based
    assert verify_reconstruction(program, coefficients, Q)


def test_unauthorized_set_returns_absence():
    program = conformance_program()
    assert solve_reconstruction(program, {"S2"}, Q) is None
    assert solve_reconstruction(program, set(), Q) is None
    assert solve_reconstruction(program, {"S1"}, Q) is None


def test_direct_rows_authorized():
    program = conformance_program()
    for attr in ("D1", "D2"):
        coefficients = solve_reconstruction(program, {attr}, Q)
        assert coefficients is not None
        assert verify_reconstruction(program, coefficients, Q)


def test_duplicate_attribute_rows_are_usable():
    program = compile_lsss(parse_policy("(a & b) | a"))
    coefficients = solve_reconstruction(program, {"a"}, Q)
    assert coefficients is not None and verify_reconstruction(program, coefficients, Q)


def test_solver_results_verify_by_substitution():
    rng = random.Random(4242)
    attributes = [f"a{i}" for i in range(8)]
    for _ in range(60):
        tree = random_tree(rng, attributes, rng.randrange(1, 9))
        program = compile_lsss(tree)
        held = {a for a in attributes if rng.random() < 0.5}
        coefficients = solve_reconstruction(program, held, Q)
        if coefficients is not None:
            assert verify_reconstruction(program, coefficients, Q)
            assert all(k != 0 for k in coefficients.values())


def test_solve_for_rows_subset():
    program = conformance_program()
    # row 0 alone cannot span, rows {0, 3} can
    assert solve_for_rows(program, [0], Q) is None
    assert solve_for_rows(program, [0, 3], Q) == {0: 1, 3: 1}


@given(tree=policy_trees(), layout=st.sampled_from(("fresh", "shared")), data=st.data())
@settings(deadline=None, max_examples=200)
def test_sparse_solver_matches_the_dense_oracle(tree, layout, data):
    # shuffled row subsets, with and without repeated indices: the same
    # coefficient dict as dense elimination, or None from both
    program = compile_lsss(tree, columns=layout)
    rows = data.draw(st.permutations(range(program.n)))
    rows = rows[:data.draw(st.integers(min_value=0, max_value=program.n))]
    rows += data.draw(st.lists(st.integers(min_value=0, max_value=program.n - 1), max_size=3))
    rows = data.draw(st.permutations(rows))
    for q in (Q, 3):
        assert solve_for_rows(program, rows, q) == dense_solve_for_rows(program, rows, q)


def test_span_satisfaction_equivalence_sampled():
    rng = random.Random(31337)
    attributes = [f"a{i}" for i in range(8)]
    for _ in range(60):
        tree = random_tree(rng, attributes, rng.randrange(1, 9))
        program = compile_lsss(tree)
        for mask in range(256):
            held = {attributes[i] for i in range(8) if mask >> i & 1}
            satisfied = evaluate_tree(tree, held)
            solved = solve_reconstruction(program, held, Q)
            assert satisfied == (solved is not None)
            if solved is not None:
                assert verify_reconstruction(program, solved, Q)


# --- serialization -------------------------------------------------------------

def test_program_serialization_round_trip():
    program = conformance_program()
    blob = program.to_bytes()
    assert blob[:8] == (6).to_bytes(4, "big") + (2).to_bytes(4, "big")
    # one count per row, then each nonzero entry as a signed +-(column + 1)
    assert blob[8:32] == struct.pack(">6I", 2, 1, 2, 1, 1, 1)
    assert blob[32:64] == struct.pack(">8i", 1, 2, -2, 1, 2, -2, 1, 1)
    restored, consumed = LsssProgram.from_bytes(blob)
    assert restored == program
    assert consumed == len(blob)


def test_wide_program_decodes_in_linear_memory():
    # n = h = 2000, one entry per row, empty attribute names: 20,008 bytes
    # that a dense decoder would expand to a 2000 x 2000 matrix (32.6 MB)
    n = 2000
    blob = struct.pack(f">II{n}I{n}i", n, n, *[1] * n, *range(1, n + 1)) + b"\x00\x00" * n
    assert len(blob) == 20_008
    tracemalloc.start()
    try:
        program, consumed = LsssProgram.from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert consumed == len(blob) and (program.n, program.h) == (n, n)
    assert peak < 4_000_000
    assert solve_for_rows(program, [5], Q) is None
    assert solve_for_rows(program, [4, 0], Q) == {0: 1}


def test_program_shape_validation():
    with pytest.raises(ValueError):
        LsssProgram(((1,),), ("a", "b"))
    with pytest.raises(ValueError):
        LsssProgram(((1, 0), (1,)), ("a", "b"))
    with pytest.raises(ValueError, match="entries"):
        LsssProgram(((1, 2),), ("a",))
    with pytest.raises(ValueError, match="empty"):
        LsssProgram((), ())
    with pytest.raises(ValueError, match="empty"):
        LsssProgram(((),), ("a",))
    with pytest.raises(ValueError, match="column"):
        LsssProgram(((1, 0), (1, 0)), ("a", "b"))
