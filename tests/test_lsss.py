import random
import re
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
from lsss_oracles import (
    compile_shared_lsss,
    evaluate_tree,
    in_walk_class,
    solve_reconstruction,
    verify_reconstruction,
)
from treegen import policy_trees, random_tree, walkable_programs

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


NEGATION = "negation is not supported in monotone policies"


@pytest.mark.parametrize("text, message, position", [
    pytest.param("a ^ b", "unexpected character '^'", 2, id="unexpected-character"),
    pytest.param("!a", NEGATION, 0, id="negation-bang"),
    pytest.param("a | ~b", NEGATION, 4, id="negation-tilde"),
    pytest.param("a & NOT b", NEGATION, 4, id="negation-keyword"),
    pytest.param("a & not b", NEGATION, 4, id="negation-keyword-lowercase"),
    pytest.param("", "empty policy", 0, id="empty"),
    pytest.param("   ", "empty policy", 0, id="whitespace-only"),
    pytest.param("a1 & (a2 |", "expected an attribute or '('", 9, id="operand-missing-at-end"),
    pytest.param("(", "expected an attribute or '('", 0, id="lone-parenthesis"),
    pytest.param("(a b)", "missing ')'", 3, id="missing-parenthesis-mid-text"),
    pytest.param("(a & b", "missing ')'", 5, id="missing-parenthesis-at-end"),
    pytest.param("a b", "unexpected 'b'", 2, id="extra-token"),
    pytest.param("(a) (b)", "unexpected '('", 4, id="extra-parenthesis"),
    pytest.param("a)", "unexpected ')'", 1, id="unexpected-closing-parenthesis"),
    pytest.param("a & & b", "unexpected '&'", 4, id="operator-for-operand"),
    pytest.param("a OR or b", "unexpected 'or'", 5, id="word-operator-for-operand"),
    pytest.param("a b ^", "unexpected character '^'", 4, id="lexical-error-beats-grammar-error"),
])
def test_syntax_error_position(text, message, position):
    with pytest.raises(PolicySyntaxError) as excinfo:
        parse_policy(text)
    assert str(excinfo.value) == f"{message} at offset {position}"
    assert excinfo.value.position == position


SPELLINGS = {"AND": ("&", "AND", "and"), "OR": ("|", "OR", "or")}


@given(tree=policy_trees(), data=st.data())
@settings(deadline=None, max_examples=200)
def test_rendered_trees_parse_back(tree, data):
    # fully parenthesized, random spacing, any operator spelling
    def gap(word=False):  # a word operator needs a separator from its operands
        return (" " if word else "") + data.draw(st.sampled_from(("", " ", "  ", "\t", "\n")))

    def render(node):
        if isinstance(node, Leaf):
            return node.attribute
        op = data.draw(st.sampled_from(SPELLINGS[node.op]))
        word = op.isalpha()
        return f"({gap()}{render(node.left)}{gap(word)}{op}{gap(word)}{render(node.right)}{gap()})"

    assert parse_policy(gap() + render(tree) + gap()) == tree


@pytest.mark.parametrize("text", [
    pytest.param(" & ".join(f"a{i % 7}" for i in range(5000)), id="and-chain-of-5000"),
    pytest.param("(" * 2000 + "a0" + ")" * 2000, id="leaf-in-2000-parentheses"),
    pytest.param("".join(f"a{i % 7} {'&|'[i % 2]} (" for i in range(2000)) + "a0" + ")" * 2000,
                 id="right-nested-2000-deep"),
])
def test_deep_policies_parse_and_compile(text):
    # nesting depth and length are bounded by memory, not the recursion limit
    tree = parse_policy(text)
    program = compile_lsss(tree)
    leaves = re.findall(r"a\d", text)
    assert tree_attributes(tree) == list(program.attributes) == leaves
    assert program.h == 1 + text.count("&")


def test_deep_trees_compare_hash_and_print():
    text = " & ".join(["a"] * 5000)
    tree, again = parse_policy(text), parse_policy(text)
    assert tree == again and not tree != again
    assert hash(tree) == hash(again)
    assert repr(tree).count("Leaf(attribute='a')") == 5000
    last_leaf_differs = parse_policy(" & ".join(["a"] * 4999 + ["b"]))
    assert tree != last_leaf_differs and not tree == last_leaf_differs


def test_small_trees_print_as_dataclasses():
    assert repr(parse_policy("a | b & c")) == (
        "Gate(op='OR', left=Leaf(attribute='a'), "
        "right=Gate(op='AND', left=Leaf(attribute='b'), right=Leaf(attribute='c')))")
    assert {Leaf("a"): 1}[Leaf("a")] == 1
    assert Leaf("AND") != Gate("AND", Leaf("a"), Leaf("a"))
    assert Gate("OR", Leaf("a"), Leaf("b")) != Gate("AND", Leaf("a"), Leaf("b"))
    assert Leaf("a") != "a"


def test_identifiers_with_separators():
    tree = parse_policy("source:fossil & user:power_engineer")
    assert tree_attributes(tree) == ["source:fossil", "user:power_engineer"]


# --- compilation --------------------------------------------------------------

def test_single_leaf_program():
    program = compile_lsss(Leaf("a"))
    assert program.rows == ((1,),)
    assert program.attributes == ("a",)


def test_conformance_matrix_in_shared_mode():
    program = compile_shared_lsss(parse_policy(FIG3_POLICY))
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
    program = compile_shared_lsss(parse_policy("(a & b) | (c & d)"))
    assert program.h == 2  # both AND branches land in the same column
    assert compile_lsss(parse_policy("(a & b) | (c & d)")).h == 3


def test_shared_mode_over_authorizes_parallel_ands():
    # the compact layout admits {a, d}; the library's layout must not
    shared = compile_shared_lsss(parse_policy("(a & b) | (c & d)"))
    fresh = compile_lsss(parse_policy("(a & b) | (c & d)"))
    assert solve_reconstruction(shared, {"a", "d"}, Q) is not None
    assert solve_reconstruction(fresh, {"a", "d"}, Q) is None


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


@st.composite
def literal_programs(draw):
    """An arbitrary {-1, 0, 1} matrix of up to 8 rows and 5 columns, every column used."""
    h = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=8))
    cells = st.lists(st.sampled_from((-1, 0, 1)), min_size=h, max_size=h)
    rows = draw(st.lists(cells, min_size=n, max_size=n))
    for c in range(h):
        if not any(row[c] for row in rows):
            rows[draw(st.integers(min_value=0, max_value=n - 1))][c] = draw(st.sampled_from((-1, 1)))
    return LsssProgram(rows, ["a"] * n)


def shuffled_rows(data, program, repeats):
    """A shuffled row subset of `program`, with up to `repeats` repeated indices."""
    rows = data.draw(st.permutations(range(program.n)))
    rows = rows[:data.draw(st.integers(min_value=0, max_value=program.n))]
    rows += data.draw(st.lists(st.integers(min_value=0, max_value=program.n - 1),
                               max_size=repeats))
    return data.draw(st.permutations(rows))


def assert_agrees_with_the_dense_oracle(program, rows, compiled):
    # the walk picks rows exactly when the dense oracle finds (1, 0, ..., 0)
    # in their span, and its pick sums to it with coefficients 1
    assert LsssProgram.from_bytes(program.to_bytes()) == (program, len(program.to_bytes()))
    in_order = sorted(set(rows))
    for q in (3, Q):
        picked = solve_for_rows(program, rows, q)
        assert (picked is None) == (dense_solve_for_rows(program, rows, q) is None)
        if picked is not None:
            assert list(picked) == [x for x in dict.fromkeys(rows) if x in picked]
            assert set(picked.values()) == {1} and verify_reconstruction(program, picked, q)
        if compiled:  # in the order decryption passes rows: the oracle's rows exactly
            assert solve_for_rows(program, in_order, q) == dense_solve_for_rows(
                program, in_order, q)


@given(tree=policy_trees(), data=st.data())
@settings(deadline=None, max_examples=200)
def test_sparse_solver_matches_the_dense_oracle(tree, data):
    program = compile_lsss(tree)
    assert_agrees_with_the_dense_oracle(program, shuffled_rows(data, program, 3), True)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       leaves=st.integers(min_value=8, max_value=40), data=st.data())
@settings(deadline=None, max_examples=60)
def test_sparse_solver_matches_the_dense_oracle_on_wide_policies(seed, leaves, data):
    program = compile_lsss(random_tree(random.Random(seed), [f"a{i}" for i in range(12)], leaves))
    assert_agrees_with_the_dense_oracle(program, shuffled_rows(data, program, 4), True)


@given(program=walkable_programs(), data=st.data())
@settings(deadline=None, max_examples=200)
def test_the_walk_agrees_with_linear_algebra_on_its_class(program, data):
    # programs the decoder accepts that compile_lsss does not write
    assert_agrees_with_the_dense_oracle(program, shuffled_rows(data, program, 3), False)


@given(program=st.one_of(literal_programs(), policy_trees().map(compile_shared_lsss),
                         walkable_programs()))
@settings(deadline=None, max_examples=300)
def test_the_decoder_accepts_exactly_the_walks_class(program):
    blob = program.to_bytes()
    if in_walk_class(program):
        assert LsssProgram.from_bytes(blob) == (program, len(blob))
    else:
        with pytest.raises(ValueError, match="start with|columns before"):
            LsssProgram.from_bytes(blob)


def test_solve_for_rows_refuses_indices_outside_the_program():
    program = compile_lsss(parse_policy("a | b"))
    for rows in ([-1], [5], [0, 2]):
        with pytest.raises(ValueError, match="outside"):
            solve_for_rows(program, rows, 101)


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
    # n = h = 2000, one entry per row (+1 in the first column, -1 in each
    # later one), empty attribute names: 20,008 bytes that a dense decoder
    # would expand to a 2000 x 2000 matrix (32.6 MB)
    n = 2000
    entries = [1, *range(-2, -n - 1, -1)]
    blob = struct.pack(f">II{n}I{n}i", n, n, *[1] * n, *entries) + b"\x00\x00" * n
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
