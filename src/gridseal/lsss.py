"""Boolean access policies: parsing, matrix compilation, reconstruction.

A policy is a monotone formula over attribute identifiers (AND binds tighter
than OR, both left-associative, no negation). An identifier starts with an
ASCII letter, digit or underscore and goes on with those and `.`, `:` or
`-`. The operators are `&` and `|` or the words AND and OR in any case;
`!`, `~` and NOT are refused. Parentheses group, with no limit on nesting
depth or policy length, and every PolicySyntaxError carries a character
offset into the text. Compilation turns the policy's binary tree into a
share-generating matrix whose rows map to leaf attributes through pi; a set
of rows is authorized exactly when (1, 0, ..., 0) lies in their span over
Z_q. Every AND gate claims a new column, the formula-to-LSSS conversion of
Lewko and Waters: the matrix has 1 + #AND columns, and row-span membership
of (1, 0, ..., 0) coincides exactly with boolean satisfaction.

Under that conversion a minimal satisfying row set sums to (1, 0, ..., 0)
with every coefficient 1, so solve_for_rows finds one by walking the columns,
with no field arithmetic; the decoder refuses programs the walk cannot decide.
Matrix entries stay in {-1, 0, 1}. Everything in this module is pure.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, pairwise, zip_longest
from typing import Optional, Sequence, Union

from .wire import decode_short_str, encode_short_str


class PolicySyntaxError(ValueError):
    """Parse failure; `position` is the character offset in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class _Node:
    """Equality, hash and repr of a policy tree, each an explicit-stack walk."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return all(a == b for a, b in zip_longest(_preorder(self), _preorder(other)))

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

    def __repr__(self) -> str:
        parts, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif isinstance(node, Leaf):
                parts.append(f"Leaf(attribute={node.attribute!r})")
            else:
                stack += (")", node.right, ", right=", node.left,
                          f"Gate(op={node.op!r}, left=")
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Leaf(_Node):
    attribute: str


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Gate(_Node):
    op: str  # "AND" | "OR"
    left: "AccessTree"
    right: "AccessTree"


AccessTree = Union[Leaf, Gate]


def _preorder(tree: AccessTree):
    """Each node's class and label in preorder: the same sequence exactly for equal trees."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield Leaf, node.attribute
        else:
            yield Gate, node.op
            stack += (node.right, node.left)


# Each match is one token. Whitespace is skipped between matches, and any
# other character no group names falls through to BAD.
_TOKEN_RE = re.compile(r"(?P<AND>&)|(?P<OR>\|)|(?P<NOT>[!~])|(?P<LPAREN>\()|(?P<RPAREN>\))"
                       r"|(?P<IDENT>[A-Za-z0-9_][A-Za-z0-9_.:\-]*)|(?P<BAD>\S)")


def _scan(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token; raises the first lexical error in the text."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind, value, at = match.lastgroup, match.group(), match.start()
        if kind == "IDENT" and value.upper() in ("AND", "OR", "NOT"):
            kind = value.upper()
        if kind == "NOT":
            raise PolicySyntaxError("negation is not supported in monotone policies", at)
        if kind == "BAD":
            raise PolicySyntaxError(f"unexpected character {value!r}", at)
        tokens.append((kind, value, at))
    return tokens


def parse_policy(text: str) -> AccessTree:
    """Parse a policy expression; n-ary chains binarize left-associatively.

    One operator-precedence pass over an explicit stack, so neither nesting
    depth nor length is bounded by the interpreter's recursion limit. Where
    a token cannot follow an operand, the error is "missing ')'" while a
    parenthesis is open and "unexpected ..." otherwise; at the end of the
    text the offset is the last token's.
    """
    tokens = _scan(text)
    if not tokens:
        raise PolicySyntaxError("empty policy", 0)
    operands: list[AccessTree] = []
    pending: list[str] = []  # "LPAREN", "AND" and "OR" tokens not yet applied
    depth = 0  # open parentheses
    want_operand = True
    for kind, value, at in tokens + [("END", "", tokens[-1][2])]:
        if want_operand:
            if kind == "IDENT":
                operands.append(Leaf(value))
                want_operand = False
            elif kind == "LPAREN":
                pending.append(kind)
                depth += 1
            else:
                raise PolicySyntaxError("expected an attribute or '('" if kind == "END"
                                        else f"unexpected {value!r}", at)
            continue
        # after an operand: an operator, a ')' closing an open '(', or the end at depth 0
        if kind not in ("AND", "OR", "RPAREN" if depth else "END"):
            raise PolicySyntaxError("missing ')'" if depth else f"unexpected {value!r}", at)
        # apply the pending operators that bind at least as tightly as this token
        while pending and pending[-1] != "LPAREN" and (kind != "AND" or pending[-1] == "AND"):
            right = operands.pop()
            operands[-1] = Gate(pending.pop(), operands[-1], right)
        if kind == "RPAREN":
            pending.pop()
            depth -= 1
        elif kind != "END":
            pending.append(kind)
            want_operand = True
    return operands[0]


def tree_attributes(tree: AccessTree) -> list[str]:
    """Leaf attributes in depth-first order (duplicates preserved)."""
    return [label for kind, label in _preorder(tree) if kind is Leaf]


@dataclass(frozen=True, init=False)
class LsssProgram:
    """Share-generating matrix plus the row-to-attribute map pi, held sparse.

    Row x of the n x h matrix is nonzero exactly at the columns support[x]
    lists, in increasing order, and signs[x] holds its entries there, each
    -1 or 1; attributes[x] is pi(x+1) in 1-based terms. The matrices
    compile_lsss emits have about two nonzero entries per row, so sharing,
    solving and the wire codec work over the supports, never over all n * h
    cells. The dense `rows` are built only when read.

    `LsssProgram(rows, attributes)` takes a literal dense matrix. It is never
    empty and every column carries a nonzero entry in some row (compile_lsss
    always emits such matrices; an unused column adds nothing to the span and
    would let a short encoding claim a huge matrix). Unlike from_bytes and
    abe_encrypt, it takes programs outside the class check_walkable accepts.
    """

    h: int
    support: tuple[tuple[int, ...], ...]
    signs: tuple[tuple[int, ...], ...]
    attributes: tuple[str, ...]

    def __init__(self, rows: Sequence[Sequence[int]], attributes: Sequence[str]):
        if len(rows) != len(attributes):
            raise ValueError("row/attribute count mismatch")
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if not set().union(*rows) <= {-1, 0, 1}:
            raise ValueError("matrix entries must lie in {-1, 0, 1}")
        columns = range(width)
        support = tuple(tuple(compress(columns, row)) for row in rows)
        if len(set().union(*support)) != width:
            raise ValueError("every matrix column needs a nonzero entry")
        signs = tuple(tuple(row[c] for c in cols) for row, cols in zip(rows, support))
        self.__dict__.update(h=width, support=support, signs=signs,
                             attributes=tuple(attributes))

    @classmethod
    def _sparse(cls, h: int, support: tuple[tuple[int, ...], ...],
                signs: tuple[tuple[int, ...], ...],
                attributes: tuple[str, ...]) -> "LsssProgram":
        """A program from already-checked sparse parts."""
        program = object.__new__(cls)
        program.__dict__.update(h=h, support=support, signs=signs, attributes=attributes)
        return program

    @property
    def n(self) -> int:
        return len(self.attributes)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix, built on first read (for literal comparisons)."""
        dense = []
        for cols, signs in zip(self.support, self.signs):
            row = [0] * self.h
            for c, sign in zip(cols, signs):
                row[c] = sign
            dense.append(tuple(row))
        return tuple(dense)

    def check_walkable(self) -> None:
        """Raise ValueError unless solve_for_rows decides this program: each row
        starts with +1 at column 0 or -1 at a later column and holds only +1 after
        that, and the rows holding a column j after their start agree on the
        columns before j (read as the column just before j and whether it starts
        the row). Every compile_lsss output passes, in any row order."""
        before: dict[int, int] = {}  # later column -> the column before it, ~it if it starts
        for cols, signs in zip(self.support, self.signs):
            if not cols or signs[0] != (-1 if cols[0] else 1) or signs.count(-1) != (cols[0] > 0):
                raise ValueError("each row must start with +1 in the first column or -1 "
                                 "in a later one, then hold only +1")
            key = ~cols[0]
            for c in cols[1:]:
                if before.setdefault(c, key) != key:
                    raise ValueError(f"the rows holding column {c + 1} after their first "
                                     "entry differ in the columns before it")
                key = c

    def share(self, vector: Sequence[int], x: int, q: int) -> int:
        """Row x's share of a sharing vector: the dot product R_x . vector in Z_q."""
        return sum(sign * vector[c] for c, sign in zip(self.support[x], self.signs[x])) % q

    def to_bytes(self) -> bytes:
        """Sparse layout, O(nnz) bytes for the matrix.

        * n and h, 4-byte big-endian unsigned each;
        * n per-row nonzero counts, 4-byte big-endian unsigned each;
        * the nonzero entries, row by row in increasing column order, each a
          4-byte big-endian signed +-(column + 1), the sign that of the entry;
        * the n row attributes as short strings (2-byte length, UTF-8).
        """
        entries = [sign * (c + 1) for cols, signs in zip(self.support, self.signs)
                   for c, sign in zip(cols, signs)]
        return b"".join([
            struct.pack(f">II{self.n}I", self.n, self.h, *map(len, self.support)),
            struct.pack(f">{len(entries)}i", *entries),
            *map(encode_short_str, self.attributes),
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["LsssProgram", int]:
        """Strict inverse of to_bytes, linear in the input: decodes the program at
        the start of data and returns (program, the offset after it).

        Rejects with ValueError: n or h of zero, truncation, a row whose
        columns are not strictly increasing, a column outside 1..h, a column
        no row uses, and a program outside the class check_walkable accepts.
        """
        if len(data) < 8:
            raise ValueError("truncated program dimensions")
        n, h = struct.unpack_from(">II", data)
        offset = 8
        if n == 0 or h == 0:
            raise ValueError("empty matrix")
        if offset + 4 * n > len(data):
            raise ValueError("truncated row counts")
        counts = struct.unpack_from(f">{n}I", data, offset)
        offset += 4 * n
        total = sum(counts)
        if offset + 4 * total > len(data):
            raise ValueError("truncated matrix entries")
        entries = struct.unpack_from(f">{total}i", data, offset)
        offset += 4 * total
        columns = [abs(e) - 1 for e in entries]
        if h > total or set(columns) != set(range(h)):
            raise ValueError("matrix columns must cover exactly 1..h")
        # A column may fail to exceed its predecessor only where a row starts.
        bounds = list(accumulate(counts, initial=0))
        if not set(bounds).issuperset(i for i in range(1, total)
                                      if columns[i] <= columns[i - 1]):
            raise ValueError("matrix row columns must be strictly increasing")
        signs = [1 if e > 0 else -1 for e in entries]
        attrs = []
        for _ in range(n):
            attr, offset = decode_short_str(data, offset)
            attrs.append(attr)
        spans = list(pairwise(bounds))
        program = cls._sparse(h, tuple(tuple(columns[a:b]) for a, b in spans),
                              tuple(tuple(signs[a:b]) for a, b in spans), tuple(attrs))
        program.check_walkable()
        return program, offset


def compile_lsss(tree: AccessTree) -> LsssProgram:
    """Compile an access tree to (R, pi).

    The root starts with vector (1); OR passes the vector to both children;
    AND gives the left child (v | 1) and the right child (0, ..., 0, -1),
    each AND appending into its own new column (h = 1 + #AND). Vectors are
    zero-padded at the end so column 1 carries the secret; each is carried
    as its nonzero columns and their signs.
    """
    leaves: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    unclaimed = 1  # the next column an AND claims
    stack = [(tree, (0,), (1,))]  # preorder: each left child pops before its sibling
    while stack:
        node, cols, signs = stack.pop()
        if isinstance(node, Leaf):
            leaves.append((node.attribute, cols, signs))
        elif node.op == "OR":
            stack += ((node.right, cols, signs), (node.left, cols, signs))
        else:
            stack += ((node.right, (unclaimed,), (-1,)),
                      (node.left, cols + (unclaimed,), signs + (1,)))
            unclaimed += 1
    attrs, support, signs = zip(*leaves)
    return LsssProgram._sparse(1 + max(cols[-1] for cols in support), support, signs, attrs)


def solve_for_rows(
    program: LsssProgram,
    row_indices: Sequence[int],
    q: int,
) -> Optional[dict[int, int]]:
    """{row: 1} for given rows that sum to (1, 0, ..., 0) in every Z_q, in the
    caller's order, or None when they do not satisfy the policy; an index
    outside the program raises ValueError, and a repeated one counts once.
    Walking the columns from the last to the first, column j is satisfied by
    the first given row starting there whose later columns are all satisfied.
    The pick is column 0's row and, recursively, the rows satisfying its later
    columns. It is exact on the programs LsssProgram.check_walkable accepts."""
    indices = list(dict.fromkeys(row_indices))
    if indices and (min(indices) < 0 or max(indices) >= program.n):
        raise ValueError("row index outside the program")
    support = program.support
    satisfied: dict[int, int] = {}  # column -> the row that satisfies it
    for x in sorted(indices, key=lambda x: -support[x][0]):  # stable: caller order per column
        start, later = support[x][0], support[x][1:]
        if start not in satisfied and all(c in satisfied for c in later):
            satisfied[start] = x
    if 0 not in satisfied:
        return None
    picked, columns = set(), [0]
    while columns:
        x = satisfied[columns.pop()]
        picked.add(x)
        columns += support[x][1:]
    return {x: 1 for x in indices if x in picked}
