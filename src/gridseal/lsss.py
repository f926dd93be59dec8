"""Boolean access policies: parsing, matrix compilation, reconstruction solving.

A policy is a monotone formula over attribute identifiers (AND binds tighter
than OR, both left-associative, no negation). Compilation turns its binary
tree into a share-generating matrix whose rows map to leaf attributes through
pi; a set of rows is authorized exactly when (1, 0, ..., 0) lies in their
span over Z_q.

Two column layouts are offered:

* "fresh" (default): every AND gate claims a new column. This is the standard
  construction and the one with the exact guarantee that row-span membership
  of (1, 0, ..., 0) coincides with boolean satisfaction; the matrix has
  1 + #AND columns.
* "shared": AND gates extend their parent's vector in place, so sibling AND
  branches reuse columns. This reproduces the compact conformance layout,
  but with parallel AND branches under an OR it can authorize sets the
  formula rejects ((a & b) | (c & d) lets {a, d} through). Use it only to
  interoperate with material in that layout.

Matrix entries stay in {-1, 0, 1}; arithmetic maps -1 to q - 1 when a field
is chosen. Everything in this module is pure.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, pairwise
from typing import Optional, Sequence, Union

from .wire import decode_short_str, encode_short_str


class PolicySyntaxError(ValueError):
    """Parse failure; `position` is the character offset in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


@dataclass(frozen=True)
class Leaf:
    attribute: str


@dataclass(frozen=True)
class Gate:
    op: str  # "AND" | "OR"
    left: "AccessTree"
    right: "AccessTree"


AccessTree = Union[Leaf, Gate]

_TOKEN_RE = re.compile(r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<amp>&)|(?P<bar>\|)"
                       r"|(?P<bang>!|~)|(?P<ident>[A-Za-z0-9_][A-Za-z0-9_.:\-]*))")

_KEYWORDS = {"and": "AND", "or": "OR", "not": "NOT"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolicySyntaxError(f"unexpected character {stripped[0]!r}",
                                    len(text) - len(stripped))
        kind = match.lastgroup
        value = match.group(kind)
        at = match.start(kind)
        if kind == "ident":
            keyword = _KEYWORDS.get(value.lower())
            if keyword == "NOT":
                raise PolicySyntaxError("negation is not supported in monotone policies", at)
            if keyword:
                tokens.append((keyword, value, at))
            else:
                tokens.append(("IDENT", value, at))
        elif kind == "amp":
            tokens.append(("AND", value, at))
        elif kind == "bar":
            tokens.append(("OR", value, at))
        elif kind == "bang":
            raise PolicySyntaxError("negation is not supported in monotone policies", at)
        else:
            tokens.append((kind.upper(), value, at))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def _eof_position(self) -> int:
        return self.tokens[-1][2] if self.tokens else 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise PolicySyntaxError("unexpected end of policy", self._eof_position())
        self.i += 1
        return token

    def parse(self) -> AccessTree:
        tree = self.parse_or()
        extra = self.peek()
        if extra is not None:
            raise PolicySyntaxError(f"unexpected {extra[1]!r}", extra[2])
        return tree

    def parse_or(self) -> AccessTree:
        node = self.parse_and()
        while (tok := self.peek()) is not None and tok[0] == "OR":
            self.advance()
            node = Gate("OR", node, self.parse_and())
        return node

    def parse_and(self) -> AccessTree:
        node = self.parse_atom()
        while (tok := self.peek()) is not None and tok[0] == "AND":
            self.advance()
            node = Gate("AND", node, self.parse_atom())
        return node

    def parse_atom(self) -> AccessTree:
        token = self.peek()
        if token is None:
            raise PolicySyntaxError("expected an attribute or '('", self._eof_position())
        kind, value, at = token
        if kind == "IDENT":
            self.advance()
            return Leaf(value)
        if kind == "LPAREN":
            self.advance()
            node = self.parse_or()
            closing = self.peek()
            if closing is None or closing[0] != "RPAREN":
                raise PolicySyntaxError("missing ')'",
                                        closing[2] if closing else self._eof_position())
            self.advance()
            return node
        raise PolicySyntaxError(f"unexpected {value!r}", at)


def parse_policy(text: str) -> AccessTree:
    """Parse a policy expression; n-ary chains binarize left-associatively."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolicySyntaxError("empty policy", 0)
    return _Parser(tokens).parse()


def tree_attributes(tree: AccessTree) -> list[str]:
    """Leaf attributes in depth-first order (duplicates preserved)."""
    if isinstance(tree, Leaf):
        return [tree.attribute]
    return tree_attributes(tree.left) + tree_attributes(tree.right)


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
    would let a short encoding claim a huge matrix).
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
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["LsssProgram", int]:
        """Strict inverse of to_bytes, linear in the input; returns (program, next offset).

        Rejects with ValueError: n or h of zero, truncation, a row whose
        columns are not strictly increasing, a column outside 1..h, and a
        column no row uses.
        """
        if offset + 8 > len(data):
            raise ValueError("truncated program dimensions")
        n, h = struct.unpack_from(">II", data, offset)
        offset += 8
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
        return cls._sparse(h, tuple(tuple(columns[a:b]) for a, b in spans),
                           tuple(tuple(signs[a:b]) for a, b in spans), tuple(attrs)), offset


def compile_lsss(tree: AccessTree, columns: str = "fresh") -> LsssProgram:
    """Compile an access tree to (R, pi).

    The root starts with vector (1); OR passes the vector to both children;
    AND gives the left child (v | 1) and the right child (0, ..., 0, -1).
    In "fresh" mode each AND appends into its own new column (the sound
    construction, h = 1 + #AND); in "shared" mode an AND extends only its
    parent's vector, reproducing the compact conformance layout. Vectors are
    zero-padded at the end so column 1 carries the secret; each is carried
    as its nonzero columns and their signs.
    """
    if columns not in ("fresh", "shared"):
        raise ValueError("columns must be 'fresh' or 'shared'")
    leaves: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    unclaimed = 1  # fresh mode: the next column an AND claims

    def walk(node: AccessTree, cols: tuple[int, ...], signs: tuple[int, ...]) -> None:
        nonlocal unclaimed
        if isinstance(node, Leaf):
            leaves.append((node.attribute, cols, signs))
            return
        if node.op == "OR":
            walk(node.left, cols, signs)
            walk(node.right, cols, signs)
            return
        if columns == "fresh":
            column = unclaimed
            unclaimed += 1
        else:
            column = cols[-1] + 1  # the column just past the parent's vector
        walk(node.left, cols + (column,), signs + (1,))
        walk(node.right, (column,), (-1,))

    walk(tree, (0,), (1,))
    attrs, support, signs = zip(*leaves)
    return LsssProgram._sparse(1 + max(cols[-1] for cols in support), support, signs, attrs)


def solve_for_rows(
    program: LsssProgram,
    row_indices: Sequence[int],
    q: int,
) -> Optional[dict[int, int]]:
    """Coefficients k over the given rows with sum(k_x * R_x) = (1, 0, ..., 0) in Z_q.

    Returns only nonzero coefficients, or None when the rows do not span the
    target (absence, not an error). Gauss-Jordan elimination on the
    transposed system, kept sparse: each equation (a matrix column) is a
    {unknown: value} dict built from the row supports, and an index from
    each unknown to the equations holding it finds pivots and drives
    elimination. Unknowns are taken in the caller's order, each pivoting on
    the first equation at or after the current rank in the swap order; free
    unknowns pin to zero, so the support is a set of pivot rows.
    """
    indices = list(row_indices)
    if not indices:
        return None
    h = program.h
    equations: dict[int, dict[int, int]] = {}
    holders: list[set[int]] = []  # holders[j]: the equations where unknown j is nonzero
    for j, x in enumerate(indices):
        cols = program.support[x]
        for c, sign in zip(cols, program.signs[x]):
            equations.setdefault(c, {})[j] = sign % q
        holders.append(set(cols))
    rhs = {0: 1 % q}
    slot = list(range(h))   # slot[p]: the equation at position p of the swap order
    where = list(range(h))  # where[e]: the position of equation e
    pivots: list[tuple[int, int]] = []
    rank = 0
    for j, held in enumerate(holders):
        candidates = [e for e in held if where[e] >= rank]
        if not candidates:
            continue
        e = min(candidates, key=where.__getitem__)
        displaced = slot[rank]
        slot[rank], slot[where[e]] = e, displaced
        where[e], where[displaced] = rank, where[e]
        pivot = equations[e]
        if pivot[j] != 1:
            inv = pow(pivot[j], -1, q)
            for k in pivot:
                pivot[k] = pivot[k] * inv % q
            rhs[e] = rhs.get(e, 0) * inv % q
        target = rhs.get(e, 0)
        for r in list(held):
            if r == e:
                continue
            equation = equations[r]
            factor = equation[j]
            for k, value in pivot.items():
                value = (equation.get(k, 0) - factor * value) % q
                if value:
                    equation[k] = value
                    holders[k].add(r)
                else:
                    equation.pop(k, None)
                    holders[k].discard(r)
            if target:
                rhs[r] = (rhs.get(r, 0) - factor * target) % q
        pivots.append((j, e))
        rank += 1
    if any(rhs.get(e) for e in slot[rank:]):
        return None  # inconsistent: target outside the span
    solution = {indices[j]: rhs[e] for j, e in pivots if rhs.get(e)}
    return solution or None
