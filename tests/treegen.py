"""Random monotone formulas shared by the lsss/abe/acceptance/codec tests, and
random programs of the class the reconstruction walk decides."""

import random

from hypothesis import strategies as st

from gridseal.lsss import Gate, Leaf, LsssProgram


def random_tree(rng: random.Random, attributes: list[str], leaves: int):
    if leaves == 1:
        return Leaf(rng.choice(attributes))
    split = rng.randrange(1, leaves)
    op = rng.choice(("AND", "OR"))
    return Gate(op, random_tree(rng, attributes, split),
                random_tree(rng, attributes, leaves - split))


@st.composite
def policy_trees(draw):
    attrs = [f"a{i}" for i in range(5)]
    leaves = draw(st.integers(min_value=1, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_tree(random.Random(seed), attrs, leaves)


@st.composite
def walkable_programs(draw, attributes=tuple(f"a{i}" for i in range(5))):
    """A program of the class LsssProgram.check_walkable accepts, compiled or not.

    Each row is a chain: its first column, then its later columns. Of up to 5
    columns, each but the first may become a later column once, after one
    drawn chain of smaller columns, so every row holding it agrees on the
    columns before it. Up to 8 rows are drawn from the chains, a one-column
    row covers each column no drawn row holds, and the rows are shuffled.
    """
    h = draw(st.integers(min_value=1, max_value=5))
    chains = [(c,) for c in range(h)]
    for j in range(1, h):
        if draw(st.booleans()):
            chains.append(draw(st.sampled_from([c for c in chains if c[-1] < j])) + (j,))
    chosen = draw(st.lists(st.sampled_from(chains), min_size=1, max_size=8))
    chosen += [(c,) for c in range(h) if not any(c in chain for chain in chosen)]
    rows = []
    for chain in draw(st.permutations(chosen)):
        row = [0] * h
        row[chain[0]] = 1 if chain[0] == 0 else -1
        for c in chain[1:]:
            row[c] = 1
        rows.append(row)
    return LsssProgram(rows, [draw(st.sampled_from(attributes)) for _ in rows])
