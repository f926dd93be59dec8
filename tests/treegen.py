"""Random monotone formula generators shared by the lsss/abe/acceptance/codec tests."""

import random

from hypothesis import strategies as st

from gridseal.lsss import Gate, Leaf


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
