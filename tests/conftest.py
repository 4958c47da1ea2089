from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st

from pqgrams.metric import W_INIT
from pqgrams.tree import Node, Tree

LABELS = ("a", "b", "c", "d")


def tree_from_parents(parents: list[int], labels: list[str]) -> Tree:
    """Node 0 is the root; parents[i-1] is the parent of node i."""
    n = len(labels)
    kids: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parents, start=1):
        kids[p].append(i)
    return Tree([Node(lab, tuple(ch)) for lab, ch in zip(labels, kids)])


@st.composite
def trees(draw, max_nodes: int = 12, labels: tuple[str, ...] = LABELS) -> Tree:
    n = draw(st.integers(1, max_nodes))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    labs = [draw(st.sampled_from(labels)) for _ in range(n)]
    return tree_from_parents(parents, labs)


def random_tree_raw(n: int, rng: random.Random, labels=LABELS) -> Tree:
    """Plain uniform-attachment random tree for seeded bulk checks."""
    parents = [rng.randrange(i) for i in range(1, n)]
    labs = [rng.choice(labels) for _ in range(n)]
    return tree_from_parents(parents, labs)


def weight_draws(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    """Raw weights for k-NN filter checks: W_INIT (integer distances, many
    ties), normal(0, 2), uniform(-40, 40) and uniform(-800, 30), where the
    effective weights of the lowest draws underflow to 0."""
    return [
        np.full(dim, W_INIT),
        rng.normal(0.0, 2.0, dim),
        rng.uniform(-40.0, 40.0, dim),
        rng.uniform(-800.0, 30.0, dim),
    ]
