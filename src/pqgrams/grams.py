"""pq-gram extraction and sparse count-vector profiles.

A pq-gram of a tree is a pattern of p stem nodes (an ancestor chain) and q
consecutive-sibling base nodes, read off the tree after conceptually padding
it with dummy ``*`` nodes: p-1 above the root, q-1 on each flank of a
non-leaf's child list, and q below each leaf. Extraction here never builds
that padded tree; it slides a p-deep stem register and a q-wide base window
over the original tree in one traversal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tree import DUMMY, Tree

LabelTuple = tuple[str, ...]


@dataclass(frozen=True, slots=True)
class GramShape:
    """The (p, q) pair fixing gram geometry: p stem nodes, q base nodes."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p and q must be >= 1, got p={self.p}, q={self.q}")


def extract_grams(t: Tree, shape: GramShape) -> Counter[LabelTuple]:
    """Multiset of label tuples (stem labels root-most first, then base).

    Every node anchors windows: a leaf yields one all-dummy base window,
    a node with c children yields c+q-1 windows over its dummy-flanked
    child list. Single traversal, O(n*q) work.
    """
    p, q = shape.p, shape.q
    nodes = t.nodes
    flank = (DUMMY,) * (q - 1)
    leaf_base = (DUMMY,) * q
    out: list[LabelTuple] = []
    append = out.append
    # preorder; each entry carries its node's stem (the last p labels of
    # the root path, dummy-padded above the root)
    stack = [(t.root, (DUMMY,) * (p - 1) + (nodes[t.root].label,))]
    push = stack.append
    while stack:
        nid, stem = stack.pop()
        ch = nodes[nid].children
        if not ch:
            append(stem + leaf_base)
            continue
        tail = stem[1:]
        labels = []
        for c in reversed(ch):
            label = nodes[c].label
            labels.append(label)
            push((c, tail + (label,)))
        labels.reverse()
        ext = flank + tuple(labels) + flank
        for i in range(len(ch) + q - 1):
            append(stem + ext[i : i + q])
    # Counter keeps first-occurrence order, which vocabularies rely on
    return Counter(out)


def gram_count(t: Tree, shape: GramShape) -> int:
    """Total gram multiplicity: 1 per leaf, c+q-1 per node with c children."""
    q = shape.q
    total = 0
    for node in t.nodes:
        c = len(node.children)
        total += 1 if c == 0 else c + q - 1
    return total


class Vocabulary:
    """Interned id space over the distinct label tuples of a tree corpus.

    Tuples keep first-occurrence order so vocabularies are reproducible.
    One extra reserved slot (index ``oov_id``) absorbs tuples never seen
    when the vocabulary was built, so distances against unseen trees stay
    defined. ``dim`` counts that slot.
    """

    __slots__ = ("shape", "tuples", "_ids")

    def __init__(self, shape: GramShape, tuples: Iterable[LabelTuple]):
        tuples = tuple(tuples)
        ids: dict[LabelTuple, int] = {}
        width = shape.p + shape.q
        for i, tup in enumerate(tuples):
            if len(tup) != width:
                raise ValueError(f"tuple {tup!r} has length {len(tup)}, expected {width}")
            if tup in ids:
                raise ValueError(f"duplicate tuple {tup!r}")
            ids[tup] = i
        self.shape = shape
        self.tuples = tuples
        self._ids = ids

    @classmethod
    def from_trees(cls, trees: Iterable[Tree], shape: GramShape) -> "Vocabulary":
        trees = list(trees)
        if not trees:
            raise ValueError("cannot build a vocabulary from an empty collection")
        seen: dict[LabelTuple, None] = {}
        for t in trees:
            for tup in extract_grams(t, shape):
                seen.setdefault(tup)
        return cls(shape, seen.keys())

    @property
    def oov_id(self) -> int:
        return len(self.tuples)

    @property
    def dim(self) -> int:
        """Vector dimension: distinct tuples plus the reserved slot."""
        return len(self.tuples) + 1

    def id_of(self, tup: LabelTuple) -> int:
        return self._ids.get(tup, len(self.tuples))

    def __len__(self) -> int:
        return len(self.tuples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.shape == other.shape and self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash((self.shape, self.tuples))

    def __repr__(self) -> str:
        return f"Vocabulary(p={self.shape.p}, q={self.shape.q}, tuples={len(self.tuples)})"


@dataclass(frozen=True, slots=True, eq=False)
class SparseCounts:
    """Non-negative integer vector stored as (sorted indices, values)."""

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def dense(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        out[self.indices] = self.values
        return out

    def total(self) -> int:
        return int(self.values.sum())


@dataclass(frozen=True, slots=True, eq=False)
class Profile:
    """A tree's gram counts as a sparse vector over a vocabulary."""

    vocab: Vocabulary
    indices: np.ndarray
    counts: np.ndarray

    @property
    def dim(self) -> int:
        return self.vocab.dim

    def dense(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        out[self.indices] = self.counts
        return out

    def total(self) -> int:
        return int(self.counts.sum())


def _profile_of(vocab: Vocabulary, acc: dict[int, int]) -> Profile:
    idx = sorted(acc)
    vals = [acc[i] for i in idx]
    return Profile(vocab, np.array(idx, dtype=np.int64), np.array(vals, dtype=np.int64))


def profile(t: Tree, vocab: Vocabulary, shape: GramShape | None = None) -> Profile:
    """Count vector of ``t`` over ``vocab``; unseen tuples land in the OOV slot."""
    if shape is None:
        shape = vocab.shape
    elif shape != vocab.shape:
        raise ValueError(f"shape {shape} does not match vocabulary shape {vocab.shape}")
    acc: dict[int, int] = {}
    ids, oov = vocab._ids, vocab.oov_id
    for tup, c in extract_grams(t, shape).items():
        i = ids.get(tup, oov)
        acc[i] = acc.get(i, 0) + c
    return _profile_of(vocab, acc)


def encode_trees(
    trees: Iterable[Tree], shape: GramShape
) -> tuple[Vocabulary, list[Profile]]:
    """``build_vocabulary(trees, shape)`` and every tree's profile over it,
    extracting each tree's grams once. No profile has OOV counts."""
    ids: dict[LabelTuple, int] = {}
    accs: list[dict[int, int]] = []
    for t in trees:
        # tuples are distinct within one tree's multiset, and ids are handed
        # out in first-occurrence order as in Vocabulary.from_trees
        grams = extract_grams(t, shape)
        accs.append({ids.setdefault(tup, len(ids)): c for tup, c in grams.items()})
    if not accs:
        raise ValueError("cannot build a vocabulary from an empty collection")
    vocab = Vocabulary(shape, ids)
    return vocab, [_profile_of(vocab, acc) for acc in accs]


def count_matrix(profiles: Sequence[Profile], vocab: Vocabulary) -> np.ndarray:
    """Dense float64 counts over ``vocab``, one row per profile."""
    X = np.zeros((len(profiles), vocab.dim))
    for row, p in zip(X, profiles):
        if p.vocab is not vocab and p.vocab != vocab:
            raise ValueError("profile was built over a different vocabulary")
        row[p.indices] = p.counts
    return X


def _require_same_vocab(x: Profile, y: Profile) -> None:
    if x.vocab is not y.vocab and x.vocab != y.vocab:
        raise ValueError("profiles were built over different vocabularies")


def sym_diff(x: Profile, y: Profile) -> SparseCounts:
    """Component-wise |x - y|, i.e. x + y - 2*min(x, y)."""
    _require_same_vocab(x, y)
    union = np.union1d(x.indices, y.indices)
    xs = np.zeros(len(union), dtype=np.int64)
    xs[np.searchsorted(union, x.indices)] = x.counts
    ys = np.zeros(len(union), dtype=np.int64)
    ys[np.searchsorted(union, y.indices)] = y.counts
    diff = np.abs(xs - ys)
    keep = diff != 0
    return SparseCounts(x.dim, union[keep], diff[keep])


def multiset_distance(gx: Counter[LabelTuple], gy: Counter[LabelTuple]) -> int:
    """Gram distance straight from multisets: |union| - 2*|intersection|.

    Union counts multiplicities additively; intersection takes per-tuple
    minima. Equals ``pq_distance`` on profiles over any vocabulary that
    covers both trees.
    """
    inter = sum(min(c, gy.get(tup, 0)) for tup, c in gx.items())
    return sum(gx.values()) + sum(gy.values()) - 2 * inter


def build_vocabulary(trees: Sequence[Tree], shape: GramShape) -> Vocabulary:
    """All distinct tuples of ``trees`` in first-occurrence order, plus OOV."""
    return Vocabulary.from_trees(trees, shape)
