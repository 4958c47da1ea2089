"""pq-gram extraction and sparse count-vector profiles.

A pq-gram of a tree is a pattern of p stem nodes (an ancestor chain) and q
consecutive-sibling base nodes, read off the tree after conceptually padding
it with dummy ``*`` nodes: p-1 above the root, q-1 on each flank of a
non-leaf's child list, and q below each leaf. Extraction here never builds
that padded tree; it reads the tree's preorder label and subtree-size arrays
once, carrying a p-deep stem from each node to its children and sliding a
q-wide base window over each child list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
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
    child list. One pass over the preorder arrays, O(n*q) work.
    """
    p, q = shape.p, shape.q
    labels, sizes = t.labels, t.sizes
    flank = (DUMMY,) * (q - 1)
    leaf_base = (DUMMY,) * q
    out: list[LabelTuple] = []
    append = out.append
    # stems[i]: the last p labels of node i's root path, dummy-padded above
    # the root; a parent comes before its children, so it sets theirs
    stems: list[LabelTuple] = [()] * len(labels)
    stems[0] = (DUMMY,) * (p - 1) + (labels[0],)
    for i, size in enumerate(sizes):
        stem = stems[i]
        if size == 1:
            append(stem + leaf_base)
            continue
        tail = stem[1:]
        kids = []
        j, end = i + 1, i + size
        while j < end:
            label = labels[j]
            kids.append(label)
            stems[j] = tail + (label,)
            j += sizes[j]
        ext = flank + tuple(kids) + flank
        for k in range(len(kids) + q - 1):
            append(stem + ext[k : k + q])
    # Counter keeps first-occurrence order, which vocabularies rely on
    return Counter(out)


def gram_count(t: Tree, shape: GramShape) -> int:
    """Total gram multiplicity: 1 per leaf, c+q-1 per node with c children."""
    n, leaves = len(t.sizes), t.sizes.count(1)
    return leaves + (n - 1) + (shape.q - 1) * (n - leaves)


def _nonempty(tuples: dict[LabelTuple, int | None]) -> dict[LabelTuple, int | None]:
    """``tuples``, unless it is empty: every tree has a gram, so no tuples
    means no trees."""
    if not tuples:
        raise ValueError("cannot build a vocabulary from an empty collection")
    return tuples


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
        grams = (extract_grams(t, shape) for t in trees)
        return cls(shape, _nonempty(dict.fromkeys(chain.from_iterable(grams))))

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


def profile(t: Tree, vocab: Vocabulary) -> Profile:
    """Count vector of ``t`` over ``vocab``; unseen tuples land in the OOV slot."""
    grams = extract_grams(t, vocab.shape)
    oov = vocab.oov_id
    ids = np.fromiter(map(vocab._ids.get, grams, repeat(oov)), np.int64, len(grams))
    counts = np.fromiter(grams.values(), np.int64, len(grams))
    order = np.argsort(ids)
    ids, counts = ids[order], counts[order]
    # tuples are distinct, so only the OOV slot (the largest id) can repeat
    first_oov = int(np.searchsorted(ids, oov))
    if first_oov < len(ids) - 1:
        ids = ids[: first_oov + 1]
        counts = np.append(counts[:first_oov], counts[first_oov:].sum())
    return Profile(vocab, ids, counts)


def encode_trees(trees: Iterable[Tree], shape: GramShape) -> tuple[Vocabulary, list[Profile]]:
    """``build_vocabulary(trees, shape)`` and every tree's ``profile`` over
    it, extracting each tree's grams once. No profile has OOV counts."""
    # ids in first-occurrence order; a tree's grams go once its ids are kept
    intern: dict[LabelTuple, int] = {}
    rows = []
    for t in trees:
        grams = extract_grams(t, shape)
        ids = (intern.setdefault(tup, len(intern)) for tup in grams)
        ids = np.fromiter(ids, np.int64, len(grams))
        counts = np.fromiter(grams.values(), np.int64, len(grams))
        order = np.argsort(ids)
        rows.append((ids[order], counts[order]))
    vocab = Vocabulary(shape, _nonempty(intern))
    return vocab, [Profile(vocab, ids, counts) for ids, counts in rows]


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
    covers both trees: a reference the tests check the kernel against.
    """
    inter = sum(min(c, gy.get(tup, 0)) for tup, c in gx.items())
    return sum(gx.values()) + sum(gy.values()) - 2 * inter


def build_vocabulary(trees: Sequence[Tree], shape: GramShape) -> Vocabulary:
    """All distinct tuples of ``trees`` in first-occurrence order, plus OOV."""
    return Vocabulary.from_trees(trees, shape)
