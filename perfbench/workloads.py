"""The benchmark's seeded workloads.

Each workload turns a seed into a training corpus, a held-out query set and
a fixed tree edit distance (TED) pair set. The program only ever sees these
as TSV files and trees; how they were made stays here.

Why each workload exists:

- ``strings`` is the source paper's own experiment (acceptance criterion
  c07's configuration): 9-node chains over {A,B,C,D}, 200 training trees,
  ``k=1``, 600 Adam epochs. Per-pair Python overhead in the impostor search
  dominates; encoding and the Adam loop do almost nothing.
- ``wide`` has bushy 120-node trees in four classes, each class with its
  own label distribution so that held-out error means something, and the
  default ``TrainConfig(k=3)``. Large profiles make encoding, the per-pair
  cost and the Adam epoch loop carry weight that ``strings`` hides.
- ``deep-query`` trains nothing: its model is the initial (unweighted)
  weights over a 400-tree deep reference set in eight classes
  (``attach_window=4``, 80 nodes, 8 labels, vocabulary dim ~5k). Held-out
  queries bring out-of-vocabulary grams, and TED runs on deep pairs of 40,
  80 and 160 nodes. It is the bypass workload for any training-side change.

Held-out sets are large (2000, 800 and 600 queries) because held-out error
changes with the seed; fewer queries would let that change swamp the
metric's bound. Most of that change comes from which trees are trained on,
so ``strings`` and ``wide`` train two independent folds per cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import pqgrams
from pqgrams import LabeledCorpus, LabeledTree, Node, Tree

SHAPE = pqgrams.GramShape(2, 2)
ALPHABET = tuple("abcdefgh")


@dataclass(frozen=True)
class Sizes:
    train_per_class: int
    heldout_per_class: int
    ted_pairs: tuple[tuple[int, int], ...]  # (tree size, pair count)
    epochs: int = 600
    folds: int = 1  # independent train/held-out splits per cycle


Split = tuple[LabeledCorpus, LabeledCorpus]  # (training set, held-out set)


@dataclass(frozen=True)
class Corpus:
    folds: list[Split]
    ted_pairs: list[tuple[int, Tree, Tree]]  # (size tag, t1, t2)


@dataclass(frozen=True)
class Workload:
    name: str
    k: int  # neighbours for training targets and for k-NN voting
    train: bool  # False: the model is the initial weights, no LMNN
    full: Sizes
    tiny: Sizes
    make: Callable[[int, Sizes], Corpus]
    # the learned distance must not classify worse than the plain one (c07)
    beats_unweighted: bool = False
    # a short training step is repeated and its median kept
    train_repeats: int = 1

    def config(self, sizes: Sizes, seed: int) -> pqgrams.TrainConfig:
        return pqgrams.TrainConfig(k=self.k, epochs=sizes.epochs, seed=seed)


def _class_labels(c: int) -> tuple[str, ...]:
    """Label pool of class ``c``: the alphabet with one label drawn twice as often."""
    return ALPHABET + (ALPHABET[c % len(ALPHABET)],)


def _folds(items: list[LabeledTree], names: list[str], sizes: Sizes, source: str) -> list[Split]:
    """Deal each class's items into folds in order; within a fold the first
    ``train_per_class`` of each class train and the rest are held out."""
    per_fold = sizes.train_per_class + sizes.heldout_per_class
    seen: dict[int, int] = {}
    parts = [([], []) for _ in range(sizes.folds)]
    for item in items:
        i = seen[item.label] = seen.get(item.label, -1) + 1
        fold, pos = divmod(i, per_fold)
        parts[fold][pos >= sizes.train_per_class].append(item)
    return [
        (
            LabeledCorpus(train, names, source=f"{source}:fold{f}:train"),
            LabeledCorpus(heldout, names, source=f"{source}:fold{f}:heldout"),
        )
        for f, (train, heldout) in enumerate(parts)
    ]


def _pairs_from(split: Split, n: int, tag: int) -> list[tuple[int, Tree, Tree]]:
    train, held = split[0].items, split[1].items
    return [(tag, held[i % len(held)].tree, train[i % len(train)].tree) for i in range(n)]


def make_strings(seed: int, sizes: Sizes) -> Corpus:
    per_class = sizes.folds * (sizes.train_per_class + sizes.heldout_per_class)
    full = pqgrams.gen_strings(per_class, seed=seed)
    folds = _folds(full.items, full.label_names, sizes, full.source)
    ((tag, n_pairs),) = sizes.ted_pairs
    return Corpus(folds, _pairs_from(folds[0], n_pairs, tag))


def _class_folds(seed: int, sizes: Sizes, n_classes: int, nodes: int, window: int | None):
    rng = random.Random(seed)
    per_class = sizes.folds * (sizes.train_per_class + sizes.heldout_per_class)
    items = [
        LabeledTree(pqgrams.random_tree(nodes, rng, _class_labels(c), attach_window=window), c)
        for _ in range(per_class)
        for c in range(n_classes)
    ]
    names = [f"class{c}" for c in range(n_classes)]
    return _folds(items, names, sizes, f"trees(n={nodes},window={window},seed={seed})"), rng


def _fixed_shape(nodes: int, key: str, rng: random.Random, window: int | None) -> Tree:
    """A tree whose shape depends only on ``key``; labels come from ``rng``.

    TED's running time follows the shape (its keyroots), so fixing the
    shapes keeps the pair set's cost the same for every seed while the
    distances still change with it.
    """
    shape = pqgrams.random_tree(nodes, random.Random(key), ALPHABET, attach_window=window)
    return Tree([Node(rng.choice(ALPHABET), node.children) for node in shape.nodes])


def _ted_pairs(sizes: Sizes, rng: random.Random, window: int | None) -> list[tuple[int, Tree, Tree]]:
    pairs = [
        ((i + 0.5) / count, nodes, *(_fixed_shape(nodes, f"ted-{nodes}-{window}-{i}-{side}", rng, window) for side in "ab"))
        for nodes, count in sizes.ted_pairs
        for i in range(count)
    ]
    # sizes take turns, so the few large pairs do not run back to back
    pairs.sort(key=lambda p: p[:2])
    return [p[1:] for p in pairs]


def make_wide(seed: int, sizes: Sizes) -> Corpus:
    folds, rng = _class_folds(seed, sizes, 4, 120, None)
    return Corpus(folds, _ted_pairs(sizes, rng, None))


def make_deep_query(seed: int, sizes: Sizes) -> Corpus:
    folds, rng = _class_folds(seed, sizes, 8, 80, 4)
    return Corpus(folds, _ted_pairs(sizes, rng, 4))


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "strings", k=1, train=True,
            full=Sizes(100, 500, ((9, 8000),), folds=2),
            tiny=Sizes(20, 30, ((9, 6),), folds=2),
            make=make_strings,
            beats_unweighted=True,
        ),
        Workload(
            "wide", k=3, train=True,
            full=Sizes(20, 100, ((120, 24),), folds=2),
            tiny=Sizes(4, 3, ((120, 2),), epochs=20),
            make=make_wide,
        ),
        Workload(
            "deep-query", k=3, train=False,
            full=Sizes(50, 75, ((40, 16), (80, 8), (160, 2))),
            tiny=Sizes(4, 2, ((40, 2), (80, 1))),
            make=make_deep_query,
            train_repeats=15,
        ),
    )
}
