"""k-NN classification over tree distances, cross-validation, and timing.

Distances are plugged in as TreeDistance objects so the same classifier,
cross-validation harness and benchmark run unchanged over the unweighted
gram distance, a learned weighted distance, or the edit distance baseline.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .grams import GramShape, Vocabulary, profile
from .lmnn import LabeledTree, TrainedModel
from .metric import WeightModel, weighted_distance
from .ted import tree_edit_distance
from .tree import Tree


class TreeDistance:
    """Named distance over trees, with an optional precomputation hook.

    ``prepare`` encodes trees ahead of time (e.g. into gram profiles) so a
    benchmark can charge encoding to the measured pipeline; ``__call__``
    encodes lazily on cache misses. Encoded values are cached per tree
    object identity, which is safe because trees are immutable.
    """

    def __init__(
        self,
        name: str,
        pair_fn: Callable,
        encoder: Callable[[Tree], object] | None = None,
    ):
        self.name = name
        self._pair_fn = pair_fn
        self._encoder = encoder
        self._cache: dict[int, object] = {}
        self._keep: list[Tree] = []

    def clear_cache(self) -> None:
        self._cache.clear()
        self._keep.clear()

    def prepare(self, trees: Sequence[Tree]) -> None:
        if self._encoder is None:
            return
        for t in trees:
            self._encode(t)

    def _encode(self, t: Tree):
        key = id(t)
        enc = self._cache.get(key)
        if enc is None:
            enc = self._encoder(t)
            self._cache[key] = enc
            self._keep.append(t)
        return enc

    def __call__(self, t1: Tree, t2: Tree) -> float:
        if self._encoder is None:
            return self._pair_fn(t1, t2)
        return self._pair_fn(self._encode(t1), self._encode(t2))


def weighted_gram_distance(model: WeightModel | TrainedModel) -> TreeDistance:
    """Learned weighted gram distance of a trained (or initial) model."""
    wm = model.model if isinstance(model, TrainedModel) else model
    shape = wm.shape
    return TreeDistance(
        f"wpq(p={shape.p},q={shape.q})",
        lambda x, y: weighted_distance(wm, x, y),
        encoder=lambda t: profile(t, wm.vocab),
    )


def unweighted_gram_distance(train_trees: Sequence[Tree], shape: GramShape) -> TreeDistance:
    """Plain gram distance over a vocabulary built from the training trees:
    the weighted distance at initial weights, which equals it exactly."""
    vocab = Vocabulary.from_trees(train_trees, shape)
    dist = weighted_gram_distance(WeightModel.initial(vocab))
    dist.name = f"pq(p={shape.p},q={shape.q})"
    return dist


def edit_distance_baseline() -> TreeDistance:
    return TreeDistance("ted", lambda a, b: tree_edit_distance(a, b))


def knn_classify(
    train: Sequence[LabeledTree],
    query: Tree,
    dist: Callable[[Tree, Tree], float],
    k: int,
) -> int:
    """Majority label of the k nearest training points.

    Tie ladder: equal distances prefer the lower training index; tied votes
    prefer the nearest neighbor's label, then the smaller class id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not train:
        raise ValueError("empty training set")
    if len(train) < k:
        raise ValueError(f"need at least k={k} training points, have {len(train)}")
    scored = sorted(
        ((dist(item.tree, query), i) for i, item in enumerate(train)),
    )[:k]
    votes: dict[int, int] = {}
    for _, i in scored:
        lab = train[i].label
        votes[lab] = votes.get(lab, 0) + 1
    top = max(votes.values())
    winners = [lab for lab, c in votes.items() if c == top]
    if len(winners) == 1:
        return winners[0]
    nearest_label = train[scored[0][1]].label
    if nearest_label in winners:
        return nearest_label
    return min(winners)


def stratified_folds(
    labels: Sequence[int], folds: int, seed: int
) -> list[list[int]]:
    """Seeded stratified partition into ``folds`` near-equal index lists."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(labels) < folds:
        raise ValueError("need at least one item per fold")
    rng = random.Random(seed)
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    assignment: list[list[int]] = [[] for _ in range(folds)]
    cursor = 0
    for lab in sorted(by_label):
        members = by_label[lab][:]
        rng.shuffle(members)
        # deal round-robin starting where the previous class stopped, so
        # remainders do not pile onto fold 0
        for idx in members:
            assignment[cursor % folds].append(idx)
            cursor += 1
    return [sorted(part) for part in assignment]


@dataclass
class EvalReport:
    """Cross-validation outcome: per-fold errors and inference timings."""

    dist_name: str
    folds: list[list[int]]
    fold_errors: list[float]
    fold_seconds: list[float]
    predictions: list[tuple[int, int]] = field(default_factory=list)

    @property
    def mean_error(self) -> float:
        return statistics.fmean(self.fold_errors)

    @property
    def std_error(self) -> float:
        return statistics.pstdev(self.fold_errors)

    @property
    def mean_seconds(self) -> float:
        return statistics.fmean(self.fold_seconds)

    @property
    def std_seconds(self) -> float:
        return statistics.pstdev(self.fold_seconds)

    def render_table(self) -> str:
        lines = [f"distance: {self.dist_name}"]
        lines.append("fold  size  error     seconds")
        for f, (part, err, sec) in enumerate(
            zip(self.folds, self.fold_errors, self.fold_seconds)
        ):
            lines.append(f"{f:>4}  {len(part):>4}  {err:<8.6f}  {sec:.6f}")
        lines.append(
            f"mean  error {self.mean_error:.6f} +- {self.std_error:.6f}   "
            f"seconds {self.mean_seconds:.6f} +- {self.std_seconds:.6f}"
        )
        return "\n".join(lines)

    def csv_rows(self, dataset: str, setting: str) -> list[str]:
        rows = []
        for f, (err, sec) in enumerate(zip(self.fold_errors, self.fold_seconds)):
            rows.append(f"{dataset},{setting},{f},{err:.6f},{sec:.6f}")
        return rows


def cross_validate(
    data: Sequence[LabeledTree],
    dist_builder: Callable[[Sequence[LabeledTree]], TreeDistance],
    k: int,
    folds: int = 5,
    seed: int = 0,
    threads: int = 1,
) -> EvalReport:
    """Stratified k-fold evaluation of a distance-building pipeline.

    ``dist_builder`` receives each fold's training items (where any metric
    learning happens) and returns the distance used to classify that fold.
    Timed inference covers encoding plus classification, not training.
    ``threads`` has no effect: queries are classified serially, which
    measured faster than a thread pool under the interpreter lock.
    """
    labels = [item.label for item in data]
    parts = stratified_folds(labels, folds, seed)
    name = None
    fold_errors: list[float] = []
    fold_seconds: list[float] = []
    predictions: list[tuple[int, int]] = []
    for part in parts:
        test_set = set(part)
        train_items = [item for i, item in enumerate(data) if i not in test_set]
        train_labels = {item.label for item in train_items}
        missing = set(labels) - train_labels
        if missing:
            raise ValueError(
                f"class(es) {sorted(missing)} absent from a training split; "
                "use fewer folds or more data"
            )
        dist = dist_builder(train_items)
        if name is None:
            name = dist.name
        t0 = time.perf_counter()
        dist.prepare([item.tree for item in train_items])
        dist.prepare([data[i].tree for i in part])
        preds = [knn_classify(train_items, data[i].tree, dist, k) for i in part]
        elapsed = time.perf_counter() - t0
        wrong = sum(1 for i, pred in zip(part, preds) if pred != data[i].label)
        fold_errors.append(wrong / len(part))
        fold_seconds.append(elapsed)
        predictions.extend(zip(part, preds))
    return EvalReport(name or "?", parts, fold_errors, fold_seconds, predictions)


@dataclass
class BenchResult:
    """Wall-clock seconds of repeated full-inference runs."""

    dist_name: str
    runs: list[float]

    @property
    def mean_seconds(self) -> float:
        return statistics.fmean(self.runs)

    @property
    def std_seconds(self) -> float:
        return statistics.pstdev(self.runs)

    def __str__(self) -> str:
        return (
            f"{self.dist_name}: {self.mean_seconds:.6f} +- "
            f"{self.std_seconds:.6f} sec over {len(self.runs)} runs"
        )


def benchmark_inference(
    train: Sequence[LabeledTree],
    test: Sequence[Tree],
    dist: TreeDistance,
    k: int,
    repeats: int = 3,
    threads: int = 1,
) -> BenchResult:
    """Time the full inference pipeline: encoding, all train x test
    distances, and the majority votes. Repeated ``repeats`` times from a
    cold cache, single-threaded so ratios reflect algorithmic cost rather
    than core count; ``threads`` has no effect.
    """
    if not train or not test:
        raise ValueError("train and test must be non-empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    runs: list[float] = []
    for _ in range(repeats):
        dist.clear_cache()
        t0 = time.perf_counter()
        dist.prepare([item.tree for item in train])
        dist.prepare(test)
        for q in test:
            knn_classify(train, q, dist, k)
        runs.append(time.perf_counter() - t0)
    return BenchResult(dist.name, runs)
