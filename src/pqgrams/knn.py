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

import numpy as np

from .grams import GramShape, count_matrix, encode_trees, profile
from .lmnn import LabeledTree, TrainedModel
from .metric import CountRows, SlotIndex, WeightModel, weighted_distance
from .ted import tree_edit_distance
from .tree import Tree


class TreeDistance:
    """Named distance over trees, with an optional precomputation hook.

    ``prepare`` encodes trees ahead of time (e.g. into gram profiles) so a
    benchmark can charge encoding to the measured pipeline; ``__call__``
    encodes lazily on cache misses. Encoded values are cached per tree
    object identity, which is safe because trees are immutable.
    ``query_distances`` and ``nearest`` score one query against a list of
    references, pair by pair; a subclass may speed either up, as long as it
    returns what these do.
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

    def query_distances(self, refs: Sequence[Tree], query: Tree) -> np.ndarray:
        """``[self(r, query) for r in refs]`` as a float64 array."""
        return np.array([self(r, query) for r in refs], dtype=np.float64)

    def nearest(self, refs: Sequence[Tree], query: Tree, k: int) -> np.ndarray:
        """Indices of the k nearest references; a stable sort keeps equal
        distances in reference order."""
        return np.argsort(self.query_distances(refs, query), kind="stable")[:k]


class GramDistance(TreeDistance):
    """Weighted gram distance of one model, over cached gram profiles.

    ``nearest`` gives the indices of the k nearest references: a cheap
    estimate with a proven error bound picks the few references that can be
    among them, and only those are scored, by the same kernel as pair calls,
    so no distance ever comes from the estimate. The last reference list's
    ``CountRows`` and its ``SlotIndex`` are kept with a copy of that list,
    and reused while the next list compares equal to it.
    """

    def __init__(self, name: str, model: WeightModel):
        super().__init__(
            name,
            lambda x, y: weighted_distance(model, x, y),
            encoder=lambda t: profile(t, model.vocab),
        )
        self.model = model
        self._refs: tuple[list[Tree], SlotIndex] | None = None

    def clear_cache(self) -> None:
        super().clear_cache()
        self._refs = None

    def _index(self, refs: Sequence[Tree]) -> SlotIndex:
        # a copy, so later in-place edits of the caller's list are seen; list
        # comparison tries identity before Tree.__eq__ (equal trees, equal profiles)
        refs = list(refs)
        if self._refs is None or self._refs[0] != refs:
            rows = CountRows.of_profiles([self._encode(t) for t in refs], self.model.dim)
            self._refs = (refs, SlotIndex(rows, self.model.effective_weights()))
        return self._refs[1]

    def nearest(self, refs: Sequence[Tree], query: Tree, k: int) -> np.ndarray:
        """``np.argsort(self.query_distances(refs, query), kind="stable")[:k]``,
        scoring only the references that can be among the k nearest."""
        row = count_matrix([self._encode(query)], self.model.vocab)[0]
        return self._index(refs).nearest(row, k)


def weighted_gram_distance(model: WeightModel | TrainedModel) -> GramDistance:
    """Learned weighted gram distance of a trained (or initial) model."""
    wm = model.model if isinstance(model, TrainedModel) else model
    shape = wm.shape
    return GramDistance(f"wpq(p={shape.p},q={shape.q})", wm)


def unweighted_gram_distance(train_trees: Sequence[Tree], shape: GramShape) -> GramDistance:
    """Plain gram distance over a vocabulary built from the training trees:
    the weighted distance at initial weights, which equals it exactly. Each
    training tree's grams are extracted once, for the vocabulary and its
    cached profile alike."""
    train_trees = list(train_trees)
    vocab, profiles = encode_trees(train_trees, shape)
    dist = weighted_gram_distance(WeightModel.initial(vocab))
    dist.name = f"pq(p={shape.p},q={shape.q})"
    dist._cache.update(zip(map(id, train_trees), profiles))
    dist._keep.extend(train_trees)
    return dist


def edit_distance_baseline() -> TreeDistance:
    return TreeDistance("ted", lambda a, b: tree_edit_distance(a, b))


def knn_classify(
    train: Sequence[LabeledTree],
    query: Tree,
    dist: TreeDistance,
    k: int,
) -> int:
    """Majority label of the k nearest training points, by ``dist.nearest``.

    Tie ladder: equal distances prefer the lower training index; tied votes
    prefer the nearest neighbor's label, then the smaller class id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not train:
        raise ValueError("empty training set")
    if len(train) < k:
        raise ValueError(f"need at least k={k} training points, have {len(train)}")
    nearest = dist.nearest([item.tree for item in train], query, k).tolist()
    votes: dict[int, int] = {}
    for i in nearest:
        lab = train[i].label
        votes[lab] = votes.get(lab, 0) + 1
    top = max(votes.values())
    winners = [lab for lab, c in votes.items() if c == top]
    if len(winners) == 1:
        return winners[0]
    nearest_label = train[nearest[0]].label
    if nearest_label in winners:
        return nearest_label
    return min(winners)


def _timed_inference(
    train: Sequence[LabeledTree], queries: Sequence[Tree], dist: TreeDistance, k: int
) -> tuple[list[int], float]:
    """Prepare the training trees, then the queries, then classify each
    query: the predictions, and the seconds all of that took."""
    t0 = time.perf_counter()
    dist.prepare([item.tree for item in train])
    dist.prepare(queries)
    preds = [knn_classify(train, q, dist, k) for q in queries]
    return preds, time.perf_counter() - t0


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
    Each query is classified by ``knn_classify`` through ``dist.nearest``.
    Timed inference covers encoding plus classification, not training.
    ``threads`` has no effect: queries are classified serially, which
    measured faster than a thread pool under the interpreter lock. The
    report carries the last fold's distance name.
    """
    labels = [item.label for item in data]
    parts = stratified_folds(labels, folds, seed)
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
        preds, elapsed = _timed_inference(train_items, [data[i].tree for i in part], dist, k)
        wrong = sum(1 for i, pred in zip(part, preds) if pred != data[i].label)
        fold_errors.append(wrong / len(part))
        fold_seconds.append(elapsed)
        predictions.extend(zip(part, preds))
    return EvalReport(dist.name, parts, fold_errors, fold_seconds, predictions)


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
    """Time the full inference pipeline: encoding, the train x test
    distances that the k nearest need, and the majority votes. Each test
    tree is classified by ``knn_classify`` through ``dist.nearest``.
    Repeated ``repeats`` times from a cold cache, single-threaded so ratios
    reflect algorithmic cost rather than core count; ``threads`` has no
    effect.
    """
    if not train or not test:
        raise ValueError("train and test must be non-empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    runs: list[float] = []
    for _ in range(repeats):
        dist.clear_cache()
        runs.append(_timed_inference(train, test, dist, k)[1])
    return BenchResult(dist.name, runs)
