"""Large-margin training of the weighted pq-gram distance.

Pairs follow the LMNN recipe: for every point, its k nearest same-label
neighbors are targets (positive pairs) and any differently-labeled point
closer than the k-th target is an impostor (negative pair). The hinge loss

    beta*||w||^2 + sum_P [dist - mu1]_+ + sum_N [mu2 - dist]_+

is minimized by full-batch Adam; impostors are recomputed periodically with
the current weights, targets stay fixed at their initial-distance choice.

Training encodes its trees once, as a dense count matrix, and every
distance it needs comes from the pairwise kernel in ``metric``: targets
from one kernel row per point against its class, each impostor refresh
from one symmetric matrix over the whole training set, and the per-pair
difference vectors of the loss from blocks of row differences.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .grams import GramShape, Profile, Vocabulary, count_matrix, encode_trees
from .metric import (
    WeightModel,
    pairwise_distances,
    sigmoid,
    softplus,
    symmetric_distances,
)
from .tree import Tree

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True, slots=True)
class LabeledTree:
    tree: Tree
    label: int


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults match the standard protocol of this method."""

    k: int = 3
    mu1: float = 5.0
    mu2: float = 5.0
    beta: float = 1e-4
    eta: float = 1e-2
    epochs: int = 600
    impostor_refresh_every: int = 50
    subsample_cap: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mu1 < 0 or self.mu2 < 0:
            raise ValueError("margins must be non-negative")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.impostor_refresh_every < 1:
            raise ValueError("impostor_refresh_every must be >= 1")
        if self.subsample_cap < 1:
            raise ValueError("subsample_cap must be >= 1")


# each TrainConfig field's key in a model file's config line and its CLI flag
CONFIG_KEYS = {f.name: f.name for f in fields(TrainConfig)}
CONFIG_KEYS.update(impostor_refresh_every="refresh", subsample_cap="cap")


@dataclass
class PairSet:
    """Index pairs into one dataset: positives share a label, negatives differ."""

    positives: list[tuple[int, int]]
    negatives: list[tuple[int, int]]


def build_targets(
    profiles: Sequence[Profile],
    labels: Sequence[int],
    model: WeightModel,
    k: int,
) -> list[tuple[int, int]]:
    """For each i, pairs to its k nearest same-label points under ``model``.

    Distance ties break toward the lower index. Raises if any class has
    fewer than k+1 members.
    """
    m = len(profiles)
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    for lab, members in by_label.items():
        if len(members) < k + 1:
            raise ValueError(
                f"class {lab} has {len(members)} members, needs at least {k + 1}"
            )
    X = count_matrix(profiles, model.vocab)
    pairs: list[tuple[int, int]] = []
    for i in range(m):
        js = np.array([j for j in by_label[labels[i]] if j != i])
        d = pairwise_distances(model, X[i : i + 1], X[js])[0]
        # stable sort over ascending js: equal distances keep the lower index
        pairs.extend((i, j) for j in js[np.argsort(d, kind="stable")[:k]].tolist())
    return pairs


def find_impostors(
    profiles: Sequence[Profile],
    labels: Sequence[int],
    model: WeightModel,
    targets: Sequence[tuple[int, int]],
    k: int,
) -> list[tuple[int, int]]:
    """Differently-labeled points strictly closer than the k-th target.

    One symmetric distance matrix over all points under the current
    ``model`` gives both the radii (the farthest target of each point) and
    the candidates; the result may be empty.
    """
    m = len(profiles)
    target_js: list[list[int]] = [[] for _ in range(m)]
    for i, j in targets:
        target_js[i].append(j)
    for i, js in enumerate(target_js):
        if len(js) != k:
            raise ValueError(f"point {i} has {len(js)} targets, expected {k}")
    X = count_matrix(profiles, model.vocab)
    D = symmetric_distances(model, X)
    labels_arr = np.asarray(labels)
    out: list[tuple[int, int]] = []
    for i in range(m):
        radius = D[i, target_js[i]].max()
        hits = np.flatnonzero((labels_arr != labels_arr[i]) & (D[i] < radius))
        out.extend((i, j) for j in hits.tolist())
    return out


# pairs per block when differencing count rows, which bounds the temporary
# difference block at this many rows of the vocabulary dimension
_PAIR_BLOCK = 32


class _PairTerms:
    """Concatenated sparse difference vectors for one pair set.

    Lets the whole-epoch loss and gradient run as a handful of vectorized
    reductions instead of per-pair Python loops; results match the per-pair
    definitions (same index-ascending summation per pair). ``loss`` and
    ``gradient`` take the pair distances ``d`` from ``distances(w)``, so one
    distance vector serves both at the same weights.
    """

    __slots__ = ("n_pos", "n_pairs", "idx", "val", "seg")

    def __init__(self, X: np.ndarray, pairs: PairSet):
        ij = np.array(pairs.positives + pairs.negatives, dtype=np.int64).reshape(-1, 2)
        self.n_pos = len(pairs.positives)
        self.n_pairs = len(ij)
        idx_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        val_parts: list[np.ndarray] = [np.empty(0)]
        seg_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for lo in range(0, self.n_pairs, _PAIR_BLOCK):
            block = ij[lo : lo + _PAIR_BLOCK]
            diff = X[block[:, 0]] - X[block[:, 1]]
            np.abs(diff, out=diff)
            # row-major order: pair by pair, indices ascending within a pair
            seg, idx = np.nonzero(diff)
            seg_parts.append(seg + lo)
            idx_parts.append(idx)
            val_parts.append(diff[seg, idx])
        self.idx = np.concatenate(idx_parts)
        self.val = np.concatenate(val_parts)
        self.seg = np.concatenate(seg_parts)

    def distances(self, w: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.seg, weights=softplus(w)[self.idx] * self.val, minlength=self.n_pairs
        )

    def loss(self, w: np.ndarray, d: np.ndarray, cfg: TrainConfig) -> float:
        pos = np.maximum(d[: self.n_pos] - cfg.mu1, 0.0).sum()
        neg = np.maximum(cfg.mu2 - d[self.n_pos :], 0.0).sum()
        return float(cfg.beta * (w @ w) + pos + neg)

    def gradient(self, w: np.ndarray, d: np.ndarray, cfg: TrainConfig) -> np.ndarray:
        coeff = np.zeros(self.n_pairs)
        coeff[: self.n_pos][d[: self.n_pos] > cfg.mu1] = 1.0
        coeff[self.n_pos :][d[self.n_pos :] < cfg.mu2] = -1.0
        grad = 2.0 * cfg.beta * w
        if len(self.idx):
            grad += np.bincount(
                self.idx,
                weights=sigmoid(w)[self.idx] * self.val * coeff[self.seg],
                minlength=len(w),
            )
        return grad


def loss(
    model: WeightModel,
    profiles: Sequence[Profile],
    pairs: PairSet,
    cfg: TrainConfig,
) -> float:
    """Hinge loss: beta*||w||^2 + sum_P [d - mu1]_+ + sum_N [mu2 - d]_+."""
    terms = _PairTerms(count_matrix(profiles, model.vocab), pairs)
    return terms.loss(model.w, terms.distances(model.w), cfg)


def loss_gradient(
    model: WeightModel,
    profiles: Sequence[Profile],
    pairs: PairSet,
    cfg: TrainConfig,
) -> np.ndarray:
    """2*beta*w plus distance gradients of active pairs (+ positives, - negatives).

    A hinge sitting exactly at its kink counts as inactive.
    """
    terms = _PairTerms(count_matrix(profiles, model.vocab), pairs)
    return terms.gradient(model.w, terms.distances(model.w), cfg)


@dataclass
class TrainedModel:
    """A weight model plus the artifacts needed to reuse and audit it."""

    model: WeightModel
    config: TrainConfig | None
    loss_trace: list[float] = field(default_factory=list)

    @property
    def vocab(self) -> Vocabulary:
        return self.model.vocab

    @property
    def shape(self) -> GramShape:
        return self.model.shape

    @property
    def initial_loss(self) -> float | None:
        return self.loss_trace[0] if self.loss_trace else None

    @property
    def final_loss(self) -> float | None:
        return self.loss_trace[-1] if self.loss_trace else None


def stratified_subsample(
    labels: Sequence[int], cap: int, k: int, rng: random.Random
) -> list[int]:
    """Uniform per-class subsample of at most ``cap`` indices.

    Class proportions are kept via largest-remainder rounding, but every
    class retains at least min(k+1, class size) members so target building
    stays feasible after subsampling.
    """
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    total = len(labels)
    if total <= cap:
        return list(range(total))
    floors = {lab: min(k + 1, len(members)) for lab, members in by_label.items()}
    if sum(floors.values()) > cap:
        raise ValueError(
            f"subsample cap {cap} cannot keep {k + 1} members for each of "
            f"{len(by_label)} classes"
        )
    quotas: dict[int, int] = {}
    remainders: list[tuple[float, int]] = []
    for lab, members in by_label.items():
        exact = len(members) * cap / total
        quotas[lab] = int(exact)
        remainders.append((exact - int(exact), lab))
    leftover = cap - sum(quotas.values())
    for _, lab in sorted(remainders, key=lambda t: (-t[0], t[1])):
        if leftover <= 0:
            break
        quotas[lab] += 1
        leftover -= 1
    for lab in quotas:
        quotas[lab] = max(floors[lab], min(quotas[lab], len(by_label[lab])))
    # floor bumps may overshoot the cap; shave the largest quotas back down
    excess = sum(quotas.values()) - cap
    while excess > 0:
        lab = max(quotas, key=lambda l: (quotas[l] - floors[l], quotas[l], -l))
        if quotas[lab] <= floors[lab]:
            break
        quotas[lab] -= 1
        excess -= 1
    chosen: list[int] = []
    for lab in sorted(by_label):
        picked = rng.sample(by_label[lab], quotas[lab])
        chosen.extend(picked)
    return sorted(chosen)


def train(
    data: Sequence[LabeledTree],
    shape: GramShape,
    cfg: TrainConfig,
) -> TrainedModel:
    """Full training run: subsample, encode, pair up, optimize with Adam.

    Deterministic given (data, shape, cfg): same inputs give bit-identical
    weights. With epochs=0 the returned model is the initialization, whose
    distance equals the unweighted one.
    """
    if not data:
        raise ValueError("empty training data")
    labels_all = [item.label for item in data]
    if len(set(labels_all)) < 2:
        raise ValueError("training needs at least 2 classes")

    rng = random.Random(cfg.seed)
    keep = stratified_subsample(labels_all, cfg.subsample_cap, cfg.k, rng)
    vocab, profiles, labels = encode_dataset([data[i] for i in keep], shape)
    X = count_matrix(profiles, vocab)
    model = WeightModel.initial(vocab)

    targets = build_targets(profiles, labels, model, cfg.k)
    negatives = find_impostors(profiles, labels, model, targets, cfg.k)
    terms = _PairTerms(X, PairSet(targets, negatives))

    w = model.w.copy()
    # the distances at the current w serve both the loss just recorded and
    # the next epoch's gradient
    d = terms.distances(w)
    trace = [terms.loss(w, d, cfg)]
    m1 = np.zeros_like(w)
    m2 = np.zeros_like(w)
    for epoch in range(1, cfg.epochs + 1):
        if epoch > 1 and (epoch - 1) % cfg.impostor_refresh_every == 0:
            model = WeightModel(vocab, w)
            negatives = find_impostors(profiles, labels, model, targets, cfg.k)
            terms = _PairTerms(X, PairSet(targets, negatives))
            d = terms.distances(w)
        g = terms.gradient(w, d, cfg)
        m1 = ADAM_BETA1 * m1 + (1.0 - ADAM_BETA1) * g
        m2 = ADAM_BETA2 * m2 + (1.0 - ADAM_BETA2) * g * g
        m1_hat = m1 / (1.0 - ADAM_BETA1**epoch)
        m2_hat = m2 / (1.0 - ADAM_BETA2**epoch)
        w = w - cfg.eta * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)
        d = terms.distances(w)
        trace.append(terms.loss(w, d, cfg))
    return TrainedModel(WeightModel(vocab, w), cfg, trace)


# ---------------------------------------------------------------------------
# model file format
#
#   pqgram-model v1 p=<p> q=<q> dim=<d>
#   # config k=... mu1=... (optional comment lines, written by save_model)
#   # loss <final loss>
#   <label>TAB...TAB<label>TAB<raw weight>     (one line per vocabulary tuple)
#   OOV <raw weight>
#
# Weights are written with repr() so they round-trip to the exact float and
# must be finite. A tuple's first label may itself start with '#', so comment
# lines are read only between the header and the first tuple line, and only
# when they hold no tab.
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^pqgram-model (\S+) p=(\d+) q=(\d+) dim=(\d+)$")


class ModelFormatError(ValueError):
    pass


# what reading with errors="surrogateescape" makes of a byte that is not UTF-8
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def save_model(trained: TrainedModel, path) -> None:
    model = trained.model
    vocab = model.vocab
    lines = [
        f"pqgram-model v1 p={vocab.shape.p} q={vocab.shape.q} dim={vocab.dim}"
    ]
    if trained.config is not None:
        c = trained.config
        pairs = (f"{key}={getattr(c, name)!r}" for name, key in CONFIG_KEYS.items())
        lines.append("# config " + " ".join(pairs))
    if trained.final_loss is not None:
        lines.append(f"# loss {trained.final_loss!r}")
    for i, tup in enumerate(vocab.tuples):
        lines.append("\t".join(tup) + "\t" + repr(float(model.w[i])))
    lines.append("OOV " + repr(float(model.w[vocab.oov_id])))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_config_comment(text: str) -> TrainConfig:
    values = dict(kv.split("=", 1) for kv in text.split())
    # each value takes the type of its field's default: int or float
    kinds = {name: type(getattr(TrainConfig, name)) for name in CONFIG_KEYS}
    return TrainConfig(**{name: kinds[name](values[key]) for name, key in CONFIG_KEYS.items()})


def _parse_weight(path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ModelFormatError(f"{path}:{lineno}: bad weight {text!r}")
    if not math.isfinite(value):
        raise ModelFormatError(f"{path}:{lineno}: non-finite weight {text!r}")
    return value


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    if bad := _UNDECODABLE.search(text):
        lineno, byte = len(text[: bad.end()].splitlines()), ord(bad[0]) - 0xDC00
        raise ModelFormatError(f"{path}:{lineno}: not valid UTF-8 (byte 0x{byte:02x})")
    raw = text.splitlines()
    if not raw:
        raise ModelFormatError(f"{path}: empty model file")
    m = _HEADER_RE.match(raw[0])
    if m is None:
        raise ModelFormatError(f"{path}: malformed header line")
    version, p, q, dim = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    if version != "v1":
        raise ModelFormatError(f"{path}: unsupported model version {version!r}")
    shape = GramShape(p, q)
    width = p + q

    config: TrainConfig | None = None
    final_loss: float | None = None
    tuple_lines: dict[tuple[str, ...], int] = {}
    weights: list[float] = []
    oov_weight: float | None = None
    in_header = True
    for lineno, line in enumerate(raw[1:], start=2):
        # comments live only in the header block and hold no tab: a label may
        # start with '#', but tuple lines always hold tabs (labels never do)
        if in_header and line.startswith("#") and "\t" not in line:
            if line.startswith("# config "):
                try:
                    config = _parse_config_comment(line[len("# config ") :])
                except (KeyError, ValueError) as e:
                    raise ModelFormatError(f"{path}:{lineno}: bad config comment ({e})")
            elif line.startswith("# loss "):
                try:
                    final_loss = float(line[len("# loss ") :])
                except ValueError:
                    raise ModelFormatError(f"{path}:{lineno}: bad loss comment {line!r}")
            continue
        in_header = False
        if oov_weight is not None:
            raise ModelFormatError(f"{path}:{lineno}: content after the OOV line")
        if line.startswith("OOV "):
            oov_weight = _parse_weight(path, lineno, line[len("OOV ") :])
            continue
        parts = line.split("\t")
        if len(parts) != width + 1:
            raise ModelFormatError(
                f"{path}:{lineno}: expected {width} labels and a weight, "
                f"got {len(parts)} fields"
            )
        tup = tuple(parts[:-1])
        if tuple_lines.setdefault(tup, lineno) != lineno:
            raise ModelFormatError(f"{path}:{lineno}: tuple repeats line {tuple_lines[tup]}")
        weights.append(_parse_weight(path, lineno, parts[-1]))
    if oov_weight is None:
        raise ModelFormatError(f"{path}: truncated model file (missing OOV line)")
    if len(tuple_lines) != dim - 1:
        raise ModelFormatError(
            f"{path}: header says dim={dim} but file has {len(tuple_lines)} tuples"
        )
    vocab = Vocabulary(shape, tuple_lines)
    model = WeightModel(vocab, np.array(weights + [oov_weight]))
    trace = [final_loss] if final_loss is not None else []
    return TrainedModel(model, config, trace)


def encode_dataset(
    data: Sequence[LabeledTree], shape: GramShape
) -> tuple[Vocabulary, list[Profile], list[int]]:
    """Vocabulary, profiles and labels for a labeled dataset, in one shot."""
    vocab, profiles = encode_trees([item.tree for item in data], shape)
    return vocab, profiles, [item.label for item in data]


__all__ = [
    "LabeledTree",
    "TrainConfig",
    "PairSet",
    "TrainedModel",
    "ModelFormatError",
    "build_targets",
    "find_impostors",
    "loss",
    "loss_gradient",
    "train",
    "save_model",
    "load_model",
    "stratified_subsample",
    "encode_dataset",
]
