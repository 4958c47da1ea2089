"""Large-margin training of the weighted pq-gram distance.

Pairs follow the LMNN recipe: for every point, its k nearest same-label
neighbors are targets (positive pairs) and any differently-labeled point
closer than the k-th target is an impostor (negative pair). The hinge loss

    beta*||w||^2 + sum_P [dist - mu1]_+ + sum_N [mu2 - dist]_+

is minimized by full-batch Adam; impostors are recomputed periodically with
the current weights, targets stay fixed at their initial-distance choice.

Training encodes its trees once, as a dense count matrix. Targets come
from one symmetric kernel matrix per class. At each impostor refresh
``metric.threshold_estimates`` estimates every pair's distance at once,
with a proven rounding bound, in one matrix product; it decides the pairs
of different classes that lie clear of their point's radius. The kernel in
``metric`` scores only the pairs within rounding of a radius, with that
point's target pairs, so every decision is the kernel's own; after the
initial weights there are usually none. The loss holds each pair's nonzero
|x - y| terms in one column of a zero-padded array: the targets' built
once per run, the impostors' at each refresh. A pair's loss distance adds
its terms one after another in ascending slot order, so it can differ from
the kernel's pairwise row sum in the last bits.

The gradient is 2*beta*w + sigmoid(w) * c, where c sums the active
positives' |x - y| less the active negatives'. Those are integer counts, so
c is exact in float64 in any order and the gradient is rounded once. c is
kept across epochs and moved only by the hinges that change sides.

Each refresh logs one DEBUG line to the ``pqgrams`` logger: the epoch, the
impostor count, the active positive and negative hinges, the loss, the
hinges that changed sides since the previous refresh and the gradient norm.
"""

from __future__ import annotations

import logging
import math
import operator
import random
import re
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .grams import GramShape, Profile, Vocabulary, count_matrix, encode_trees
from .metric import (
    CountRows,
    WeightModel,
    sigmoid,
    softplus,
    symmetric_distances,
    threshold_estimates,
)
from .tree import Tree

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# silent unless the application configures logging; train reports each
# impostor refresh at DEBUG
log = logging.getLogger("pqgrams")


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
        # held as plain int and float, whose repr a model file's config line
        # reads back; a number of the wrong kind is rejected, not rounded
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int:
                try:
                    value = operator.index(value)
                except TypeError:
                    raise ValueError(f"{f.name} must be an integer, got {value!r}") from None
            elif math.isfinite(value):
                value = float(value)
            else:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            object.__setattr__(self, f.name, value)
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

    Each class's distances come from one ``symmetric_distances`` matrix
    over its own rows; the kernel's distance depends on its two rows only,
    so they are the bits of any other call. Pairs are listed by i, nearest
    first; distance ties break toward the lower index. Raises if any class
    has fewer than k+1 members.
    """
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    for lab, members in by_label.items():
        if len(members) < k + 1:
            raise ValueError(
                f"class {lab} has {len(members)} members, needs at least {k + 1}"
            )
    nearest: list[list[int]] = [[] for _ in labels]
    for members in by_label.values():
        D = symmetric_distances(model, count_matrix([profiles[j] for j in members], model.vocab))
        np.fill_diagonal(D, np.inf)
        # stable sort over ascending members: equal distances keep the lower index
        picks = np.array(members)[np.argsort(D, axis=1, kind="stable")[:, :k]]
        for i, js in zip(members, picks.tolist()):
            nearest[i] = js
    return [(i, j) for i, js in enumerate(nearest) for j in js]


def find_impostors(
    profiles: Sequence[Profile],
    labels: Sequence[int],
    model: WeightModel,
    targets: Sequence[tuple[int, int]],
    k: int,
) -> list[tuple[int, int]]:
    """Differently-labeled points strictly closer than the k-th target, as
    ``(i, j)`` pairs sorted by i, then j; the result may be empty.

    ``threshold_estimates`` gives every pair an estimate within its slack
    of the kernel's distance. A point's radius, its kernel distance to its
    farthest target, is then within the largest slack of its target pairs
    of their largest estimate, the estimated radius. A pair's margin is its
    own slack plus that largest one. A cross-class pair whose estimate is
    below the estimated radius by more than the margin is an impostor; one
    above it by more than the margin is not. Every other cross-class pair is scored by
    ``CountRows.pair_distances``, as are its point's target pairs, and
    decided by the strict ``<``, so the list is the kernel's own. Where the
    slack is inf (no bound), every cross-class pair is scored.
    """
    m = len(profiles)
    ij = np.array(targets, dtype=np.int64).reshape(-1, 2)
    per_point = np.bincount(ij[:, 0], minlength=m)
    if (wrong := np.flatnonzero(per_point != k)).size:
        i = int(wrong[0])
        raise ValueError(f"point {i} has {per_point[i]} targets, expected {k}")
    if m < 2:
        return []
    X = count_matrix(profiles, model.vocab)
    eff = model.effective_weights()
    est, slack = threshold_estimates(X, eff)
    # row i: point i's k targets
    tj = ij[np.argsort(ij[:, 0], kind="stable"), 1].reshape(m, k)
    at = np.arange(m)[:, None]
    # in place: est becomes each pair's gap to its point's estimated radius,
    # slack the pair's margin
    est -= est[at, tj].max(axis=1)[:, None]
    slack += slack[at, tj].max(axis=1)[:, None]
    labels_arr = np.asarray(labels)
    cross = labels_arr[:, None] != labels_arr
    hit = cross & (est < -slack)
    # comparisons with nan are false, so a nan gap leaves its pair unsure
    a, b = (cross & ~hit & ~(est > slack)).nonzero()
    if a.size:
        rows = CountRows.of_profiles(profiles, model.dim)
        near = np.unique(a)
        exact = np.empty(m)
        d = rows.pair_distances(eff, X, near.repeat(k), tj[near].ravel())
        exact[near] = d.reshape(-1, k).max(axis=1)
        hit[a, b] = rows.pair_distances(eff, X, a, b) < exact[a]
    a, b = hit.nonzero()
    return list(zip(a.tolist(), b.tolist()))


# pairs per block when comparing count rows, which bounds the temporary
# comparison block at this many rows of the vocabulary dimension
_PAIR_BLOCK = 32


class _Columns:
    """Each pair's nonzero |x - y| terms down one column of zero-padded
    ``(max terms) x pairs`` arrays, slots ascending, and ``c``: per slot, the
    exact integer sum of the active columns, kept from one mask to the next."""

    __slots__ = ("slots", "vals", "active", "c")

    def __init__(self, X: np.ndarray, pairs: Sequence[tuple[int, int]]):
        ij = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        dim = X.shape[1]
        # flat pair * dim + slot of each nonzero |x - y|, row-major: pair by
        # pair, slots ascending; the empty seed gives no pairs no terms
        flat = [np.zeros(0, np.intp)]
        for lo in range(0, len(ij), _PAIR_BLOCK):
            block = ij[lo : lo + _PAIR_BLOCK]
            flat.append(lo * dim + np.flatnonzero(X[block[:, 0]] != X[block[:, 1]]))
        pair, slot = np.divmod(np.concatenate(flat), dim)
        sizes = np.bincount(pair, minlength=len(ij))
        depth = np.arange(len(pair)) - (np.cumsum(sizes) - sizes)[pair]
        self.slots = np.zeros((sizes.max(initial=0), len(ij)), dtype=np.intp)
        self.vals = np.zeros(self.slots.shape)
        self.slots[depth, pair] = slot
        self.vals[depth, pair] = np.abs(X[ij[pair, 0], slot] - X[ij[pair, 1], slot])
        self.active: np.ndarray | None = None  # no mask yet: c is built from nothing
        self.c = np.zeros(dim)

    def distances(self, eff: np.ndarray) -> np.ndarray:
        """Each column's sum of ``eff[slot] * val``, terms added one after
        another from the first; the padding adds +0.0, which changes no sum."""
        terms = eff[self.slots]
        terms *= self.vals
        if terms.shape[1] == 1:
            # numpy sums a lone column pairwise; a running sum keeps the order
            terms = np.cumsum(terms, axis=0)[-1:]
        return terms.sum(axis=0)

    def update(self, active: np.ndarray) -> int:
        """Make ``active`` the active mask and move ``c`` with it: add the
        columns that switched on, subtract those that switched off. Returns
        how many changed sides; the first mask builds ``c`` and counts 0."""
        fresh = self.active is None
        changed = np.flatnonzero(active != (np.zeros_like(active) if fresh else self.active))
        if changed.size:
            vals = self.vals[:, changed] * np.where(active[changed], 1.0, -1.0)
            self.c += np.bincount(self.slots[:, changed].ravel(), vals.ravel(), self.c.size)
        self.active = active
        return 0 if fresh else changed.size


class _PairTerms:
    """Loss and gradient over the positives' ``_Columns``, built once, and
    the negatives', which ``refresh`` replaces. ``loss`` and ``gradient`` take
    ``d = distances(w)``, positives first, each its column's sum in order. A
    hinge at its kink is inactive; ``flips`` counts hinges that changed sides."""

    __slots__ = ("n_pos", "pos", "neg", "flips")

    def __init__(self, X: np.ndarray, pairs: PairSet):
        self.n_pos = len(pairs.positives)
        self.pos = _Columns(X, pairs.positives)
        self.neg = _Columns(X, pairs.negatives)
        self.flips = 0

    def refresh(self, X: np.ndarray, negatives: Sequence[tuple[int, int]]) -> None:
        """Replace the negatives; the positives and their part of ``c`` stay."""
        self.neg = None  # drop the old columns before the new ones are built
        self.neg = _Columns(X, negatives)

    def distances(self, w: np.ndarray) -> np.ndarray:
        eff = softplus(w)
        return np.concatenate([self.pos.distances(eff), self.neg.distances(eff)])

    def loss(self, w: np.ndarray, d: np.ndarray, cfg: TrainConfig) -> float:
        pos = np.maximum(d[: self.n_pos] - cfg.mu1, 0.0).sum()
        neg = np.maximum(cfg.mu2 - d[self.n_pos :], 0.0).sum()
        return float(cfg.beta * (w @ w) + pos + neg)

    def gradient(self, w: np.ndarray, d: np.ndarray, cfg: TrainConfig) -> np.ndarray:
        self.flips += self.pos.update(d[: self.n_pos] > cfg.mu1)
        self.flips += self.neg.update(d[self.n_pos :] < cfg.mu2)
        return 2.0 * cfg.beta * w + sigmoid(w) * (self.pos.c - self.neg.c)


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
    """2*beta*w + sigmoid(w) * c over the active pairs; a hinge at its kink is inactive."""
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
        quotas[lab] = max(floors[lab], quotas[lab])
    # floor bumps may overshoot the cap; shave the largest quotas back down
    excess = sum(quotas.values()) - cap
    while excess > 0:
        lab = max(quotas, key=lambda l: (quotas[l] - floors[l], quotas[l], -l))
        quotas[lab] -= 1
        excess -= 1
    chosen: list[int] = []
    for lab in sorted(by_label):
        picked = rng.sample(by_label[lab], quotas[lab])
        chosen.extend(picked)
    return sorted(chosen)


def _log_refresh(
    epoch: int, terms: _PairTerms, w: np.ndarray, d: np.ndarray, cfg: TrainConfig
) -> None:
    """One DEBUG line per impostor refresh; nothing is computed for it unless
    it is logged. Its gradient is the next epoch's: the same bits, as c is exact."""
    if log.isEnabledFor(logging.DEBUG):
        pos, neg = d[: terms.n_pos], d[terms.n_pos :]
        norm = float(np.linalg.norm(terms.gradient(w, d, cfg)))
        log.debug(
            "epoch %d: %d impostors, active hinges %d positive %d negative, loss %.6f, "
            "%d changed sides, gradient norm %.6g",
            epoch, len(neg), (pos > cfg.mu1).sum(), (neg < cfg.mu2).sum(),
            terms.loss(w, d, cfg), terms.flips, norm,
        )
        terms.flips = 0


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
    _log_refresh(0, terms, w, d, cfg)
    m1 = np.zeros_like(w)
    m2 = np.zeros_like(w)
    for epoch in range(1, cfg.epochs + 1):
        if epoch > 1 and (epoch - 1) % cfg.impostor_refresh_every == 0:
            model = WeightModel(vocab, w)
            terms.refresh(X, find_impostors(profiles, labels, model, targets, cfg.k))
            d = terms.distances(w)
            _log_refresh(epoch, terms, w, d, cfg)
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
# the line boundaries of str.splitlines, which load_model splits on, but "\n"
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


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
    text = "\n".join(lines) + "\n"
    # scans of the finished text, not a loop over labels: a tab, a line break
    # or a leading "OOV " inside a label shows here, and only then is it found
    width = vocab.shape.p + vocab.shape.q
    if (
        text.count("\t") != width * len(vocab.tuples)
        or text.count("\n") != len(lines)
        or any(c in text for c in _OTHER_BREAKS)
        or text.count("\nOOV ") != 1
    ):
        bad = next(tup for tup in vocab.tuples if _unsavable(tup))
        raise ValueError(
            f"label tuple {bad!r} cannot be saved: a label in a model file holds no "
            "tab or line break, and a first label cannot start with 'OOV '"
        )
    data = text.encode("utf-8")  # before the file opens: a lone surrogate raises here
    with open(path, "wb") as fh:
        fh.write(data)


def _unsavable(tup: tuple[str, ...]) -> bool:
    """Whether a tuple's model-file line would not read back as that tuple."""
    line = "\t".join(tup) + "\t0"
    return line.startswith("OOV ") or line.count("\t") != len(tup) or len(line.splitlines()) != 1


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

