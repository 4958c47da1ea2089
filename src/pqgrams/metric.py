"""Unweighted and weighted pq-gram distances.

The weighted distance puts a learnable positive weight on every vocabulary
slot: dist(x, y) = sum_i softplus(w_i) * |x_i - y_i|. Softplus keeps all
effective weights strictly positive, so the distance stays a pseudo-metric
(distinct trees may still sit at distance zero) for any finite parameters.

Every weighted distance, from one pair to a whole training set, comes out of
one kernel over dense count rows (``pairwise_distances``). Each entry is the
sum over one full row of ``softplus(w) * |a - b|``, reduced the same way
whatever the block shape, so a 1x1 call, a row, and a symmetric matrix agree
bit for bit; training and k-NN therefore see identical distances and ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grams import Profile, Vocabulary, count_matrix, sym_diff

# softplus(W_INIT) == 1.0 exactly in float64, so a freshly initialized
# weighted distance reproduces the unweighted distance bit-for-bit
W_INIT = math.log(math.e - 1.0)


def softplus(x):
    """ln(1 + e^x), overflow-safe for large |x|. Works on scalars and arrays."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.maximum(arr, 0.0) + np.log1p(np.exp(-np.abs(arr)))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def sigmoid(x):
    """e^x / (1 + e^x), overflow-safe. Works on scalars and arrays."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class WeightModel:
    """Raw parameter vector over a vocabulary; effective weights are softplus(w).

    Immutable: ``w`` is a read-only copy of the given weights, so the
    effective weights can be computed once, at construction.
    """

    vocab: Vocabulary
    w: np.ndarray
    _eff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64)
        if w.shape != (self.vocab.dim,):
            raise ValueError(
                f"weight vector has shape {w.shape}, expected ({self.vocab.dim},)"
            )
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        eff = softplus(w)
        eff.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "_eff", eff)

    @classmethod
    def initial(cls, vocab: Vocabulary) -> "WeightModel":
        """All weights at W_INIT: the weighted distance equals the unweighted one."""
        return cls(vocab, np.full(vocab.dim, W_INIT))

    @property
    def shape(self):
        return self.vocab.shape

    @property
    def dim(self) -> int:
        return self.vocab.dim

    def effective_weights(self) -> np.ndarray:
        return self._eff


def pq_distance(x: Profile, y: Profile) -> int:
    """Unweighted gram distance: total symmetric-difference count."""
    return sym_diff(x, y).total()


def _row_distances(
    row: np.ndarray, B: np.ndarray, eff: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    # one reduction per row of B over its full, contiguous length: the value
    # for a pair depends on its two rows only, never on the block around them
    out = buf[: len(B)]
    np.subtract(B, row, out=out)
    np.abs(out, out=out)
    out *= eff
    return out.sum(axis=1)


def pairwise_distances(model: WeightModel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D[a, b] = sum_i softplus(w_i) * |A[a, i] - B[b, i]| over dense count rows.

    Works through one row of ``A`` at a time in a ``len(B) x dim`` buffer.
    Exactly symmetric, exactly 0 for equal rows, and integer-exact at
    W_INIT (effective weights of 1).
    """
    eff = model.effective_weights()
    D = np.empty((len(A), len(B)))
    buf = np.empty((len(B), model.dim))
    for a, row in enumerate(A):
        D[a] = _row_distances(row, B, eff, buf)
    return D


def symmetric_distances(model: WeightModel, X: np.ndarray) -> np.ndarray:
    """``pairwise_distances(model, X, X)``, computing only the upper triangle."""
    eff = model.effective_weights()
    m = len(X)
    D = np.zeros((m, m))
    buf = np.empty((m, model.dim))
    for a in range(m - 1):
        D[a, a + 1 :] = _row_distances(X[a], X[a + 1 :], eff, buf)
    # adding the zero lower triangle is exact: the mirror is bit for bit
    return D + D.T


def weighted_distance(model: WeightModel, x: Profile, y: Profile) -> float:
    """sum_i softplus(w_i) * |x_i - y_i|; non-negative and symmetric.

    A 1x1 call into ``pairwise_distances``, so it agrees bit for bit with
    every batched distance.
    """
    rows = count_matrix([x, y], model.vocab)
    return float(pairwise_distances(model, rows[:1], rows[1:])[0, 0])


def distance_gradient(model: WeightModel, x: Profile, y: Profile) -> np.ndarray:
    """Gradient of weighted_distance w.r.t. w: sigmoid(w_i) * |x_i - y_i|."""
    rows = count_matrix([x, y], model.vocab)
    return sigmoid(model.w) * np.abs(rows[0] - rows[1])
