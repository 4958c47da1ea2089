"""Unweighted and weighted pq-gram distances.

The weighted distance puts a learnable positive weight on every vocabulary
slot: dist(x, y) = sum_i softplus(w_i) * |x_i - y_i|. Softplus keeps all
effective weights strictly positive, so the distance stays a pseudo-metric
(distinct trees may still sit at distance zero) for any finite parameters.

Every weighted distance the kernel serves, from one pair to a whole
training set, comes out of ``row_distances`` (behind ``pairwise_distances``;
k-NN feeds it blocks of reference rows). It builds a dense block of
``eff * |B - a|`` from two parts: ``|a| * eff`` copied into every row, which
is exactly the term of a slot where the reference row is zero, and the
references' nonzeros patched in. Each element is the same float as in the
dense formula, and each entry is one sum over a full, contiguous row, so a
1x1 call, a row, a reference block and a symmetric matrix agree bit for
bit: targets, impostors, k-NN and pair calls see identical distances and
ties. The loss's ``_PairTerms.distances`` sums in another order and can
differ in the last bits.
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


def row_distances(row, base, eff, pos, slots, vals, block) -> np.ndarray:
    """The kernel: sum_i eff_i * |B[b, i] - row_i| for each row b of a block
    ``B`` of reference rows given by their nonzeros (flat positions ``pos``
    in ``B``, ``slots``, ``vals``), with ``base = |row| * eff``. Worked in
    ``block``, a C-contiguous ``len(B) x dim`` buffer."""
    # a zero slot's term |0 - row_i| * eff_i is base_i exactly; one reduction
    # per row over its full, contiguous length, so the value for a pair
    # depends on its two rows only, never on the block around them
    block[:] = base
    block.reshape(-1)[pos] = np.abs(vals - row[slots]) * eff[slots]
    return block.sum(axis=1)


def _nonzeros(B: np.ndarray):
    """Row-major nonzeros of ``B``: row starts, flat positions, slots, values."""
    r, c = np.nonzero(B)
    return np.searchsorted(r, np.arange(len(B) + 1)), r * B.shape[1] + c, c, B[r, c]


def pairwise_distances(model: WeightModel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D[a, b] = sum_i softplus(w_i) * |A[a, i] - B[b, i]| over dense count rows.

    Works through one row of ``A`` at a time in a ``len(B) x dim`` buffer.
    Exactly symmetric, exactly 0 for equal rows, and integer-exact at
    W_INIT (effective weights of 1).
    """
    eff = model.effective_weights()
    _, pos, slots, vals = _nonzeros(B)
    D = np.empty((len(A), len(B)))
    block = np.empty((len(B), model.dim))
    for a, row in enumerate(A):
        D[a] = row_distances(row, np.abs(row) * eff, eff, pos, slots, vals, block)
    return D


def symmetric_distances(model: WeightModel, X: np.ndarray) -> np.ndarray:
    """``pairwise_distances(model, X, X)``, computing only the upper triangle."""
    eff = model.effective_weights()
    m, dim = X.shape
    starts, pos, slots, vals = _nonzeros(X)
    D = np.zeros((m, m))
    buf = np.empty((m, dim))
    for a in range(m - 1):
        # the nonzeros of rows a+1:, placed in a block that starts at row a+1
        s, row = slice(starts[a + 1], None), X[a]
        part = (pos[s] - (a + 1) * dim, slots[s], vals[s])
        D[a, a + 1 :] = row_distances(row, np.abs(row) * eff, eff, *part, buf[: m - a - 1])
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
