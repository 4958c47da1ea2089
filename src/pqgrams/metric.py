"""Unweighted and weighted pq-gram distances.

The weighted distance puts a learnable positive weight on every vocabulary
slot: dist(x, y) = sum_i softplus(w_i) * |x_i - y_i|. Softplus keeps all
effective weights strictly positive, so the distance stays a pseudo-metric
(distinct trees may still sit at distance zero) for any finite parameters.

Every weighted distance, from one pair to a training set or a k-NN
reference list, comes out of one kernel, ``CountRows.distances``, so pair
calls, targets, impostors and k-NN see identical distances and ties.
``paired_distances`` gives the kernel's distance for a list of index pairs
from dense blocks whose elements and row sums are the kernel's own. Only
the loss's ``_PairTerms.distances`` sums in another order (last bits can
differ); the loss gradient sums integer counts, exactly, in no set order.
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
    # e^-|x| is e^-x for x >= 0 and e^x below: 1 / (1 + e^-x) and e^x / (1 + e^x)
    ex = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, ex) / (1.0 + ex)
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


# bytes of a kernel block: memory stays bounded whatever the rows and vocabulary
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class CountRows:
    """Count rows over ``dim`` slots, held as their row-major nonzeros: row
    ``r`` owns entries ``starts[r]:starts[r + 1]``, each with its flat
    position ``r * dim + slot`` in a C-contiguous ``rows x dim`` matrix, its
    slot and its float64 count. The kernel rebuilds full, ``dim``-long rows
    in blocks of at most ``_BLOCK_BYTES``: ``|row| * eff`` (exactly the term
    of a slot where the reference is zero) with the nonzeros' terms patched
    in, each element the dense formula's float. Each distance is one sum
    over a contiguous row, so it depends on its two rows only, never on the
    block or call around them.
    """

    dim: int
    starts: np.ndarray
    pos: np.ndarray
    slots: np.ndarray
    vals: np.ndarray

    @classmethod
    def of_matrix(cls, B: np.ndarray) -> "CountRows":
        r, c = np.nonzero(B)
        starts = np.searchsorted(r, np.arange(len(B) + 1))
        return cls(B.shape[1], starts, r * B.shape[1] + c, c, B[r, c])

    @classmethod
    def of_profiles(cls, profiles: list[Profile], dim: int) -> "CountRows":
        lens = [len(p.indices) for p in profiles]
        slots = np.concatenate([np.empty(0, np.int64), *(p.indices for p in profiles)])
        vals = np.concatenate([np.empty(0), *(p.counts for p in profiles)])
        rows = np.repeat(np.arange(len(lens)), lens)
        return cls(dim, np.cumsum([0, *lens]), rows * dim + slots, slots, vals)

    def distances(self, eff: np.ndarray, row: np.ndarray, start: int = 0) -> np.ndarray:
        """sum_i eff_i * |ref_i - row_i| for rows ``start:``, blocks counted from there."""
        n, dim = len(self.starts) - 1, self.dim
        step = max(1, _BLOCK_BYTES // (8 * dim))
        out = np.empty(n - start)
        block = np.empty((min(step, n - start), dim))
        base = np.abs(row) * eff
        for lo in range(start, n, step):
            hi = min(n, lo + step)
            s = slice(self.starts[lo], self.starts[hi])
            buf = block[: hi - lo]
            buf[:] = base
            terms = np.abs(self.vals[s] - row[self.slots[s]]) * eff[self.slots[s]]
            buf.reshape(-1)[self.pos[s] - lo * dim] = terms
            out[lo - start : hi - start] = buf.sum(axis=1)
        return out


def pairwise_distances(model: WeightModel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D[a, b] = sum_i softplus(w_i) * |A[a, i] - B[b, i]| over dense count rows.

    One kernel call per row of ``A``. Exactly symmetric, exactly 0 for
    equal rows, and integer-exact at W_INIT (effective weights of 1).
    """
    eff = model.effective_weights()
    rows = CountRows.of_matrix(B)
    D = np.empty((len(A), len(B)))
    for a, row in enumerate(A):
        D[a] = rows.distances(eff, row)
    return D


def symmetric_distances(model: WeightModel, X: np.ndarray) -> np.ndarray:
    """``pairwise_distances(model, X, X)``, computing only the upper triangle."""
    eff = model.effective_weights()
    rows = CountRows.of_matrix(X)
    D = np.zeros((len(X), len(X)))
    for a in range(len(X) - 1):
        D[a, a + 1 :] = rows.distances(eff, X[a], a + 1)
    # adding the zero lower triangle is exact: the mirror is bit for bit
    return D + D.T


def paired_distances(model: WeightModel, X: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """d[r] = ``pairwise_distances(model, X[i:i+1], X[j:j+1])`` for row ``r = (i, j)``
    of the ``n x 2`` index array ``pairs``, bit for bit.

    Each block holds ``|X[j] - X[i]| * eff`` for up to half of
    ``_BLOCK_BYTES`` of pairs (``X[i]`` is gathered beside it), each element
    the kernel's float (``|0 - x| == |x|``), and each distance is the same
    sum over one contiguous ``dim``-long row.
    """
    eff = model.effective_weights()
    step = max(1, _BLOCK_BYTES // (16 * X.shape[1]))
    out = np.empty(len(pairs))
    for lo in range(0, len(pairs), step):
        block = pairs[lo : lo + step]
        diff = X[block[:, 1]]
        diff -= X[block[:, 0]]
        np.abs(diff, out=diff)
        diff *= eff
        out[lo : lo + len(block)] = diff.sum(axis=1)
    return out


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
