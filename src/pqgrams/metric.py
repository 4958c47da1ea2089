"""Unweighted and weighted pq-gram distances.

The weighted distance puts a learnable positive weight on every vocabulary
slot: dist(x, y) = sum_i softplus(w_i) * |x_i - y_i|. Softplus keeps all
effective weights strictly positive, so the distance stays a pseudo-metric
(distinct trees may still sit at distance zero) for any finite parameters.

Every weighted distance, from one pair to a training set or a k-NN
reference list, comes out of one kernel, ``CountRows.pair_distances``, which
scores a list of (query, reference) pairs, so pair calls, targets,
impostors and k-NN see identical distances and ties. The other distance
functions only choose the pairs: a grid, a triangle, one query against
every reference, or the impostor pairs near a radius. Two filters estimate
distances as ``|x| + |y| - 2 sum eff * min(x, y)``, within
``rounding_slack`` of the kernel: ``SlotIndex``, one query against every
reference, picks which references the kernel must score for the k nearest,
and ``threshold_estimates``, every pair of a training set at once, decides
which impostor pairs the kernel must score. Neither ever supplies a
distance. Only the loss's ``_PairTerms.distances`` sums in another order
(last bits can differ); the loss gradient sums integer counts, exactly, in
no set order.
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


def _ranges(starts: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``starts[k]:starts[k + 1]`` of each k in ``keys``, one
    range after another, and each range's length."""
    first = starts[keys]
    lens = starts[keys + 1] - first
    return (first + lens - lens.cumsum()).repeat(lens) + np.arange(lens.sum()), lens


def rounding_slack(n: int, total):
    """A bound on |estimate - kernel distance| for the two filters'
    estimates ``Nq + Nr - 2 S``, where the kernel's row sum, the norms and
    ``S`` each add at most ``n`` terms and ``total`` (a float or an array)
    is at least the computed ``Nq + Nr``; ``inf`` where there is no bound.
    """
    # With u = 2**-53, exact norms Nq and Nr and the exact distance
    # D <= Nq + Nr. Counts are integers, so each product eff * c is rounded
    # once, within a factor 1 + u (below 2**-1022 an integer times a
    # subnormal is exact), and a float sum of at most n non-negative terms,
    # in any order and any blocking, is within gamma_n = n u / (1 - n u) of
    # the exact sum. So the kernel is within gamma_n D of D. The estimate's
    # norms and S are each within gamma_n, 2 S <= Nq + Nr, and its last two
    # roundings add at most 3 u (Nq + Nr). Together,
    # |estimate - kernel| <= 3 gamma_(n+2) (Nq + Nr) <= 4 (n + 2) u (Nq + Nr).
    # The slack, 8 (n + 8) u over the computed norms, is over twice that,
    # which leaves room for the rounding of the norms and of the filters'
    # thresholds. Past 2**1000, or where a norm is not finite, a distance
    # could overflow, and there is no bound: the slack is inf.
    slack = (n + 8) * 2.0**-50 * total
    bounded = total < 2.0**1000  # nan compares false: no bound either
    if isinstance(slack, float):
        return slack if bounded else math.inf
    slack[~bounded] = math.inf
    return slack


@dataclass(frozen=True, eq=False)
class CountRows:
    """Count rows over ``dim`` slots, held as their row-major nonzeros: row
    ``r`` owns entries ``starts[r]:starts[r + 1]``, each with its slot and
    its float64 count. ``pair_distances`` is the one weighted-distance
    kernel; every other distance in this module is a pair list through it.
    """

    dim: int
    starts: np.ndarray
    slots: np.ndarray
    vals: np.ndarray

    @classmethod
    def of_matrix(cls, B: np.ndarray) -> "CountRows":
        r, c = np.nonzero(B)
        return cls(B.shape[1], np.searchsorted(r, np.arange(len(B) + 1)), c, B[r, c])

    @classmethod
    def of_profiles(cls, profiles: list[Profile], dim: int) -> "CountRows":
        slots = np.concatenate([np.empty(0, np.int64), *(p.indices for p in profiles)])
        vals = np.concatenate([np.empty(0), *(p.counts for p in profiles)])
        return cls(dim, np.cumsum([0, *(len(p.indices) for p in profiles)]), slots, vals)

    def distances(self, eff: np.ndarray, row: np.ndarray) -> np.ndarray:
        """sum_i eff_i * |ref_i - row_i| for every row, in row order: the
        pair list of ``row`` against each row."""
        n = len(self.starts) - 1
        return self.pair_distances(eff, row[None], np.zeros(n, np.intp), np.arange(n))

    def pair_distances(
        self, eff: np.ndarray, Q: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """d[r] = sum_i eff_i * |ref_i - Q[a[r], i]| for reference ``b[r]``.

        Each pair gets a full, ``dim``-long row, in blocks of at most
        ``_BLOCK_BYTES``: ``|Q[a[r]]| * eff`` (exactly the term of a slot
        where the reference is zero) with the reference's nonzero terms
        patched in, each element the dense formula's float. Each distance is
        one sum over a contiguous row, so it depends on its two rows only,
        never on the block or call around them. ``a`` and ``b`` are not
        checked: an index out of range gives a wrong distance or an error.
        """
        dim = self.dim
        step = max(1, _BLOCK_BYTES // (8 * dim))
        flat_q = Q.reshape(-1)
        out = np.empty(len(a))
        block = np.empty((min(step, len(a)), dim))
        for lo in range(0, len(a), step):
            qa, rb = a[lo : lo + step], b[lo : lo + step]
            buf = block[: len(qa)]
            Q.take(qa, axis=0, out=buf, mode="clip")
            np.abs(buf, out=buf)
            buf *= eff
            # the nonzeros of references rb, and their flat positions in buf
            nz, lens = _ranges(self.starts, rb)
            slots = self.slots[nz]
            q = flat_q[(qa * dim).repeat(lens) + slots]
            at = np.arange(0, len(qa) * dim, dim).repeat(lens) + slots
            buf.reshape(-1)[at] = np.abs(self.vals[nz] - q) * eff[slots]
            out[lo : lo + len(qa)] = buf.sum(axis=1)
        return out


class SlotIndex:
    """The nonzeros of a ``CountRows`` held slot-major under one weight vector:
    for each slot, the rows holding it and their terms ``eff * count``, plus
    each row's weighted norm. It picks which rows the kernel must score for a
    query's k nearest; every distance it returns comes from the kernel.
    """

    def __init__(self, rows: CountRows, eff: np.ndarray):
        owner = np.repeat(np.arange(len(rows.starts) - 1), np.diff(rows.starts))
        terms = eff[rows.slots] * rows.vals
        order = np.argsort(rows.slots, kind="stable")
        self.rows, self.eff = rows, eff
        self.starts = np.searchsorted(rows.slots[order], np.arange(rows.dim + 1))
        self.owner = owner[order]
        self.terms = terms[order]
        self.norms = np.bincount(owner, weights=terms, minlength=len(rows.starts) - 1)
        self.max_norm = float(self.norms.max(initial=0.0))

    def estimates(self, row: np.ndarray) -> tuple[np.ndarray, float]:
        """Each row's estimate of its kernel distance to the dense count row
        ``row``, and a bound ``slack`` on |estimate - kernel distance|.

        For counts q and r, ``|q - r| = q + r - 2 min(q, r)``, so the
        estimate is ``|q| + |r| - 2 S``, with norms ``|x| = sum eff * x`` and
        ``S = sum eff * min(q, r)`` over the slots that both rows hold.
        """
        qs = row.nonzero()[0]
        q_terms = self.eff[qs] * row[qs]
        at, lens = _ranges(self.starts, qs)
        # rounding is monotone: min(fl(eff * q), fl(eff * r)) == fl(eff * min(q, r))
        shared = np.minimum(self.terms[at], q_terms.repeat(lens))
        s = np.bincount(self.owner[at], shared, len(self.norms))
        norm_q = float(q_terms.sum())
        # every sum here has at most dim terms
        slack = rounding_slack(self.rows.dim, norm_q + self.max_norm)
        return (self.norms - 2 * s) + norm_q, slack

    def nearest(self, row: np.ndarray, k: int) -> np.ndarray:
        """The first k of a stable argsort of the kernel's distances from every
        row to ``row``, scoring only the rows whose estimate is within
        ``2 * slack`` of the k-th smallest estimate tau.

        Any other row r has k rows j with est_j <= tau, and then
        kernel_j <= tau + slack < est_r - slack <= kernel_r: k rows strictly
        nearer, so r is not among the k nearest, whatever the tie-break.
        The candidates are scored by the kernel in ascending row order, so a
        stable argsort of them keeps the full argsort's order on ties.
        """
        est, slack = self.estimates(row)
        if slack < math.inf:
            cand = (est <= np.partition(est, k - 1)[k - 1] + 2 * slack).nonzero()[0]
        else:
            cand = np.arange(len(est))
        if len(cand) == 1:  # k == 1, and the one row left is the nearest
            return cand
        d = self.rows.pair_distances(self.eff, row[None], np.zeros_like(cand), cand)
        return cand[np.argsort(d, kind="stable")[:k]]


def threshold_estimates(X: np.ndarray, eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair's estimate of its kernel distance between the ``m >= 2``
    count rows of ``X``, as an ``m x m`` matrix, and each pair's
    ``rounding_slack``.

    The estimate is ``N_i + N_j - 2 S_ij``, with norms ``N = X @ eff`` and
    ``S_ij = sum eff * min(x_i, x_j)``. Counts are integers, so ``min(a, b)
    = sum_{t >= 1} [a >= t][b >= t]``, and S is one product ``(V * eff[slot])
    @ V.T`` of the 0/1 matrix V whose column (slot, t) marks the rows that
    hold at least t of the slot. V keeps the thresholds up to a slot's
    second-largest count only; the others feed only the diagonal, whose
    estimate is not a distance. It is taken in column blocks, at most
    ``_BLOCK_BYTES`` together with their copies scaled by ``eff``.
    """
    m, dim = X.shape
    norms = X @ eff
    # each slot's second-largest count: its largest if two rows hold that,
    # else the largest below it
    top = X.max(axis=0)
    at_top = X == top
    below = X.max(axis=0, where=~at_top, initial=0)
    second = np.where(np.count_nonzero(at_top, axis=0) > 1, top, below).astype(np.intp)
    slot = np.repeat(np.arange(dim), second)
    t = np.arange(len(slot)) - np.repeat(second.cumsum() - second, second) + 1
    S = np.zeros((m, m))
    step = max(1, _BLOCK_BYTES // (16 * m))  # a block of V and its scaled copy
    for lo in range(0, len(slot), step):
        cols = slot[lo : lo + step]
        V = X[:, cols]
        np.greater_equal(V, t[lo : lo + step], out=V)
        S += (V * eff[cols]) @ V.T
    total = norms[:, None] + norms
    # the estimate total - 2 S, in place; the norms and the kernel's row
    # sums add dim terms, S one per column of V
    S *= -2.0
    S += total
    return S, rounding_slack(dim + len(slot), total)


def _pair_list(
    model: WeightModel, Q: np.ndarray, B: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``pair_distances`` of the count rows ``Q[a]``, as float64, against ``B[b]``."""
    Q = np.asarray(Q, dtype=np.float64)
    return CountRows.of_matrix(B).pair_distances(model.effective_weights(), Q, a, b)


def pairwise_distances(model: WeightModel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D[a, b] = sum_i softplus(w_i) * |A[a, i] - B[b, i]| over dense count rows.

    The kernel over the ``len(A) x len(B)`` grid of pairs. Exactly
    symmetric, exactly 0 for equal rows, and integer-exact at W_INIT
    (effective weights of 1).
    """
    a, b = np.indices((len(A), len(B))).reshape(2, -1)
    return _pair_list(model, A, B, a, b).reshape(len(A), len(B))


def symmetric_distances(model: WeightModel, X: np.ndarray) -> np.ndarray:
    """``pairwise_distances(model, X, X)``, scoring only the upper triangle."""
    a, b = np.triu_indices(len(X), 1)
    D = np.zeros((len(X), len(X)))
    D[a, b] = _pair_list(model, X, X, a, b)
    # adding the zero lower triangle is exact: the mirror is bit for bit
    return D + D.T


def paired_distances(model: WeightModel, X: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """d[r] = ``pairwise_distances(model, X[i:i+1], X[j:j+1])`` for row ``r = (i, j)``
    of the ``n x 2`` index array ``pairs``, bit for bit. Raises ``IndexError``
    naming the first pair with an index outside ``0 <= i, j < len(X)``."""
    pairs = np.asarray(pairs).reshape(-1, 2)
    if (bad := np.flatnonzero(((pairs < 0) | (pairs >= len(X))).any(axis=1))).size:
        i, j = pairs[bad[0]].tolist()
        raise IndexError(f"pair {bad[0]} ({i}, {j}) is outside 0 <= i, j < {len(X)}")
    return _pair_list(model, X, X, *pairs.T)


def weighted_distance(model: WeightModel, x: Profile, y: Profile) -> float:
    """sum_i softplus(w_i) * |x_i - y_i|; non-negative and symmetric.

    The kernel on the one pair (x, y), so it agrees bit for bit with every
    batched distance.
    """
    rows = count_matrix([x, y], model.vocab)
    at = np.zeros(1, np.intp)
    return float(_pair_list(model, rows, rows[1:], at, at)[0])


def distance_gradient(model: WeightModel, x: Profile, y: Profile) -> np.ndarray:
    """Gradient of weighted_distance w.r.t. w: sigmoid(w_i) * |x_i - y_i|."""
    rows = count_matrix([x, y], model.vocab)
    return sigmoid(model.w) * np.abs(rows[0] - rows[1])
