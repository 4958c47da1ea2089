import math
import random
import re

import numpy as np
import pytest

from pqgrams import metric
from pqgrams.grams import (
    GramShape,
    Vocabulary,
    build_vocabulary,
    count_matrix,
    profile,
    sym_diff,
)
from pqgrams.metric import (
    _BLOCK_BYTES,
    W_INIT,
    CountRows,
    SlotIndex,
    WeightModel,
    distance_gradient,
    paired_distances,
    pairwise_distances,
    pq_distance,
    sigmoid,
    softplus,
    symmetric_distances,
    weighted_distance,
)
from pqgrams.tree import parse_tree

from conftest import random_tree_raw, weight_draws
from oracles import naive_weighted_distance

S12 = GramShape(1, 2)


def pair_profiles(text1, text2, shape=S12):
    t1, t2 = parse_tree(text1), parse_tree(text2)
    v = build_vocabulary([t1, t2], shape)
    return v, profile(t1, v), profile(t2, v)


def test_softplus_values():
    assert softplus(0.0) == pytest.approx(math.log(2), abs=1e-12)
    assert softplus(W_INIT) == 1.0  # exact: the init weight is chosen for this
    assert softplus(100.0) == pytest.approx(100.0, abs=1e-12)
    assert softplus(-100.0) == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(softplus(750.0))  # naive ln(1+e^x) would overflow


def test_softplus_sigmoid_vectorized():
    xs = np.array([-700.0, -1.0, 0.0, 1.0, 700.0])
    sp = softplus(xs)
    sg = sigmoid(xs)
    assert sp.shape == xs.shape and np.isfinite(sp).all()
    assert (sp > 0).all()
    assert sg[2] == pytest.approx(0.5)
    assert np.all((sg > 0) & (sg <= 1))  # saturates to exactly 1.0 for huge x
    # scalar path must agree bit-for-bit with the vector path
    assert softplus(1.0) == sp[3]
    assert sigmoid(1.0) == sg[3]


def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_two_branch_formula_bit_for_bit():
    edges = [0.0, -0.0, 5e-324, -5e-324, 36.0, -36.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
    xs = np.concatenate([np.random.default_rng(7).normal(0.0, 8.0, 1001), edges])
    assert sigmoid(xs).tobytes() == two_branch_sigmoid(xs).tobytes()
    assert [sigmoid(float(x)) for x in edges] == two_branch_sigmoid(np.array(edges)).tolist()


def test_pq_distance_golden():
    _, p1, p2 = pair_profiles("a(b,c)", "a(c,b)")
    assert pq_distance(p1, p2) == 6
    assert pq_distance(p1, p1) == 0


def test_pq_distance_disjoint_leaves():
    _, p1, p2 = pair_profiles("a", "b", GramShape(1, 1))
    assert pq_distance(p1, p2) == 2


def test_weighted_distance_at_init_equals_unweighted():
    v, p1, p2 = pair_profiles("a(b,c)", "a(c,b)")
    model = WeightModel.initial(v)
    assert weighted_distance(model, p1, p2) == 6.0


def test_weighted_distance_at_zero_weights():
    v, p1, p2 = pair_profiles("a(b,c)", "a(c,b)")
    model = WeightModel(v, np.zeros(v.dim))
    assert weighted_distance(model, p1, p2) == pytest.approx(6 * math.log(2), rel=1e-12)


def test_weighted_distance_reflexive():
    v, p1, _ = pair_profiles("a(b,c)", "a(c,b)")
    model = WeightModel(v, np.random.default_rng(0).normal(size=v.dim))
    assert weighted_distance(model, p1, p1) == 0.0


def test_weight_model_dimension_check():
    v, _, _ = pair_profiles("a(b,c)", "a(c,b)")
    with pytest.raises(ValueError, match="shape"):
        WeightModel(v, np.zeros(v.dim + 1))


def test_vocabulary_mismatch_rejected():
    va, p1, _ = pair_profiles("a(b,c)", "a(c,b)")
    vb, q1, _ = pair_profiles("a(b,c)", "x")
    model = WeightModel.initial(va)
    with pytest.raises(ValueError):
        weighted_distance(model, p1, q1)
    with pytest.raises(ValueError):
        weighted_distance(WeightModel.initial(vb), p1, p1)


def test_gradient_zero_where_diff_zero():
    v, p1, p2 = pair_profiles("a(b,c)", "a(c,b)")
    model = WeightModel(v, np.zeros(v.dim))
    g = distance_gradient(model, p1, p2)
    d = sym_diff(p1, p2).dense()
    assert np.all(g[d == 0] == 0.0)
    assert np.all(g[d != 0] == 0.5 * d[d != 0])


def test_gradient_sigmoid_times_diff_single_component():
    # one differing component with multiplicity 6 at w=0 gives 3.0
    t1 = parse_tree("r(x,x,x,x,x,x,x)")
    t2 = parse_tree("r(x)")
    v = build_vocabulary([t1, t2], GramShape(1, 1))
    p1, p2 = profile(t1, v), profile(t2, v)
    d = sym_diff(p1, p2).dense()
    (i,) = np.nonzero(d == 6)[0][:1]
    model = WeightModel(v, np.zeros(v.dim))
    assert distance_gradient(model, p1, p2)[i] == 3.0


def finite_difference_gradient(model, x, y, h=1e-5):
    g = np.zeros(model.dim)
    for i in range(model.dim):
        w_plus = model.w.copy()
        w_plus[i] += h
        w_minus = model.w.copy()
        w_minus[i] -= h
        g[i] = (
            weighted_distance(WeightModel(model.vocab, w_plus), x, y)
            - weighted_distance(WeightModel(model.vocab, w_minus), x, y)
        ) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    rng = random.Random(11)
    np_rng = np.random.default_rng(11)
    for _ in range(100):
        t1 = random_tree_raw(rng.randrange(2, 10), rng)
        t2 = random_tree_raw(rng.randrange(2, 10), rng)
        v = build_vocabulary([t1, t2], S12)
        model = WeightModel(v, np_rng.uniform(-3, 3, size=v.dim))
        x, y = profile(t1, v), profile(t2, v)
        analytic = distance_gradient(model, x, y)
        fd = finite_difference_gradient(model, x, y)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
        assert (np.abs(analytic - fd) / denom).max() < 1e-5


def test_weighted_distance_matches_naive_dense_evaluation():
    rng = random.Random(21)
    np_rng = np.random.default_rng(21)
    for _ in range(25):
        t1 = random_tree_raw(rng.randrange(1, 12), rng)
        t2 = random_tree_raw(rng.randrange(1, 12), rng)
        v = build_vocabulary([t1, t2], S12)
        model = WeightModel(v, np_rng.uniform(-4, 4, size=v.dim))
        x, y = profile(t1, v), profile(t2, v)
        assert weighted_distance(model, x, y) == pytest.approx(
            naive_weighted_distance(model, x, y), rel=1e-12, abs=1e-12
        )


def test_pseudo_metric_axioms():
    # non-negativity, reflexivity, exact symmetry, triangle inequality
    rng = random.Random(7)
    np_rng = np.random.default_rng(7)
    for _ in range(200):
        ts = [random_tree_raw(rng.randrange(1, 31), rng) for _ in range(3)]
        v = build_vocabulary(ts, S12)
        model = WeightModel(v, np_rng.uniform(-6, 6, size=v.dim))
        px, py, pz = (profile(t, v) for t in ts)
        dxy = weighted_distance(model, px, py)
        dyx = weighted_distance(model, py, px)
        dyz = weighted_distance(model, py, pz)
        dxz = weighted_distance(model, px, pz)
        assert dxy >= 0.0
        assert weighted_distance(model, px, px) == 0.0
        assert dxy == dyx
        assert dxy + dyz >= dxz - 1e-9


def test_positivity_of_effective_weights():
    v, _, _ = pair_profiles("a(b,c)", "a(c,b)")
    w = np.array([-700.0, -10.0, 0.0, 10.0, 700.0, 1e-300])
    model = WeightModel(v, np.resize(w, v.dim))
    assert (model.effective_weights() > 0).all()


def test_weight_model_rejects_non_finite_weights():
    v, _, _ = pair_profiles("a(b,c)", "a(c,b)")
    for bad in (np.nan, np.inf, -np.inf):
        w = np.zeros(v.dim)
        w[1] = bad
        with pytest.raises(ValueError, match="finite"):
            WeightModel(v, w)


def test_kernel_agrees_bit_for_bit_with_pair_calls():
    rng = random.Random(41)
    np_rng = np.random.default_rng(41)
    for trial in range(6):
        ts = [random_tree_raw(rng.randrange(1, 25), rng) for _ in range(rng.randrange(2, 14))]
        v = build_vocabulary(ts, S12)
        ps = [profile(t, v) for t in ts]
        X = count_matrix(ps, v)
        m = len(ps)
        model = WeightModel(v, np_rng.uniform(-4, 4, v.dim))
        pairs = np.array(
            [[weighted_distance(model, ps[i], ps[j]) for j in range(m)] for i in range(m)]
        )
        full = pairwise_distances(model, X, X)
        assert full.tobytes() == pairs.tobytes()
        assert symmetric_distances(model, X).tobytes() == pairs.tobytes()
        for i in range(m):  # 1 x m rows
            assert pairwise_distances(model, X[i : i + 1], X).tobytes() == pairs[i].tobytes()
        lo = 0
        while lo < m:  # uneven row blocks against a column subset
            hi = min(m, lo + rng.randrange(1, 5))
            cols = sorted(rng.sample(range(m), rng.randrange(1, m + 1)))
            got = pairwise_distances(model, X[lo:hi], X[cols])
            assert got.tobytes() == pairs[lo:hi][:, cols].tobytes()
            lo = hi
        assert np.array_equal(full, full.T)
        assert np.all(np.diag(full) == 0.0)
        init = pairwise_distances(WeightModel.initial(v), X, X)
        want = [[float(pq_distance(ps[i], ps[j])) for j in range(m)] for i in range(m)]
        assert init.tolist() == want


def dense_formula(model, A, B):
    """The weighted distance written out densely, apart from the kernel."""
    eff = model.effective_weights()
    return np.array([(np.abs(B - a) * eff).sum(axis=1) for a in A]).reshape(len(A), len(B))


def test_kernel_equals_dense_formula_bit_for_bit():
    np_rng = np.random.default_rng(61)
    # row sums are pairwise below and above numpy's 8-wide unroll and its
    # 128-element blocks, and far above them; the last case has more rows
    # than one kernel block holds, so blocks also start in mid-matrix
    assert 100 > _BLOCK_BYTES // (8 * 3001)
    dims = (1, 3, 7, 8, 9, 50, 127, 128, 129, 3001)
    for dim, rows in [(d, None) for d in dims] + [(3001, 100)]:
        v = Vocabulary(S12, [(f"l{i}", "*", "*") for i in range(dim - 1)])
        model = WeightModel(v, np_rng.uniform(-4, 4, dim))
        for density in (0.03, 0.3, 1.0):
            m = rows or int(np_rng.integers(2, 9))
            X = np_rng.integers(0, 5, (m, dim)) * (np_rng.random((m, dim)) < density)
            X = X.astype(np.float64)
            X[0] = 0.0  # an all-zero row
            X[-1, v.oov_id] = 3.0  # OOV counts
            Y = X[::-1].copy()
            assert symmetric_distances(model, X).tobytes() == dense_formula(model, X, X).tobytes()
            for A, B in ((X, Y), (X[1:2], Y), (X, Y[:1]), (X[:1], Y[2:3])):
                assert pairwise_distances(model, A, B).tobytes() == dense_formula(model, A, B).tobytes()


def test_paired_distances_equal_pair_calls_bit_for_bit():
    rng = random.Random(43)
    np_rng = np.random.default_rng(43)
    for trial in range(6):
        ts = [random_tree_raw(rng.randrange(1, 25), rng) for _ in range(rng.randrange(2, 14))]
        v = build_vocabulary(ts, S12)
        X = count_matrix([profile(t, v) for t in ts], v)
        model = WeightModel(v, np_rng.uniform(-4, 4, v.dim))
        pairs = np.array([rng.randrange(len(ts)) for _ in range(2 * trial * 7)]).reshape(-1, 2)
        want = [pairwise_distances(model, X[i : i + 1], X[j : j + 1])[0, 0] for i, j in pairs]
        assert paired_distances(model, X, pairs).tobytes() == np.array(want).tobytes()
    # more pairs than one block holds, over a wide vocabulary
    dim = 3001
    v = Vocabulary(S12, [(f"l{i}", "*", "*") for i in range(dim - 1)])
    model = WeightModel(v, np_rng.uniform(-4, 4, dim))
    X = (np_rng.integers(0, 5, (12, dim)) * (np_rng.random((12, dim)) < 0.3)).astype(np.float64)
    pairs = np_rng.integers(0, 12, (150, 2))
    assert len(pairs) > _BLOCK_BYTES // (8 * dim)
    want = [pairwise_distances(model, X[i : i + 1], X[j : j + 1])[0, 0] for i, j in pairs]
    assert paired_distances(model, X, pairs).tobytes() == np.array(want).tobytes()


def test_paired_distances_reject_pairs_out_of_range():
    rng = random.Random(45)
    ts = [random_tree_raw(rng.randrange(2, 12), rng) for _ in range(5)]
    v = build_vocabulary(ts, S12)
    X = count_matrix([profile(t, v) for t in ts], v)
    model = WeightModel.initial(v)
    for bad in ([-1, 1], [1, -1], [7, 1], [1, 5], [5, 5]):
        pairs = [[0, 1], [4, 0], bad, [-2, 9]]
        want = re.escape(f"pair 2 ({bad[0]}, {bad[1]}) is outside 0 <= i, j < 5")
        with pytest.raises(IndexError, match=want):
            paired_distances(model, X, pairs)
    # the last row and empty pair lists are in range
    got = paired_distances(model, X, [[4, 0], [0, 4]])
    assert got.tolist() == [dense_formula(model, X[4:], X[:1])[0, 0]] * 2
    assert paired_distances(model, X, np.empty((0, 2), np.intp)).shape == (0,)
    with pytest.raises(IndexError, match="outside"):
        paired_distances(model, X[:0], [[0, 0]])


def assert_constructors_agree(profiles, v):
    a = CountRows.of_matrix(count_matrix(profiles, v))
    b = CountRows.of_profiles(profiles, v.dim)
    assert a.dim == b.dim
    for name in ("starts", "slots", "vals"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


def test_count_rows_of_matrix_equals_of_profiles():
    rng = random.Random(47)
    oov_only = parse_tree("zz(yy,xx(ww))")
    for trial in range(8):
        seen = [random_tree_raw(rng.randrange(1, 20), rng) for _ in range(rng.randrange(1, 6))]
        v = build_vocabulary(seen, S12)
        # unseen trees put grams into the OOV slot, and one holds only OOV grams
        unseen = [random_tree_raw(rng.randrange(1, 20), rng) for _ in range(rng.randrange(0, 6))]
        ps = [profile(t, v) for t in seen + unseen + [oov_only]]
        assert ps[-1].indices.tolist() == [v.oov_id]
        rng.shuffle(ps)
        assert_constructors_agree(ps, v)
        assert_constructors_agree([], v)


def test_views_on_zero_and_one_rows_equal_dense_formula():
    np_rng = np.random.default_rng(49)
    for dim in (1, 7, 129):
        v = Vocabulary(S12, [(f"l{i}", "*", "*") for i in range(dim - 1)])
        for w in weight_draws(np_rng, dim):
            model = WeightModel(v, w)
            X = (np_rng.integers(0, 5, (4, dim)) * (np_rng.random((4, dim)) < 0.4)).astype(float)
            for n in (0, 1):
                A = X[:n]
                got = symmetric_distances(model, A)
                assert got.shape == (n, n)
                assert got.tobytes() == dense_formula(model, A, A).tobytes()
                for P, R in ((A, X), (X, A), (A, A), (A, X[3:])):
                    got = pairwise_distances(model, P, R)
                    assert got.shape == (len(P), len(R))
                    assert got.tobytes() == dense_formula(model, P, R).tobytes()
            eff = model.effective_weights()
            assert CountRows.of_matrix(X[:0]).distances(eff, X[0]).shape == (0,)


def test_views_over_many_small_blocks_equal_dense_formula(monkeypatch):
    np_rng = np.random.default_rng(53)
    dim, m = 7, 11
    v = Vocabulary(S12, [(f"l{i}", "*", "*") for i in range(dim - 1)])
    X = (np_rng.integers(0, 5, (m, dim)) * (np_rng.random((m, dim)) < 0.5)).astype(float)
    X[0] = 0.0
    Y = X[::-1].copy()
    # three pairs to a block, which divides none of the pair counts, then
    # one pair to a block (fewer block bytes than one row takes)
    for block_bytes in (8 * dim * 3, 1):
        monkeypatch.setattr(metric, "_BLOCK_BYTES", block_bytes)
        for w in weight_draws(np_rng, dim):
            model = WeightModel(v, w)
            eff = model.effective_weights()
            want = dense_formula(model, X, X)
            assert symmetric_distances(model, X).tobytes() == want.tobytes()
            assert pairwise_distances(model, X, Y).tobytes() == dense_formula(model, X, Y).tobytes()
            pairs = np_rng.integers(0, m, (40, 2))
            got = paired_distances(model, X, pairs)
            assert got.tobytes() == want[pairs[:, 0], pairs[:, 1]].tobytes()
            rows = CountRows.of_matrix(Y)
            for q in X:
                one_row = dense_formula(model, q[None], Y)[0]
                assert rows.distances(eff, q).tobytes() == one_row.tobytes()


def test_estimates_are_within_slack_of_the_kernel():
    np_rng = np.random.default_rng(71)
    for dim in (1, 7, 128, 129, 1000, 3001):
        v = Vocabulary(S12, [(f"l{i}", "*", "*") for i in range(dim - 1)])
        for w in weight_draws(np_rng, dim):
            eff = WeightModel(v, w).effective_weights()
            for density in (0.02, 0.3, 1.0):
                X = np_rng.integers(0, 6, (24, dim)) * (np_rng.random((24, dim)) < density)
                X = X.astype(np.float64)
                X[0] = 0.0  # an all-zero row
                X[1] = X[2]  # a duplicate
                X[-1] *= 40.0  # counts far apart
                index = SlotIndex(CountRows.of_matrix(X), eff)
                for q in [*X[:4], X[-1], np_rng.integers(0, 6, dim).astype(np.float64)]:
                    est, slack = index.estimates(q)
                    kernel = index.rows.distances(eff, q)
                    assert np.all(np.abs(est - kernel) <= slack)


def test_nearest_keeps_rows_that_the_estimate_ranks_past_the_kth():
    """At equal weights of ln 2, rows at exactly equal distance round apart
    differently in the estimate and in the kernel. In each of these seeded
    cases the k smallest estimates miss a row of the kernel's k nearest, so
    only the slack keeps it among the rows that the kernel scores."""
    for seed, k in ((0, 1), (48, 1), (60, 3), (84, 3)):
        rng = np.random.default_rng(seed)
        dim, n = int(rng.integers(20, 300)), int(rng.integers(5, 40))
        v = Vocabulary(S12, [(f"l{i}", "*", "*") for i in range(dim - 1)])
        eff = WeightModel(v, np.zeros(dim)).effective_weights()
        X = (rng.integers(0, 4, (n, dim)) * (rng.random((n, dim)) < 0.2)).astype(np.float64)
        q = (rng.integers(0, 4, dim) * (rng.random(dim) < 0.2)).astype(np.float64)
        index = SlotIndex(CountRows.of_matrix(X), eff)
        want = np.argsort(index.rows.distances(eff, q), kind="stable")[:k]
        est, slack = index.estimates(q)
        by_estimate = np.flatnonzero(est <= np.partition(est, k - 1)[k - 1])
        assert not set(want) <= set(by_estimate)
        assert index.nearest(q, k).tolist() == want.tolist()


def test_nearest_scores_every_row_when_distances_may_overflow():
    # effective weights near the float64 maximum: the estimate has no
    # error bound, and the kernel's own infinities decide the order
    v = Vocabulary(S12, [(f"l{i}", "*", "*") for i in range(5)])
    eff = WeightModel(v, np.array([1e308, 1e308, 1.0, 2.0, 3.0, 1e300])).effective_weights()
    X = np.array(
        [[2, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 2, 0, 0, 1, 0], [0, 0, 1, 0, 0, 3]], float
    )
    with np.errstate(over="ignore", invalid="ignore"):
        index = SlotIndex(CountRows.of_matrix(X), eff)
        for q in (np.zeros(6), X[1], np.array([3, 0, 0, 0, 0, 1.0])):
            assert index.estimates(q)[1] == math.inf
            kernel = index.rows.distances(eff, q)
            for k in range(1, 5):
                want = np.argsort(kernel, kind="stable")[:k]
                assert index.nearest(q, k).tolist() == want.tolist()
