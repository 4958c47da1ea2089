import random
from collections import Counter

import numpy as np
import pytest

from pqgrams import metric
from pqgrams.datasets import gen_strings, random_tree
from pqgrams.grams import GramShape, Vocabulary, count_matrix, profile
from pqgrams.knn import (
    TreeDistance,
    benchmark_inference,
    cross_validate,
    edit_distance_baseline,
    knn_classify,
    stratified_folds,
    unweighted_gram_distance,
    weighted_gram_distance,
)
from pqgrams.lmnn import LabeledTree, TrainConfig, train
from pqgrams.metric import W_INIT, WeightModel
from pqgrams.ted import tree_edit_distance
from pqgrams.tree import parse_tree, serialize_tree

from conftest import random_tree_raw, weight_draws

S22 = GramShape(2, 2)


def items(*texts_and_labels):
    return [LabeledTree(parse_tree(t), lab) for t, lab in texts_and_labels]


def pq_dist_for(train_items, shape=S22):
    return unweighted_gram_distance([it.tree for it in train_items], shape)


def test_exact_training_tree_wins_at_k1():
    data = items(("a(b,c)", 0), ("x(y)", 1), ("p(q,r)", 1))
    dist = pq_dist_for(data)
    assert knn_classify(data, parse_tree("x(y)"), dist, k=1) == 1


def test_majority_vote():
    data = items(("a(b,c)", 0), ("a(b,d)", 0), ("z(z(z,z))", 1))
    dist = pq_dist_for(data)
    assert knn_classify(data, parse_tree("a(b,e)"), dist, k=3) == 0


def test_vote_tie_goes_to_nearest_neighbor():
    # k=2 with one vote each; nearest neighbor's label wins
    data = items(("a(b)", 1), ("q(r,s)", 0))
    dist = pq_dist_for(data)
    assert knn_classify(data, parse_tree("a(b)"), dist, k=2) == 1


def test_distance_tie_prefers_lower_training_index():
    data = items(("a(b)", 1), ("a(b)", 0), ("zz", 0))
    dist = pq_dist_for(data)
    # both zero-distance neighbors tie on votes; index 0 is nearer by rule
    assert knn_classify(data, parse_tree("a(b)"), dist, k=2) == 1


def test_remaining_tie_takes_smaller_class_id():
    # k=5: nearest neighbor's label (5) has one vote, labels 2 and 1 tie
    # with two votes each, so the smaller class id (1) wins
    data = items(("n0", 5), ("n1", 2), ("n2", 2), ("n3", 1), ("n4", 1), ("far", 0))
    by_root = {"n0": 0.0, "n1": 1.0, "n2": 1.0, "n3": 1.0, "n4": 1.0, "far": 9.0}
    dist = TreeDistance("fake", lambda a, b: by_root[a.label(a.root)])
    assert knn_classify(data, parse_tree("q"), dist, k=5) == 1


def test_knn_error_cases():
    data = items(("a", 0), ("b", 1))
    dist = pq_dist_for(data)
    with pytest.raises(ValueError):
        knn_classify([], parse_tree("a"), dist, k=1)
    with pytest.raises(ValueError):
        knn_classify(data, parse_tree("a"), dist, k=3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        knn_classify(data, parse_tree("a"), dist, k=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        knn_classify(data, parse_tree("a"), dist, k=-1)


def test_prediction_invariant_under_distance_rescaling():
    rng = random.Random(4)
    data = [
        LabeledTree(random_tree_raw(rng.randrange(2, 9), rng), i % 3)
        for i in range(12)
    ]
    base = pq_dist_for(data)
    doubled = TreeDistance("2pq", lambda a, b: 2.0 * base(a, b))
    for _ in range(10):
        q = random_tree_raw(rng.randrange(2, 9), rng)
        assert knn_classify(data, q, base, 3) == knn_classify(data, q, doubled, 3)


def test_stratified_folds_partition_and_balance():
    labels = [0] * 100 + [1] * 100
    parts = stratified_folds(labels, folds=5, seed=9)
    assert sorted(i for part in parts for i in part) == list(range(200))
    for part in parts:
        assert len(part) == 40
        assert sum(1 for i in part if labels[i] == 0) == 20


def test_stratified_folds_deterministic():
    labels = [i % 3 for i in range(50)]
    assert stratified_folds(labels, 5, seed=1) == stratified_folds(labels, 5, seed=1)
    assert stratified_folds(labels, 5, seed=1) != stratified_folds(labels, 5, seed=2)


def test_stratified_folds_validation():
    with pytest.raises(ValueError):
        stratified_folds([0, 1], folds=1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds([0, 1], folds=3, seed=0)


def test_cross_validate_perfect_separation():
    data = items(
        ("a(b,c)", 0), ("a(b,d)", 0), ("a(c,c)", 0), ("a(c,d)", 0),
        ("z(z(z))", 1), ("z(z(y))", 1), ("z(y(z))", 1), ("z(y(y))", 1),
    )
    report = cross_validate(data, pq_dist_for, k=1, folds=4, seed=0)
    assert report.mean_error == 0.0
    assert len(report.fold_errors) == 4


def test_cross_validate_detects_missing_class():
    data = items(("a", 0), ("b", 0), ("c", 0), ("d", 1))
    with pytest.raises(ValueError, match="absent"):
        cross_validate(data, pq_dist_for, k=1, folds=4, seed=0)


def test_cross_validate_deterministic_and_records_predictions():
    data = gen_strings(10, seed=6).items
    r1 = cross_validate(data, pq_dist_for, k=1, folds=5, seed=3)
    r2 = cross_validate(data, pq_dist_for, k=1, folds=5, seed=3)
    assert r1.fold_errors == r2.fold_errors
    assert r1.predictions == r2.predictions
    assert r1.folds == r2.folds
    assert sorted(i for i, _ in r1.predictions) == list(range(len(data)))


def test_cross_validate_with_learned_distance_epochs_zero_matches_plain():
    data = gen_strings(10, seed=6).items
    cfg = TrainConfig(k=1, epochs=0, seed=1)
    r_plain = cross_validate(data, pq_dist_for, k=1, folds=5, seed=3)
    r_learned = cross_validate(
        data,
        lambda tr: weighted_gram_distance(train(tr, S22, cfg)),
        k=1,
        folds=5,
        seed=3,
    )
    assert r_plain.predictions == r_learned.predictions


def test_e1_extracts_each_tree_once_per_fold(monkeypatch):
    from pqgrams import grams

    data = [LabeledTree(random_tree(12, random.Random(i), attach_window=3), i % 3) for i in range(30)]

    def profiled_once(train_items):
        # the plain distance built the old way: a vocabulary, then every
        # training tree profiled again on first use
        vocab = Vocabulary.from_trees([it.tree for it in train_items], S22)
        return weighted_gram_distance(WeightModel.initial(vocab))

    before = cross_validate(data, profiled_once, k=3, folds=5, seed=4)
    calls = Counter()
    extract = grams.extract_grams

    def counted(t, shape):
        calls[id(t)] += 1
        return extract(t, shape)

    monkeypatch.setattr(grams, "extract_grams", counted)
    after = cross_validate(data, pq_dist_for, k=3, folds=5, seed=4)
    # every tree is a training or a test tree of each fold, encoded once there
    assert calls == Counter({id(it.tree): 5 for it in data})
    assert after.predictions == before.predictions
    assert after.fold_errors == before.fold_errors


def test_threads_do_not_change_results():
    data = gen_strings(8, seed=2).items
    r1 = cross_validate(data, pq_dist_for, k=1, folds=4, seed=5, threads=1)
    r4 = cross_validate(data, pq_dist_for, k=1, folds=4, seed=5, threads=4)
    assert r1.predictions == r4.predictions


def test_csv_rows_schema():
    data = gen_strings(8, seed=2).items
    report = cross_validate(data, pq_dist_for, k=1, folds=4, seed=5)
    rows = report.csv_rows("strings", "E1")
    assert len(rows) == 4
    for f, row in enumerate(rows):
        fields = row.split(",")
        assert fields[0] == "strings" and fields[1] == "E1"
        assert int(fields[2]) == f
        float(fields[3]), float(fields[4])


def test_benchmark_reports_runs_and_accepts_empty_cache_reuse():
    data = gen_strings(6, seed=7).items
    tests = [it.tree for it in data[:4]]
    dist = pq_dist_for(data)
    result = benchmark_inference(data, tests, dist, k=1, repeats=3)
    assert len(result.runs) == 3
    assert all(r > 0 for r in result.runs)
    assert result.mean_seconds >= 0


def test_benchmark_rejects_empty_inputs():
    data = gen_strings(4, seed=7).items
    with pytest.raises(ValueError):
        benchmark_inference([], [data[0].tree], pq_dist_for(data), 1)
    with pytest.raises(ValueError):
        benchmark_inference(data, [], pq_dist_for(data), 1)
    with pytest.raises(ValueError, match="repeats"):
        benchmark_inference(data, [data[0].tree], pq_dist_for(data), 1, repeats=0)


def test_benchmark_extracts_each_tree_once_per_repeat(monkeypatch):
    from pqgrams import grams

    rng = random.Random(11)
    data = [LabeledTree(random_tree(10, rng, attach_window=3), i % 2) for i in range(12)]
    tests = [random_tree(10, rng, attach_window=3) for _ in range(5)]
    calls = Counter()
    extract = grams.extract_grams

    def counted(t, shape):
        calls[id(t)] += 1
        return extract(t, shape)

    monkeypatch.setattr(grams, "extract_grams", counted)
    dist = pq_dist_for(data)
    assert calls == Counter({id(it.tree): 1 for it in data})
    benchmark_inference(data, tests, dist, k=3, repeats=3)
    # the cold cache of every repeat encodes each tree once more
    want = Counter({id(it.tree): 4 for it in data}) + Counter({id(t): 3 for t in tests})
    assert calls == want


def test_edit_distance_baseline_plugs_in():
    data = items(("a(b,c)", 0), ("a(b,d)", 0), ("z(z(z))", 1), ("z(z(y))", 1))
    report = cross_validate(data, lambda tr: edit_distance_baseline(), k=1, folds=2, seed=0)
    assert report.mean_error == 0.0
    assert report.dist_name == "ted"


def ladder(dists, labels, k):
    """The documented vote, spelled out: nearest k by (distance, index); tied
    votes go to the nearest neighbor's label, then to the smaller class id."""
    nearest = sorted(range(len(dists)), key=lambda i: (dists[i], i))[:k]
    votes = Counter(labels[i] for i in nearest)
    top = max(votes.values())
    winners = [lab for lab, c in votes.items() if c == top]
    if len(winners) == 1:
        return winners[0]
    first = labels[nearest[0]]
    return first if first in winners else min(winners)


def test_edit_distance_knn_follows_the_ladder_at_tied_distances():
    # single-node and small trees at edit distances 0, 1 and 2, with repeats
    data = items(
        ("a", 0), ("b", 1), ("a", 1), ("c", 0), ("a(b)", 2), ("b", 0), ("a(c)", 1), ("d(e)", 2),
    )
    trees = [it.tree for it in data]
    labels = [it.label for it in data]
    dist = edit_distance_baseline()
    for q in map(parse_tree, ("a", "b", "e", "a(b)", "b(a)", "x(y,z)")):
        dists = [tree_edit_distance(t, q) for t in trees]
        assert len(set(dists)) < len(dists)  # ties to break
        for k in (1, 2, 3):
            assert knn_classify(data, q, dist, k) == ladder(dists, labels, k)


def test_batched_distances_match_pair_calls_bit_for_bit():
    rng = random.Random(8)
    unique = [random_tree(80, rng, tuple("abcdefgh")) for _ in range(60)]
    # the same tree object twice and an equal copy, under other labels, so
    # distances tie and the lower index must win
    trees = unique + unique[:8] + [parse_tree(serialize_tree(t)) for t in unique[:4]]
    data = [LabeledTree(t, i % 3) for i, t in enumerate(trees)]
    trained = train(data[:60], S22, TrainConfig(k=1, epochs=30, seed=1))
    assert np.any(trained.model.w != W_INIT)
    vocab = trained.vocab
    assert len(trees) * vocab.dim * 8 > metric._BLOCK_BYTES  # several blocks
    dist = weighted_gram_distance(trained)
    labels = [it.label for it in data]
    queries = [random_tree(80, rng, tuple("abcdefghz")) for _ in range(6)] + trees[:3]
    assert all(vocab.oov_id in profile(q, vocab).indices for q in queries[:6])
    for q in queries:
        pairs = [dist(t, q) for t in trees]
        batched = dist.query_distances(trees, q)
        assert batched.tobytes() == np.array(pairs).tobytes()
        for k in (1, 2, 3, 4):
            assert knn_classify(data, q, dist, k) == ladder(pairs, labels, k)


def test_nearest_equals_stable_argsort_of_query_distances():
    rng = random.Random(21)
    np_rng = np.random.default_rng(21)
    unique = [random_tree(rng.randrange(5, 40), rng, tuple("abcd")) for _ in range(24)]
    # the same tree object twice and equal copies, so distances tie exactly
    trees = unique + unique[:4] + [parse_tree(serialize_tree(t)) for t in unique[4:8]]
    labels = [i % 3 for i in range(len(trees))]
    data = [LabeledTree(t, lab) for t, lab in zip(trees, labels)]
    vocab = Vocabulary.from_trees(unique, S22)
    queries = [random_tree(rng.randrange(5, 40), rng, tuple("abcdz")) for _ in range(6)]
    queries += [trees[0], trees[30], parse_tree("x(y(z),w)")]
    assert profile(queries[-1], vocab).indices.tolist() == [vocab.oov_id]  # only OOV grams
    for w in weight_draws(np_rng, vocab.dim):
        dist = weighted_gram_distance(WeightModel(vocab, w))
        for refs in (data, data[:1]):
            ref_trees = [it.tree for it in refs]
            for q in queries:
                full = dist.query_distances(ref_trees, q)
                for k in sorted({1, 2, 3, len(refs)} & set(range(1, len(refs) + 1))):
                    want = np.argsort(full, kind="stable")[:k].tolist()
                    assert dist.nearest(ref_trees, q, k).tolist() == want
                    assert knn_classify(refs, q, dist, k) == ladder(full.tolist(), labels, k)


def test_reference_cache_follows_the_reference_list():
    data = gen_strings(12, seed=3).items
    vocab = Vocabulary.from_trees([it.tree for it in data], S22)
    model = WeightModel(vocab, np.random.default_rng(5).normal(0.0, 2.0, vocab.dim))
    queries = [it.tree for it in data[::5]] + [parse_tree("a(b(c),z)")]
    dist = weighted_gram_distance(model)

    def agrees_with_fresh(refs):
        fresh = weighted_gram_distance(model)
        trees = [it.tree for it in refs]
        for q in queries:
            got = dist.query_distances(trees, q)
            assert got.tobytes() == fresh.query_distances(trees, q).tobytes()
            assert knn_classify(refs, q, dist, 3) == knn_classify(refs, q, fresh, 3)

    first, second = data[:12], data[12:]
    agrees_with_fresh(first)
    agrees_with_fresh(second)
    agrees_with_fresh(first)
    refs = list(first)
    agrees_with_fresh(refs)
    refs[0], refs[-1] = second[0], second[-1]
    agrees_with_fresh(refs)
    refs.append(second[3])
    agrees_with_fresh(refs)
    dist.clear_cache()
    agrees_with_fresh(refs)


def test_query_distances_equal_dense_formula_over_several_blocks():
    rng = random.Random(12)
    vocab = Vocabulary.from_trees([random_tree(80, rng, tuple("abcdefgh")) for _ in range(30)], S22)
    step = metric._BLOCK_BYTES // (8 * vocab.dim)
    assert step >= 1
    # two full blocks and a last block of one row; most trees carry OOV grams
    refs = [random_tree(80, rng, tuple("abcdefgh")) for _ in range(2 * step + 1)]
    refs[3] = parse_tree("q")  # every gram out of vocabulary
    model = WeightModel(vocab, np.random.default_rng(12).uniform(-4.0, 4.0, vocab.dim))
    eff = model.effective_weights()
    X = count_matrix([profile(t, vocab) for t in refs], vocab)
    dist = weighted_gram_distance(model)
    for q in [random_tree(80, rng, tuple("abcdefghz")) for _ in range(4)] + refs[-2:]:
        x = count_matrix([profile(q, vocab)], vocab)[0]
        want = (np.abs(X - x) * eff).sum(axis=1)
        assert dist.query_distances(refs, q).tobytes() == want.tobytes()
