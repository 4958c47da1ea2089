import random

import pytest

from pqgrams.datasets import gen_strings
from pqgrams.grams import GramShape
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
from pqgrams.tree import parse_tree

from conftest import random_tree_raw

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


def test_edit_distance_baseline_plugs_in():
    data = items(("a(b,c)", 0), ("a(b,d)", 0), ("z(z(z))", 1), ("z(z(y))", 1))
    report = cross_validate(data, lambda tr: edit_distance_baseline(), k=1, folds=2, seed=0)
    assert report.mean_error == 0.0
    assert report.dist_name == "ted"
