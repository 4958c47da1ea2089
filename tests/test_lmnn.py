import logging
import math
import random
import re
from dataclasses import fields

import numpy as np
import pytest

from pqgrams import metric
from pqgrams.cli import run
from pqgrams.datasets import gen_strings
from pqgrams.grams import GramShape, Vocabulary, build_vocabulary, count_matrix, profile
from pqgrams.lmnn import (
    LabeledTree,
    ModelFormatError,
    PairSet,
    TrainConfig,
    TrainedModel,
    build_targets,
    encode_dataset,
    find_impostors,
    load_model,
    loss,
    loss_gradient,
    save_model,
    stratified_subsample,
    train,
)
from pqgrams.lmnn import _PairTerms
from pqgrams.metric import (
    W_INIT,
    WeightModel,
    distance_gradient,
    pairwise_distances,
    sigmoid,
    softplus,
    threshold_estimates,
    weighted_distance,
)
from pqgrams.tree import parse_tree

from conftest import random_tree_raw, weight_draws
from oracles import naive_loss

S12 = GramShape(1, 2)


def encoded(texts_and_labels, shape=S12):
    data = [LabeledTree(parse_tree(t), lab) for t, lab in texts_and_labels]
    vocab, profiles, labels = encode_dataset(data, shape)
    return data, vocab, profiles, labels


def random_labeled(rng, n, max_nodes=10, classes=2):
    return [
        LabeledTree(random_tree_raw(rng.randrange(2, max_nodes + 1), rng), i % classes)
        for i in range(n)
    ]


# --- config -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(mu1=-1)
    with pytest.raises(ValueError):
        TrainConfig(eta=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    TrainConfig(epochs=0)  # evaluate-only runs are allowed


@pytest.mark.parametrize("name", ["mu1", "mu2", "beta", "eta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values_by_name(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        TrainConfig(**{name: bad})


def test_config_numbers_round_trip_through_a_model_file_or_are_rejected(tmp_path):
    cfg = TrainConfig(
        k=np.int64(1), mu1=np.float64(4.0), mu2=np.float32(1.5), beta=0, eta=np.float64(0.1),
        epochs=np.int32(7), impostor_refresh_every=True, subsample_cap=np.uint8(40), seed=np.int64(3),
    )
    assert (cfg.k, cfg.mu1, cfg.mu2, cfg.beta, cfg.impostor_refresh_every) == (1, 4.0, 1.5, 0.0, 1)
    for f in fields(TrainConfig):
        assert type(getattr(cfg, f.name)) is type(f.default)
    vocab = build_vocabulary([parse_tree("a(b,c)")], S12)
    path = tmp_path / "m.txt"
    save_model(TrainedModel(WeightModel.initial(vocab), cfg), path)
    assert load_model(path).config == cfg
    for name, bad in [("k", 1.5), ("epochs", 2.0), ("seed", 0.5), ("k", np.float64(1.0))]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TrainConfig(**{name: bad})


def test_config_defaults_match_protocol():
    cfg = TrainConfig()
    assert (cfg.mu1, cfg.mu2) == (5.0, 5.0)
    assert cfg.beta == 1e-4 and cfg.eta == 1e-2
    assert cfg.epochs == 600
    assert cfg.impostor_refresh_every == 50
    assert cfg.subsample_cap == 200


# --- pair construction ------------------------------------------------------


def test_targets_two_points_each_direction():
    _, vocab, profiles, labels = encoded([("a(b)", 0), ("a(c)", 0), ("x", 1), ("y", 1)])
    model = WeightModel.initial(vocab)
    targets = build_targets(profiles, labels, model, k=1)
    assert (0, 1) in targets and (1, 0) in targets
    assert (2, 3) in targets and (3, 2) in targets
    assert len(targets) == 4


def test_targets_tie_breaks_to_lowest_index():
    _, vocab, profiles, labels = encoded([("a", 0), ("a", 0), ("a", 0), ("b", 1), ("b", 1)])
    model = WeightModel.initial(vocab)
    targets = build_targets(profiles, labels, model, k=1)
    assert (0, 1) in targets
    assert (1, 0) in targets
    assert (2, 0) in targets


def test_targets_small_class_rejected():
    _, vocab, profiles, labels = encoded([("a", 0), ("b", 1), ("c", 1)])
    model = WeightModel.initial(vocab)
    with pytest.raises(ValueError, match="class 0"):
        build_targets(profiles, labels, model, k=1)


def test_every_point_gets_k_targets():
    data = gen_strings(20, seed=1).items
    vocab, profiles, labels = encode_dataset(data, GramShape(2, 2))
    model = WeightModel.initial(vocab)
    targets = build_targets(profiles, labels, model, k=3)
    assert len(targets) == 3 * len(data)
    for i, j in targets:
        assert labels[i] == labels[j] and i != j


def test_impostors_empty_when_classes_far_apart():
    _, vocab, profiles, labels = encoded(
        [("a(b)", 0), ("a(c)", 0), ("x(y(z))", 1), ("x(y(w))", 1)]
    )
    model = WeightModel.initial(vocab)
    targets = build_targets(profiles, labels, model, k=1)
    assert find_impostors(profiles, labels, model, targets, k=1) == []


def test_duplicate_with_other_label_is_always_an_impostor():
    _, vocab, profiles, labels = encoded(
        [("a(b,c)", 0), ("a(b,d)", 0), ("a(b,c)", 1), ("z(z(z))", 1)]
    )
    model = WeightModel.initial(vocab)
    targets = build_targets(profiles, labels, model, k=1)
    impostors = find_impostors(profiles, labels, model, targets, k=1)
    assert (0, 2) in impostors  # zero distance beats any positive radius


def test_impostors_match_bruteforce_filter():
    rng = random.Random(5)
    for trial in range(5):
        data = random_labeled(rng, 20)
        vocab, profiles, labels = encode_dataset(data, S12)
        model = WeightModel(
            vocab, np.random.default_rng(trial).uniform(-2, 2, vocab.dim)
        )
        targets = build_targets(profiles, labels, model, k=2)
        got = find_impostors(profiles, labels, model, targets, k=2)

        # independent route: full distance matrix, then filter
        m = len(data)
        dmat = [
            [weighted_distance(model, profiles[i], profiles[j]) for j in range(m)]
            for i in range(m)
        ]
        expected = []
        for i in range(m):
            radius = max(dmat[i][j] for (i2, j) in targets if i2 == i)
            for j in range(m):
                if labels[j] != labels[i] and dmat[i][j] < radius:
                    expected.append((i, j))
        assert got == expected


def one_pair_at_a_time(model, profiles, labels, k):
    """Targets and impostors from 1x1 ``pairwise_distances`` calls."""
    X = count_matrix(profiles, model.vocab)
    m = len(labels)
    D = [
        [pairwise_distances(model, X[i : i + 1], X[j : j + 1])[0, 0] for j in range(m)]
        for i in range(m)
    ]
    targets = []
    for i in range(m):
        same = [j for j in range(m) if j != i and labels[j] == labels[i]]
        targets += [(i, j) for j in sorted(same, key=lambda j: (D[i][j], j))[:k]]
    impostors = []
    for i in range(m):
        radius = max(D[i][j] for i2, j in targets if i2 == i)
        impostors += [(i, j) for j in range(m) if labels[j] != labels[i] and D[i][j] < radius]
    return targets, impostors


def test_pairs_equal_one_pair_at_a_time_route_over_unequal_interleaved_classes():
    rng = random.Random(17)
    np_rng = np.random.default_rng(17)
    for trial in range(4):
        labels = [2] * 7 + [0] * 4 + [5] * 5  # unequal classes, interleaved below
        rng.shuffle(labels)
        trees = [random_tree_raw(rng.randrange(1, 8), rng) for _ in labels]
        # one tree in two classes, and a copy inside a class for distance ties
        a = labels.index(2)
        trees[labels.index(0)] = trees[a]
        trees[len(labels) - 1 - labels[::-1].index(2)] = trees[a]
        data = [LabeledTree(t, lab) for t, lab in zip(trees, labels)]
        vocab, profiles, labels = encode_dataset(data, S12)
        model = WeightModel(vocab, np_rng.uniform(-2, 2, vocab.dim))
        for k in (1, 2, 3):
            want_targets, want_impostors = one_pair_at_a_time(model, profiles, labels, k)
            targets = build_targets(profiles, labels, model, k)
            assert targets == want_targets
            impostors = find_impostors(profiles, labels, model, targets, k)
            assert impostors == want_impostors
            assert (labels.index(0), a) in impostors or (a, labels.index(0)) in impostors


def test_pair_validity_postcondition():
    rng = random.Random(9)
    data = random_labeled(rng, 16)
    vocab, profiles, labels = encode_dataset(data, S12)
    model = WeightModel.initial(vocab)
    targets = build_targets(profiles, labels, model, k=2)
    impostors = find_impostors(profiles, labels, model, targets, k=2)
    assert all(labels[i] == labels[j] and i != j for i, j in targets)
    assert all(labels[i] != labels[j] for i, j in impostors)


def tied_corpus(rng, n_classes=3, per_class=8):
    """Random small trees in interleaved classes, with one tree in every
    class and a copy inside a class, so that distances tie exactly."""
    labels = [i % n_classes for i in range(n_classes * per_class)]
    trees = [random_tree_raw(rng.randrange(1, 9), rng) for _ in labels]
    for lab in range(1, n_classes):
        trees[lab] = trees[0]
    trees[n_classes] = trees[0]
    return encode_dataset([LabeledTree(t, lab) for t, lab in zip(trees, labels)], S12)


def assert_impostors_are_the_kernels(model, profiles, labels, ks=(1, 2, 3)):
    for k in ks:
        want_targets, want_impostors = one_pair_at_a_time(model, profiles, labels, k)
        targets = build_targets(profiles, labels, model, k)
        assert targets == want_targets
        assert find_impostors(profiles, labels, model, targets, k) == want_impostors


def test_impostors_equal_the_kernel_only_route_over_weight_draws():
    rng = random.Random(31)
    np_rng = np.random.default_rng(31)
    for trial in range(2):
        vocab, profiles, labels = tied_corpus(rng)
        # equal weights off 1 turn W_INIT's integer ties into rounding near-ties
        for w in [*weight_draws(np_rng, vocab.dim), np.full(vocab.dim, -2.25)]:
            assert_impostors_are_the_kernels(WeightModel(vocab, w), profiles, labels)


def test_impostors_at_integer_ties_keep_the_strict_radius():
    # "a(b,c)" is in both classes. Tree 1's radius is 6, its distance to its
    # target 0; trees 2 and 3 of the other class are at exactly 6 from it
    texts = [("a(b,c)", 0), ("a(b,d)", 0), ("a(b,c)", 1), ("a(b,e)", 1), ("x(y)", 0), ("x(z)", 1)]
    _, vocab, profiles, labels = encoded(texts)
    model = WeightModel.initial(vocab)
    X = count_matrix(profiles, vocab)
    d = pairwise_distances(model, X, X)
    targets = build_targets(profiles, labels, model, k=1)
    assert (1, 0) in targets and d[1, 0] == d[1, 2] == d[1, 3] == 6.0
    impostors = find_impostors(profiles, labels, model, targets, k=1)
    assert (0, 2) in impostors and (2, 0) in impostors  # at distance 0
    assert (1, 2) not in impostors and (1, 3) not in impostors  # at the radius
    assert (4, 5) in impostors  # at 6, inside a radius of 8
    assert_impostors_are_the_kernels(model, profiles, labels, ks=(1, 2))


def test_threshold_estimates_are_within_their_slack_of_the_kernel():
    rng = random.Random(37)
    np_rng = np.random.default_rng(37)
    vocab, profiles, labels = tied_corpus(rng)
    X = count_matrix(profiles, vocab)
    off = ~np.eye(len(X), dtype=bool)
    for w in [*weight_draws(np_rng, vocab.dim), np.full(vocab.dim, -2.25)]:
        model = WeightModel(vocab, w)
        est, slack = threshold_estimates(X, model.effective_weights())
        gap = np.abs(est - pairwise_distances(model, X, X))
        assert np.isfinite(slack).all() and (gap[off] <= slack[off] / 2).all()


def test_impostors_without_a_rounding_bound_are_scored_by_the_kernel():
    rng = random.Random(41)
    np_rng = np.random.default_rng(41)
    vocab, profiles, labels = tied_corpus(rng)
    X = count_matrix(profiles, vocab)
    # every weight near 1e306; then ordinary weights but for the three most
    # common slots near overflow, where norms overflow and distances need not
    huge = 1e306 * np_rng.uniform(1.0, 1.5, vocab.dim)
    mixed = np_rng.normal(0.0, 2.0, vocab.dim)
    mixed[np.argsort(-np.count_nonzero(X, axis=0), kind="stable")[:3]] = 1e307
    models = [WeightModel(vocab, w) for w in (huge, mixed)]
    slack = [threshold_estimates(X, model.effective_weights())[1] for model in models]
    assert np.isinf(slack[0]).all() and np.isinf(slack[1]).any() and np.isfinite(slack[1]).any()
    for model in models:
        assert_impostors_are_the_kernels(model, profiles, labels)


def test_impostors_over_several_column_blocks(monkeypatch):
    rng = random.Random(43)
    np_rng = np.random.default_rng(43)
    vocab, profiles, labels = tied_corpus(rng)
    X = count_matrix(profiles, vocab)
    # five columns of V to a block; V has one column per slot and threshold
    # up to the slot's second-largest count
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 16 * len(X) * 5)
    assert np.sort(X, axis=0)[-2].sum() > 3 * 5
    for w in weight_draws(np_rng, vocab.dim):
        assert_impostors_are_the_kernels(WeightModel(vocab, w), profiles, labels)


# --- loss and gradient ------------------------------------------------------


def test_loss_zero_when_margins_satisfied():
    _, vocab, profiles, labels = encoded(
        [("a(b)", 0), ("a(b)", 0), ("x(y(z))", 1), ("x(y(z))", 1)]
    )
    model = WeightModel(vocab, np.zeros(vocab.dim))
    pairs = PairSet(positives=[(0, 1), (2, 3)], negatives=[(0, 2)])
    cfg = TrainConfig(mu1=5.0, mu2=1.0, beta=0.0)
    # positives identical (dist 0 <= mu1), negative far (dist >= mu2), w = 0
    assert loss(model, profiles, pairs, cfg) == 0.0


def test_loss_single_active_positive_hinge():
    t1 = parse_tree("r(x,x,x)")
    t2 = parse_tree("r")
    vocab = build_vocabulary([t1, t2], S12)
    profiles = [profile(t1, vocab), profile(t2, vocab)]
    model = WeightModel.initial(vocab)  # effective weights exactly 1
    d = weighted_distance(model, profiles[0], profiles[1])
    assert d == 8.0
    cfg = TrainConfig(mu1=5.0, beta=0.0)
    pairs = PairSet(positives=[(0, 1)], negatives=[])
    assert loss(model, profiles, pairs, cfg) == 3.0


def test_loss_matches_naive_reimplementation():
    rng = random.Random(13)
    np_rng = np.random.default_rng(13)
    for _ in range(10):
        data = random_labeled(rng, 10)
        vocab, profiles, labels = encode_dataset(data, S12)
        model = WeightModel(vocab, np_rng.uniform(-2, 2, vocab.dim))
        targets = build_targets(profiles, labels, model, k=1)
        negatives = find_impostors(profiles, labels, model, targets, k=1)
        pairs = PairSet(targets, negatives)
        cfg = TrainConfig(k=1, mu1=rng.uniform(0, 8), mu2=rng.uniform(0, 8), beta=1e-3)
        got = loss(model, profiles, pairs, cfg)
        want = naive_loss(model, profiles, pairs, cfg)
        assert got == pytest.approx(want, abs=1e-9)


def test_loss_gradient_zero_when_inactive():
    _, vocab, profiles, labels = encoded(
        [("a(b)", 0), ("a(b)", 0), ("x(y(z))", 1), ("x(y(z))", 1)]
    )
    model = WeightModel(vocab, np.zeros(vocab.dim))
    pairs = PairSet(positives=[(0, 1)], negatives=[(0, 2)])
    cfg = TrainConfig(mu1=5.0, mu2=1.0, beta=0.0)
    assert np.all(loss_gradient(model, profiles, pairs, cfg) == 0.0)


def test_loss_gradient_single_active_pair_is_distance_gradient():
    t1 = parse_tree("r(x,x,x,x)")
    t2 = parse_tree("r")
    vocab = build_vocabulary([t1, t2], S12)
    profiles = [profile(t1, vocab), profile(t2, vocab)]
    model = WeightModel.initial(vocab)
    cfg = TrainConfig(mu1=5.0, beta=0.0)
    pairs = PairSet(positives=[(0, 1)], negatives=[])
    got = loss_gradient(model, profiles, pairs, cfg)
    want = distance_gradient(model, profiles[0], profiles[1])
    assert got == pytest.approx(want, rel=1e-12)


def test_loss_gradient_matches_finite_differences_away_from_kinks():
    rng = random.Random(31)
    np_rng = np.random.default_rng(31)
    checked = 0
    while checked < 20:
        data = random_labeled(rng, 8)
        vocab, profiles, labels = encode_dataset(data, S12)
        model = WeightModel(vocab, np_rng.uniform(-2, 2, vocab.dim))
        targets = build_targets(profiles, labels, model, k=1)
        negatives = find_impostors(profiles, labels, model, targets, k=1)
        pairs = PairSet(targets, negatives)
        cfg = TrainConfig(k=1, mu1=4.0, mu2=6.0, beta=1e-3)
        dists = [
            weighted_distance(model, profiles[i], profiles[j])
            for i, j in pairs.positives + pairs.negatives
        ]
        if any(abs(d - cfg.mu1) < 1e-3 or abs(d - cfg.mu2) < 1e-3 for d in dists):
            continue  # too close to a hinge kink for finite differences
        analytic = loss_gradient(model, profiles, pairs, cfg)
        h = 1e-5
        fd = np.zeros(vocab.dim)
        for idx in range(vocab.dim):
            wp, wm = model.w.copy(), model.w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd[idx] = (
                loss(WeightModel(vocab, wp), profiles, pairs, cfg)
                - loss(WeightModel(vocab, wm), profiles, pairs, cfg)
            ) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-10)
        assert (np.abs(analytic - fd) / denom).max() < 1e-5
        checked += 1


def python_distances(eff, X, ij):
    """Each pair's sum of eff_i * |x_i - y_i|, left to right over ascending slots."""
    out = []
    for i, j in ij:
        total = 0.0
        for s in range(X.shape[1]):
            if X[i, s] != X[j, s]:
                total += float(eff[s]) * abs(float(X[i, s]) - float(X[j, s]))
        out.append(total)
    return np.array(out)


def python_gradient(w, X, pairs, d, cfg):
    """2*beta*w + sigmoid(w) * c, where c is, per slot, the Python integer sum
    of the active positives' |x - y| minus the active negatives'."""
    c = [0] * len(w)
    n_pos = len(pairs.positives)
    for p, (i, j) in enumerate(pairs.positives + pairs.negatives):
        sign = int(d[p] > cfg.mu1) if p < n_pos else -int(d[p] < cfg.mu2)
        for s in range(len(w)):
            c[s] += sign * abs(int(X[i, s]) - int(X[j, s]))
    return 2 * cfg.beta * w + sigmoid(w) * np.array(c, dtype=np.float64)


def test_pair_terms_sum_in_the_documented_order():
    rng = random.Random(41)
    trees = [random_tree_raw(n, rng) for n in (1, 2, 3, 40, 60, 5, 5, 9)]
    trees.append(trees[4])  # 8 and 4 are identical
    data = [LabeledTree(t, i % 2) for i, t in enumerate(trees)]
    trained = train(data, S12, TrainConfig(k=1, epochs=30, seed=2))
    vocab = trained.vocab
    X = count_matrix([profile(t, vocab) for t in trees], vocab)
    pair_sets = [
        PairSet([(0, 3), (1, 2), (4, 8), (3, 4), (6, 5)], [(0, 4), (2, 7), (5, 3), (7, 8)]),
        PairSet([(3, 0), (4, 8), (2, 1)], []),  # no negatives
        PairSet([(0, 4)], []),  # one pair: a single column
        PairSet([(4, 8)], [(8, 4)]),  # identical trees only: no terms at all
    ]
    weights = [trained.model.w, np.random.default_rng(41).uniform(-3, 3, vocab.dim)]
    for w in weights:
        for pairs in pair_sets:
            terms = _PairTerms(X, pairs)
            d = terms.distances(w)
            ij = pairs.positives + pairs.negatives
            assert d.tobytes() == python_distances(softplus(w), X, ij).tobytes()
            # margins between the distances, so some hinges are active and some not
            cfg = TrainConfig(mu1=float(np.median(d)), mu2=float(np.median(d)), beta=1e-3)
            want = python_gradient(w, X, pairs, d, cfg)
            assert terms.gradient(w, d, cfg).tobytes() == want.tobytes()


def int_oracle_c(X, pairs, d, cfg):
    """Per slot, the int64 sum of the active positives' |x - y| minus the active negatives'."""
    Xi = X.astype(np.int64)
    c = np.zeros(X.shape[1], dtype=np.int64)
    n_pos = len(pairs.positives)
    for p, (i, j) in enumerate(pairs.positives + pairs.negatives):
        active = d[p] > cfg.mu1 if p < n_pos else d[p] < cfg.mu2
        c += (1 if p < n_pos else -1) * active * np.abs(Xi[i] - Xi[j])
    return c


def test_pair_terms_keep_an_exact_running_sum_across_epochs():
    rng = random.Random(43)
    np_rng = np.random.default_rng(43)
    trees = [random_tree_raw(n, rng) for n in (2, 4, 30, 50, 7, 7, 12, 20)]
    trees.append(trees[3])  # 8 and 3 are identical
    vocab = build_vocabulary(trees, S12)
    X = count_matrix([profile(t, vocab) for t in trees], vocab)
    w = np_rng.uniform(-3, 3, vocab.dim)
    cfg = TrainConfig(mu1=10.0, mu2=20.0, beta=1e-3)
    pair_sets = [
        PairSet([(0, 2), (1, 3), (4, 5), (6, 7), (3, 8)], [(0, 3), (2, 6), (5, 7), (8, 1)]),
        PairSet([(2, 0), (3, 8), (7, 1)], []),  # no negatives
        PairSet([(0, 3)], []),  # one pair: a single column
        PairSet([(3, 8)], [(8, 3)]),  # identical trees only: no terms at all
    ]
    for pairs in pair_sets:
        n_pos, n = len(pairs.positives), len(pairs.positives) + len(pairs.negatives)
        margins = np.array([cfg.mu1] * n_pos + [cfg.mu2] * (n - n_pos))
        # each hinge on, off or exactly at its kink (inactive), then the first set again
        steps = [margins + np_rng.choice([-1.0, 0.0, 1.0], n) for _ in range(12)]
        steps.append(steps[0])
        terms = _PairTerms(X, pairs)
        flips, before = 0, None
        for d in steps:
            got = terms.gradient(w, d, cfg)
            assert got.tobytes() == _PairTerms(X, pairs).gradient(w, d, cfg).tobytes()
            assert got.tobytes() == python_gradient(w, X, pairs, d, cfg).tobytes()
            assert np.array_equal(terms.pos.c - terms.neg.c, int_oracle_c(X, pairs, d, cfg))
            now = np.concatenate([d[:n_pos] > cfg.mu1, d[n_pos:] < cfg.mu2])
            flips += 0 if before is None else int((now != before).sum())
            before = now
            assert terms.flips == flips


def test_train_with_a_refresh_every_epoch_is_byte_identical_on_repeat():
    data = strings_subset(20, seed=6)
    cfg = TrainConfig(k=1, epochs=40, impostor_refresh_every=1, seed=6)
    a = train(data, GramShape(2, 2), cfg)
    b = train(data, GramShape(2, 2), cfg)
    assert a.model.w.tobytes() == b.model.w.tobytes()
    assert a.loss_trace == b.loss_trace
    assert a.final_loss < a.initial_loss


# --- subsampling ------------------------------------------------------------


def test_subsample_noop_when_under_cap():
    assert stratified_subsample([0, 1, 0, 1], cap=10, k=1, rng=random.Random(0)) == [
        0,
        1,
        2,
        3,
    ]


def test_subsample_respects_cap_and_classes():
    labels = [0] * 300 + [1] * 100
    keep = stratified_subsample(labels, cap=200, k=3, rng=random.Random(1))
    assert len(keep) == 200
    kept_labels = [labels[i] for i in keep]
    assert kept_labels.count(0) == 150 and kept_labels.count(1) == 50


def test_subsample_keeps_small_classes_trainable():
    labels = [0] * 500 + [1] * 6
    keep = stratified_subsample(labels, cap=50, k=3, rng=random.Random(2))
    kept_labels = [labels[i] for i in keep]
    assert kept_labels.count(1) >= 4  # k+1
    assert len(keep) <= 50


# --- training ---------------------------------------------------------------


def strings_subset(n_per_class=12, seed=0):
    return gen_strings(n_per_class, seed=seed).items


def test_train_epochs_zero_is_initialization():
    data = strings_subset()
    trained = train(data, GramShape(2, 2), TrainConfig(k=1, epochs=0, seed=3))
    assert np.all(trained.model.w == W_INIT)
    assert len(trained.loss_trace) == 1


def test_train_is_deterministic():
    data = strings_subset()
    cfg = TrainConfig(k=1, epochs=25, seed=42)
    a = train(data, GramShape(2, 2), cfg)
    b = train(data, GramShape(2, 2), cfg)
    assert a.model.w.tobytes() == b.model.w.tobytes()
    assert a.loss_trace == b.loss_trace


def test_train_reduces_loss():
    data = strings_subset(20, seed=5)
    trained = train(data, GramShape(2, 2), TrainConfig(k=1, epochs=120, seed=5))
    assert trained.final_loss < trained.initial_loss
    assert len(trained.loss_trace) == 121


REFRESH_LINE = re.compile(
    r"epoch (\d+): (\d+) impostors, active hinges (\d+) positive (\d+) negative, loss (\S+), "
    r"(\d+) changed sides, gradient norm (\S+)$"
)


def test_train_logs_each_impostor_refresh_at_debug(caplog):
    data = strings_subset()
    cfg = TrainConfig(k=1, epochs=5, impostor_refresh_every=2, seed=3)
    train(data, GramShape(2, 2), cfg)
    assert [r for r in caplog.records if r.name == "pqgrams"] == []  # silent by default

    with caplog.at_level(logging.DEBUG, logger="pqgrams"):
        trained = train(data, GramShape(2, 2), cfg)
    records = [r for r in caplog.records if r.name == "pqgrams"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 3
    fields = [REFRESH_LINE.match(r.getMessage()).groups() for r in records]
    assert [int(f[0]) for f in fields] == [0, 3, 5]
    assert fields[0][4] == f"{trained.initial_loss:.6f}"

    # the first refresh is at the initial weights, where distances are integers
    vocab, profiles, labels = encode_dataset(data, GramShape(2, 2))
    model = WeightModel.initial(vocab)
    targets = build_targets(profiles, labels, model, 1)
    impostors = find_impostors(profiles, labels, model, targets, 1)
    def dist(pair):
        return weighted_distance(model, profiles[pair[0]], profiles[pair[1]])
    assert int(fields[0][1]) == len(impostors)
    assert int(fields[0][2]) == sum(dist(p) > cfg.mu1 for p in targets)
    assert int(fields[0][3]) == sum(dist(p) < cfg.mu2 for p in impostors)
    assert int(fields[0][5]) == 0
    g = loss_gradient(model, profiles, PairSet(targets, impostors), cfg)
    assert fields[0][6] == f"{np.linalg.norm(g):.6g}"


def test_refresh_lines_count_the_hinges_that_changed_sides(caplog):
    data = strings_subset(20, seed=0)
    cfg = TrainConfig(k=1, epochs=200, seed=3)
    with caplog.at_level(logging.DEBUG, logger="pqgrams"):
        logged = train(data, GramShape(2, 2), cfg)
    records = [r for r in caplog.records if r.name == "pqgrams"]
    fields = [REFRESH_LINE.match(r.getMessage()).groups() for r in records]
    assert [int(f[0]) for f in fields] == [0, 51, 101, 151]
    assert sum(int(f[5]) for f in fields) > 0  # the active set moves on strings
    # the logged gradients change no bit of training
    assert logged.model.w.tobytes() == train(data, GramShape(2, 2), cfg).model.w.tobytes()


def test_train_rejects_degenerate_data():
    with pytest.raises(ValueError):
        train([], GramShape(2, 2), TrainConfig())
    one_class = [LabeledTree(parse_tree("a"), 0), LabeledTree(parse_tree("b"), 0)]
    with pytest.raises(ValueError, match="classes"):
        train(one_class, GramShape(2, 2), TrainConfig())


# --- model files ------------------------------------------------------------


def test_model_roundtrip_is_lossless(tmp_path):
    data = strings_subset()
    cfg = TrainConfig(k=1, epochs=10, seed=8)
    trained = train(data, GramShape(2, 2), cfg)
    path = tmp_path / "model.txt"
    save_model(trained, path)
    loaded = load_model(path)
    assert loaded.vocab.tuples == trained.vocab.tuples
    assert loaded.model.w.tobytes() == trained.model.w.tobytes()
    assert loaded.shape == trained.shape
    assert loaded.config == cfg
    assert loaded.final_loss == trained.final_loss


def test_model_roundtrip_preserves_distances(tmp_path):
    data = strings_subset()
    trained = train(data, GramShape(2, 2), TrainConfig(k=1, epochs=5, seed=1))
    path = tmp_path / "model.txt"
    save_model(trained, path)
    loaded = load_model(path)
    vocab = trained.vocab
    for item in data[:6]:
        x = profile(item.tree, vocab)
        for other in data[6:12]:
            y = profile(other.tree, vocab)
            xl = profile(item.tree, loaded.vocab)
            yl = profile(other.tree, loaded.vocab)
            assert weighted_distance(trained.model, x, y) == weighted_distance(
                loaded.model, xl, yl
            )


def test_oov_weight_preserved(tmp_path):
    vocab = build_vocabulary([parse_tree("a(b,c)")], S12)
    w = np.arange(vocab.dim, dtype=float) * 0.125 - 1.0
    trained = TrainedModel(WeightModel(vocab, w), None)
    path = tmp_path / "m.txt"
    save_model(trained, path)
    loaded = load_model(path)
    assert loaded.model.w[vocab.oov_id] == w[vocab.oov_id]
    assert loaded.config is None


def test_truncated_model_file_rejected(tmp_path):
    data = strings_subset()
    trained = train(data, GramShape(2, 2), TrainConfig(k=1, epochs=1, seed=0))
    path = tmp_path / "model.txt"
    save_model(trained, path)
    text = path.read_text()
    clipped = tmp_path / "clipped.txt"
    clipped.write_text("".join(text.splitlines(keepends=True)[:-3]))
    with pytest.raises(ModelFormatError, match="truncated|dim"):
        load_model(clipped)


def test_malformed_model_files_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a model\n")
    with pytest.raises(ModelFormatError, match="header"):
        load_model(bad)

    wrong_version = tmp_path / "v2.txt"
    wrong_version.write_text("pqgram-model v2 p=1 q=2 dim=1\nOOV 0.5\n")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(wrong_version)

    wrong_dim = tmp_path / "dim.txt"
    wrong_dim.write_text(
        "pqgram-model v1 p=1 q=2 dim=3\na\t*\t*\t0.5\nOOV 0.5\n"
    )
    with pytest.raises(ModelFormatError, match="dim"):
        load_model(wrong_dim)


def test_model_with_hash_labels_round_trips(tmp_path):
    # '#' starts a legal label, so tuple lines may start with '#' too
    data = [
        LabeledTree(parse_tree(text), lab)
        for text, lab in [
            ("#a(b,c)", 0), ("#a(b,b)", 0), ("#a(c)", 0),
            ("#x(y,z)", 1), ("#x(y)", 1), ("#x(z,z)", 1),
        ]
    ]
    trained = train(data, S12, TrainConfig(k=1, epochs=3, seed=0))
    assert any(tup[0].startswith("#") for tup in trained.vocab.tuples)
    path = tmp_path / "model.txt"
    save_model(trained, path)
    loaded = load_model(path)
    assert loaded.vocab.tuples == trained.vocab.tuples
    assert loaded.model.w.tobytes() == trained.model.w.tobytes()
    assert loaded.config == trained.config
    assert loaded.final_loss == trained.final_loss


def test_comment_after_first_tuple_line_is_content(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "pqgram-model v1 p=1 q=2 dim=2\n# loss 1.0\na\t*\t*\t0.5\n# note\nOOV 0.5\n"
    )
    with pytest.raises(ModelFormatError, match=":4:"):
        load_model(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_weights_rejected_with_line_number(tmp_path, bad):
    tuple_line = tmp_path / "tuple.txt"
    tuple_line.write_text(f"pqgram-model v1 p=1 q=2 dim=2\na\t*\t*\t{bad}\nOOV 0.5\n")
    with pytest.raises(ModelFormatError, match=r":2: non-finite weight"):
        load_model(tuple_line)
    oov_line = tmp_path / "oov.txt"
    oov_line.write_text(f"pqgram-model v1 p=1 q=2 dim=2\na\t*\t*\t0.5\nOOV {bad}\n")
    with pytest.raises(ModelFormatError, match=r":3: non-finite weight"):
        load_model(oov_line)


def test_non_finite_config_comment_rejected_with_line_number(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "pqgram-model v1 p=1 q=2 dim=1\n"
        "# config k=1 mu1=inf mu2=5.0 beta=0.0 eta=0.01 epochs=1 refresh=1 cap=5 seed=0\n"
        "OOV 0.5\n"
    )
    with pytest.raises(ModelFormatError, match=r":2: bad config comment \(mu1 must be finite"):
        load_model(path)


CONFIG = "# config k=1 mu1=5.0 mu2=5.0 beta=0.0 eta=0.01 epochs=1 refresh=1 cap=5 seed=0"


@pytest.mark.parametrize(
    "comments, match",
    [
        ([CONFIG + " typo=3"], r":2: bad config comment \(unknown key 'typo'\)"),
        ([CONFIG + " k=7"], r":2: bad config comment \(repeated key 'k'\)"),
        ([CONFIG, "# loss 1.0", CONFIG], r":4: second config comment"),
        (["# loss 1.0", CONFIG, "# loss 2.0"], r":4: second loss comment"),
    ],
    ids=["unknown-key", "repeated-key", "second-config", "second-loss"],
)
def test_ambiguous_comments_rejected_with_line_number(tmp_path, comments, match):
    path = tmp_path / "m.txt"
    path.write_text("\n".join(["pqgram-model v1 p=1 q=2 dim=1", *comments, "OOV 0.5"]) + "\n")
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


def test_malformed_loss_and_oov_lines_rejected(tmp_path):
    bad_loss = tmp_path / "loss.txt"
    bad_loss.write_text("pqgram-model v1 p=1 q=2 dim=1\n# loss not-a-number\nOOV 0.5\n")
    with pytest.raises(ModelFormatError, match=":2: bad loss"):
        load_model(bad_loss)
    bad_oov = tmp_path / "oov.txt"
    bad_oov.write_text("pqgram-model v1 p=1 q=2 dim=1\nOOV x\n")
    with pytest.raises(ModelFormatError, match=":2: bad weight"):
        load_model(bad_oov)


def test_repeated_tuple_line_rejected_with_line_number(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "pqgram-model v1 p=1 q=2 dim=3\na\t*\t*\t0.5\na\t*\t*\t0.5\nOOV 0.5\n"
    )
    with pytest.raises(ModelFormatError, match=r"m\.txt:3: .*line 2"):
        load_model(path)


def test_model_file_not_utf8_rejected_with_line_number(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_bytes(b"pqgram-model v1 p=1 q=2 dim=2\n# loss 1.0\na\xff\t*\t*\t0.5\nOOV 0.5\n")
    with pytest.raises(ModelFormatError, match=r"m\.txt:3: not valid UTF-8 \(byte 0xff\)"):
        load_model(path)
    args = ["dist", "--algo", "wpq", "--model", str(path), "--t1", "a", "--t2", "b"]
    assert run(args) == 2
    assert "m.txt:3: not valid UTF-8" in capsys.readouterr().err


def save_direct(tuples, path):
    """Save the initial model of a vocabulary built directly from tuples,
    which accepts any label, not only the ones a tree accepts."""
    vocab = Vocabulary(GramShape(1, 1), tuples)
    save_model(TrainedModel(WeightModel(vocab, np.linspace(-1.0, 1.0, vocab.dim)), None), path)
    return vocab


@pytest.mark.parametrize(
    "tuples, bad",
    [
        ([("x", "y"), ("a\tb", "c")], ("a\tb", "c")),
        ([("a\nb", "c")], ("a\nb", "c")),
        ([("x", "y"), ("a\x85", "c")], ("a\x85", "c")),
        ([("x", "y"), ("a", "c\u2028")], ("a", "c\u2028")),
        ([("x", "y"), ("OOV 1.0", "c")], ("OOV 1.0", "c")),
    ],
    ids=["tab", "newline", "nel", "line-separator", "oov-keyword"],
)
def test_save_model_rejects_a_label_the_file_cannot_hold(tmp_path, tuples, bad):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        save_direct(tuples, path)
    assert not path.exists()


def test_save_model_rejects_a_lone_surrogate_before_writing(tmp_path):
    path = tmp_path / "m.txt"
    with pytest.raises(UnicodeEncodeError):
        save_direct([("x", "y"), ("a\ud800", "c")], path)
    assert not path.exists()


def test_save_model_round_trips_empty_hash_and_oov_like_labels(tmp_path):
    tuples = [("", "c"), ("#", ""), ("#x", "OOV 1.0"), ("OOV", "y"), (" OOV 1", "z"), ("", "")]
    path = tmp_path / "m.txt"
    vocab = save_direct(tuples, path)
    loaded = load_model(path)
    assert loaded.vocab.tuples == vocab.tuples
    assert loaded.model.w.tobytes() == np.linspace(-1.0, 1.0, vocab.dim).tobytes()


def test_save_model_golden_file(tmp_path):
    vocab = build_vocabulary([parse_tree("a(b,#c)")], S12)
    w = np.array([W_INIT, 0.1, -2.5, 1e-300, 3.0, 0.5])
    cfg = TrainConfig(
        k=2, mu1=4.5, mu2=6.0, beta=0.0, eta=0.001, epochs=7,
        impostor_refresh_every=3, subsample_cap=40, seed=11,
    )
    path = tmp_path / "m.txt"
    save_model(TrainedModel(WeightModel(vocab, w), cfg, [10.0, 0.1 + 0.2]), path)
    assert path.read_bytes() == (
        b"pqgram-model v1 p=1 q=2 dim=6\n"
        b"# config k=2 mu1=4.5 mu2=6.0 beta=0.0 eta=0.001 epochs=7 refresh=3 cap=40 seed=11\n"
        b"# loss 0.30000000000000004\n"
        b"a\t*\tb\t0.541324854612918\n"
        b"a\tb\t#c\t0.1\n"
        b"a\t#c\t*\t-2.5\n"
        b"b\t*\t*\t1e-300\n"
        b"#c\t*\t*\t3.0\n"
        b"OOV 0.5\n"
    )
    assert load_model(path).config == cfg
