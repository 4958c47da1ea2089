"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from pqgrams.cli import run as cli_run
from pqgrams.datasets import gen_strings, random_corpus, random_tree, save_tsv
from pqgrams.grams import (
    GramShape,
    Vocabulary,
    build_vocabulary,
    extract_grams,
    multiset_distance,
    profile,
    sym_diff,
)
from pqgrams.knn import (
    benchmark_inference,
    cross_validate,
    edit_distance_baseline,
    unweighted_gram_distance,
    weighted_gram_distance,
)
from pqgrams.lmnn import LabeledTree, PairSet, TrainConfig, build_targets, find_impostors
from pqgrams.lmnn import loss as pair_loss
from pqgrams.lmnn import loss_gradient, train
from pqgrams.metric import (
    W_INIT,
    WeightModel,
    distance_gradient,
    pq_distance,
    weighted_distance,
)
from pqgrams.ted import tree_edit_distance
from pqgrams.tree import parse_tree, tree_size

from conftest import random_tree_raw, tree_from_parents
from oracles import MappingOracle, enumerate_grams

S12 = GramShape(1, 2)
S22 = GramShape(2, 2)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c01_golden_example():
    t1, t2 = parse_tree("a(b,c)"), parse_tree("a(c,b)")
    g1, g2 = extract_grams(t1, S12), extract_grams(t2, S12)
    expected1 = {("a", "*", "b"), ("a", "b", "c"), ("a", "c", "*"),
                 ("b", "*", "*"), ("c", "*", "*")}
    expected2 = {("a", "*", "c"), ("a", "c", "b"), ("a", "b", "*"),
                 ("b", "*", "*"), ("c", "*", "*")}
    indexes_ok = (
        set(g1) == expected1
        and set(g2) == expected2
        and all(c == 1 for c in g1.values())
        and all(c == 1 for c in g2.values())
        and len(set(g1) & set(g2)) == 2
    )
    vocab = build_vocabulary([t1, t2], S12)
    dist = pq_distance(profile(t1, vocab), profile(t2, vocab))

    best = float("inf")
    for _ in range(50):
        start = time.perf_counter()
        v = build_vocabulary([t1, t2], S12)
        d = pq_distance(profile(t1, v), profile(t2, v))
        best = min(best, time.perf_counter() - start)
        assert d == 6
    _report(
        1,
        "golden example dist^{1,2}=6",
        indexes_ok and dist == 6 and best < 1e-3,
        f"dist={dist}, best runtime={best * 1e6:.0f}us",
    )


def test_c02_extraction_matches_bruteforce_oracle():
    rng = random.Random(202)
    mismatches = 0
    for _ in range(500):
        t = random_tree_raw(rng.randrange(1, 13), rng)
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                if extract_grams(t, GramShape(p, q)) != enumerate_grams(t, p, q):
                    mismatches += 1
    _report(2, "sliding-window extraction == extended-tree enumeration",
            mismatches == 0, f"mismatches={mismatches} over 500 trees x 9 shapes")


def test_c03_vector_distance_equals_multiset_formula():
    rng = random.Random(303)
    bad = 0
    for _ in range(200):
        t1 = random_tree_raw(rng.randrange(1, 13), rng)
        t2 = random_tree_raw(rng.randrange(1, 13), rng)
        vocab = build_vocabulary([t1, t2], S12)
        vec = sym_diff(profile(t1, vocab), profile(t2, vocab)).total()
        direct = multiset_distance(extract_grams(t1, S12), extract_grams(t2, S12))
        if vec != direct:
            bad += 1
    _report(3, "sum(sym_diff) == |I1 u I2| - 2|I1 n I2|", bad == 0,
            f"mismatches={bad} over 200 pairs")


def test_c04_pseudo_metric_suite():
    rng = random.Random(404)
    np_rng = np.random.default_rng(404)
    violations = 0
    for _ in range(1000):
        ts = [random_tree_raw(rng.randrange(1, 31), rng) for _ in range(3)]
        vocab = build_vocabulary(ts, S12)
        model = WeightModel(vocab, np_rng.uniform(-6.0, 6.0, vocab.dim))
        px, py, pz = (profile(t, vocab) for t in ts)
        dxy = weighted_distance(model, px, py)
        dyz = weighted_distance(model, py, pz)
        dxz = weighted_distance(model, px, pz)
        if dxy < 0 or dyz < 0 or dxz < 0:
            violations += 1
        if weighted_distance(model, px, px) != 0.0:
            violations += 1
        if dxy != weighted_distance(model, py, px):
            violations += 1
        if dxy + dyz < dxz - 1e-9:
            violations += 1
    _report(4, "pseudo-metric axioms on 1000 random triples", violations == 0,
            f"violations={violations}")


def _fd_distance_gradient(model, x, y, h=1e-5):
    g = np.zeros(model.dim)
    for i in range(model.dim):
        wp, wm = model.w.copy(), model.w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (
            weighted_distance(WeightModel(model.vocab, wp), x, y)
            - weighted_distance(WeightModel(model.vocab, wm), x, y)
        ) / (2 * h)
    return g


def test_c05_gradient_checks():
    rng = random.Random(505)
    np_rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        t1 = random_tree_raw(rng.randrange(2, 11), rng)
        t2 = random_tree_raw(rng.randrange(2, 11), rng)
        vocab = build_vocabulary([t1, t2], S12)
        model = WeightModel(vocab, np_rng.uniform(-3.0, 3.0, vocab.dim))
        x, y = profile(t1, vocab), profile(t2, vocab)
        analytic = distance_gradient(model, x, y)
        fd = _fd_distance_gradient(model, x, y)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
        worst = max(worst, float((np.abs(analytic - fd) / denom).max()))
    dist_ok = worst < 1e-5

    # loss gradient, rejecting draws near hinge kinks
    worst_loss = 0.0
    checked = 0
    while checked < 25:
        data = [
            LabeledTree(random_tree_raw(rng.randrange(2, 9), rng), i % 2)
            for i in range(8)
        ]
        vocab = build_vocabulary([item.tree for item in data], S12)
        profiles = [profile(item.tree, vocab) for item in data]
        labels = [item.label for item in data]
        model = WeightModel(vocab, np_rng.uniform(-2.0, 2.0, vocab.dim))
        cfg = TrainConfig(k=1, mu1=4.0, mu2=6.0, beta=1e-3)
        targets = build_targets(profiles, labels, model, 1)
        pairs = PairSet(targets, find_impostors(profiles, labels, model, targets, 1))
        dists = [
            weighted_distance(model, profiles[i], profiles[j])
            for i, j in pairs.positives + pairs.negatives
        ]
        if any(abs(d - cfg.mu1) < 1e-3 or abs(d - cfg.mu2) < 1e-3 for d in dists):
            continue
        analytic = loss_gradient(model, profiles, pairs, cfg)
        h = 1e-5
        fd = np.zeros(vocab.dim)
        for i in range(vocab.dim):
            wp, wm = model.w.copy(), model.w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (
                pair_loss(WeightModel(vocab, wp), profiles, pairs, cfg)
                - pair_loss(WeightModel(vocab, wm), profiles, pairs, cfg)
            ) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-10)
        worst_loss = max(worst_loss, float((np.abs(analytic - fd) / denom).max()))
        checked += 1
    loss_ok = worst_loss < 1e-5
    _report(5, "analytic gradients match central finite differences",
            dist_ok and loss_ok,
            f"worst rel err: distance={worst:.2e}, loss={worst_loss:.2e}")


def test_c06_initialization_equivalence():
    rng = random.Random(606)
    trees = [random_tree_raw(rng.randrange(1, 13), rng) for _ in range(50)]
    vocab = build_vocabulary(trees, S12)
    model = WeightModel.initial(vocab)
    profiles = [profile(t, vocab) for t in trees]
    worst = 0.0
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            wd = weighted_distance(model, profiles[i], profiles[j])
            ud = pq_distance(profiles[i], profiles[j])
            worst = max(worst, abs(wd - ud))
    weights_ok = worst <= 1e-9 and np.all(model.w == W_INIT)

    # the learned pipeline with zero epochs must reproduce the plain
    # pipeline's predictions exactly, fold by fold
    corpus = gen_strings(25, seed=66)
    plain = cross_validate(
        corpus.items,
        lambda tr: unweighted_gram_distance([it.tree for it in tr], S22),
        k=1, folds=5, seed=17,
    )
    cfg = TrainConfig(k=1, epochs=0, seed=17)
    learned0 = cross_validate(
        corpus.items,
        lambda tr: weighted_gram_distance(train(tr, S22, cfg)),
        k=1, folds=5, seed=17,
    )
    preds_ok = plain.predictions == learned0.predictions
    _report(6, "init weights reproduce the unweighted distance",
            weights_ok and preds_ok,
            f"max |weighted-unweighted|={worst:.1e}, predictions equal={preds_ok}")


def test_c07_learning_effect_on_strings():
    start = time.perf_counter()
    corpus = gen_strings(100, seed=42)
    cfg = TrainConfig(
        k=1, mu1=5.0, mu2=5.0, beta=1e-4, eta=1e-2,
        epochs=600, impostor_refresh_every=50, subsample_cap=200, seed=7,
    )
    unweighted = cross_validate(
        corpus.items,
        lambda tr: unweighted_gram_distance([it.tree for it in tr], S22),
        k=1, folds=5, seed=11,
    )
    weighted = cross_validate(
        corpus.items,
        lambda tr: weighted_gram_distance(train(tr, S22, cfg)),
        k=1, folds=5, seed=11,
    )
    trained = train(corpus.items, S22, cfg)
    elapsed = time.perf_counter() - start
    improvement_ok = weighted.mean_error <= unweighted.mean_error
    loss_ok = trained.final_loss < trained.initial_loss
    _report(
        7, "weighted distance learns on the strings corpus",
        improvement_ok and loss_ok and elapsed < 600,
        f"error {unweighted.mean_error:.3f} -> {weighted.mean_error:.3f}, "
        f"loss {trained.initial_loss:.1f} -> {trained.final_loss:.1f}, "
        f"{elapsed:.0f}s",
    )


def test_c08_speed_against_edit_distance():
    corpus = random_corpus(50, 40, 2, seed=99)
    train_items, test_trees = corpus.items[:35], [it.tree for it in corpus.items[35:]]
    trained = train(train_items, S22, TrainConfig(k=3, epochs=20, seed=1))
    wdist = weighted_gram_distance(trained)
    tdist = edit_distance_baseline()
    w_bench = benchmark_inference(train_items, test_trees, wdist, k=3, repeats=3)
    t_bench = benchmark_inference(train_items, test_trees, tdist, k=3, repeats=3)
    ratio = t_bench.mean_seconds / w_bench.mean_seconds
    ratio_ok = ratio >= 10.0

    # size-doubling probe on deeper random trees
    rng = random.Random(5)

    def probe(n_nodes):
        items = [
            LabeledTree(random_tree(n_nodes, rng, attach_window=4), i % 2)
            for i in range(8)
        ]
        tests = [random_tree(n_nodes, rng, attach_window=4) for _ in range(4)]
        vocab = Vocabulary.from_trees([it.tree for it in items], S22)
        return items, tests, weighted_gram_distance(WeightModel.initial(vocab))

    probes = {n: probe(n) for n in (40, 80)}
    # the repeats alternate between the two sizes, so that a slow spell of
    # the machine hits both sizes' minima alike
    tw: dict[int, list[float]] = {n: [] for n in probes}
    tt: dict[int, list[float]] = {n: [] for n in probes}
    for r in range(9):
        for n, (items, tests, wd) in probes.items():
            tw[n] += benchmark_inference(items, tests, wd, 2, repeats=1).runs
            if r < 3:
                ted = edit_distance_baseline()
                tt[n] += benchmark_inference(items, tests, ted, 2, repeats=1).runs
    ted_growth = min(tt[80]) / min(tt[40])
    pq_growth = min(tw[80]) / min(tw[40])
    growth_ok = ted_growth >= 4.0 and pq_growth <= 2.5
    _report(
        8, "weighted grams beat edit distance on speed",
        ratio_ok and growth_ok,
        f"inference ratio={ratio:.0f}x, ted growth={ted_growth:.1f}x, "
        f"pq growth={pq_growth:.2f}x",
    )


def _all_small_trees(max_nodes=5, labels=("a", "b")):
    """Every ordered tree with <= max_nodes nodes over the given labels."""
    shapes = {1: [[]]}
    for n in range(2, max_nodes + 1):
        shapes[n] = [par + [p] for par in shapes[n - 1] for p in range(n - 1)]
    # parent arrays overcount shapes; dedup on the label-free serialization
    distinct: dict[str, list[int]] = {}
    from pqgrams.tree import serialize_tree

    for n, plist in shapes.items():
        for parents in plist:
            key = serialize_tree(tree_from_parents(parents, ["x"] * n))
            distinct.setdefault(key, parents)
    out = []
    for parents in distinct.values():
        n = len(parents) + 1
        for labs in itertools.product(labels, repeat=n):
            out.append(tree_from_parents(parents, list(labs)))
    return out


def test_c09_edit_distance_oracle():
    trees = _all_small_trees()
    oracle = MappingOracle()
    bad = 0
    checked = 0
    for i, t1 in enumerate(trees):
        for t2 in trees[i:]:
            if tree_edit_distance(t1, t2) != oracle(t1, t2):
                bad += 1
            checked += 1
    sweep_ok = bad == 0

    rng = random.Random(909)
    axiom_violations = 0
    for _ in range(500):
        x = random_tree_raw(rng.randrange(1, 16), rng)
        y = random_tree_raw(rng.randrange(1, 16), rng)
        z = random_tree_raw(rng.randrange(1, 16), rng)
        dxy = tree_edit_distance(x, y)
        dyz = tree_edit_distance(y, z)
        dxz = tree_edit_distance(x, z)
        if dxy < 0 or tree_edit_distance(x, x) != 0.0:
            axiom_violations += 1
        if dxy != tree_edit_distance(y, x):
            axiom_violations += 1
        if dxy + dyz < dxz:
            axiom_violations += 1
    _report(
        9, "edit distance matches exhaustive mapping search",
        sweep_ok and axiom_violations == 0,
        f"{checked} pairs swept ({len(trees)} trees), mismatches={bad}, "
        f"axiom violations={axiom_violations}",
    )


def _mask_seconds(csv_text: str) -> str:
    """Blank the wall-clock column; it is physically non-reproducible."""
    out = []
    for line in csv_text.strip().splitlines():
        fields = line.split(",")
        if fields and fields[-1] != "seconds":
            fields[-1] = "-"
        out.append(",".join(fields))
    return "\n".join(out)


def test_c10_determinism_of_cli_artifacts(tmp_path):
    data_path = tmp_path / "strings.tsv"
    save_tsv(gen_strings(30, seed=12), data_path)

    m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    train_args = ["train", "--data", str(data_path), "-p", "2", "-q", "2",
                  "-k", "1", "--epochs", "60", "--seed", "9"]
    assert cli_run(train_args + ["--out", str(m1)]) == 0
    assert cli_run(train_args + ["--out", str(m2)]) == 0
    models_ok = m1.read_bytes() == m2.read_bytes()

    csvs = []
    for run_idx in (1, 2):
        for setting, extra in (("E1", []), ("E2", ["--epochs", "30"])):
            out = tmp_path / f"{setting}_{run_idx}.csv"
            code = cli_run(
                ["knn-eval", "--data", str(data_path), "--setting", setting,
                 "-k", "1", "--folds", "5", "--seed", "3", "--threads", "1",
                 "--csv", str(out), *extra]
            )
            assert code == 0
            csvs.append(out.read_text(encoding="utf-8"))
    e1_first, e2_first, e1_second, e2_second = csvs
    # byte-identical except the measured wall-clock column
    reports_ok = (
        _mask_seconds(e1_first) == _mask_seconds(e1_second)
        and _mask_seconds(e2_first) == _mask_seconds(e2_second)
    )
    _report(10, "fixed seeds give identical models and reports",
            models_ok and reports_ok,
            f"model bytes equal={models_ok}, csv (seconds masked) equal={reports_ok}")


def test_c11_strings_generator_statistics():
    import re

    corpus = gen_strings(100, seed=0)
    pattern = re.compile(r"^([AB][CD][AB]){3}$")

    def chain_string(tree):
        chars, nid = [], tree.root
        while True:
            chars.append(tree.label(nid))
            ch = tree.children(nid)
            if not ch:
                return "".join(chars)
            (nid,) = ch

    class1 = [chain_string(i.tree) for i in corpus.items if i.label == 0]
    class2 = [chain_string(i.tree) for i in corpus.items if i.label == 1]
    match_rate = sum(1 for s in class1 if pattern.match(s)) / len(class1)
    dad_rate = sum(1 for s in class1 if "DAD" in s) / len(class1)
    sizes_ok = len(corpus) == 200 and all(
        tree_size(i.tree) == 9 for i in corpus.items
    )
    alphabet_ok = all(set(s) <= set("ABCD") for s in class2)
    _report(11, "strings generator matches its specification",
            match_rate == 1.0 and dad_rate == 0.0 and sizes_ok and alphabet_ok,
            f"pattern match={match_rate:.0%}, DAD rate={dad_rate:.0%}, "
            f"200 trees of size 9={sizes_ok}")
