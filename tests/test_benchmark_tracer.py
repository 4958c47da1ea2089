"""The benchmark's tracer still finds every function it times.

``perfbench/tracing.py`` rebinds library functions by module and name; a
rename or a call that bypasses a module global would silently leave its span
at zero calls. This runs a tiny pipeline under the tracer and checks that
every span recorded at least one call.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pqgrams
from pqgrams import datasets, grams, knn, lmnn, metric, ted

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_called(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    originals = (datasets.load_tsv, knn.TreeDistance.__dict__["prepare"])
    tracer.install(pqgrams)
    try:
        # module attributes are looked up after install, so they are the spans
        datasets.save_tsv(datasets.gen_strings(4, seed=1), tmp_path / "c.tsv")
        corpus = datasets.load_tsv(tmp_path / "c.tsv")
        shape = grams.GramShape(2, 2)
        cfg = lmnn.TrainConfig(k=1, epochs=2, impostor_refresh_every=1)
        lmnn.save_model(lmnn.train(corpus.items, shape, cfg), tmp_path / "m.txt")
        dist = knn.weighted_gram_distance(lmnn.load_model(tmp_path / "m.txt"))
        trees = [item.tree for item in corpus.items]
        dist.prepare(trees)
        knn.knn_classify(corpus.items[1:], trees[0], dist, 1)
        dist(trees[0], trees[1])
        vocab = grams.Vocabulary.from_trees(trees, shape)
        ted.tree_edit_distance(trees[0], trees[1])
        grams.sym_diff(grams.profile(trees[0], vocab), grams.profile(trees[1], vocab))
    finally:
        tracer.uninstall()
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    assert [name for name in tracing.SPAN_NAMES if calls.get(name, 0) < 1] == []
    assert (datasets.load_tsv, knn.TreeDistance.__dict__["prepare"]) == originals


def test_tracer_counts_the_training_pair_searches():
    tracing = load_tracing()
    data = datasets.gen_strings(8, seed=2).items
    shape = grams.GramShape(2, 2)
    cfg = lmnn.TrainConfig(k=1, epochs=5, impostor_refresh_every=2)
    tracer = tracing.Tracer()
    tracer.install(pqgrams)
    try:
        traced = lmnn.train(data, shape, cfg)
    finally:
        tracer.uninstall()
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    assert (calls["lmnn.build_targets"], calls["lmnn.find_impostors"]) == (1, 3)

    # the same searches, untraced: impostors are refreshed before epochs 1, 3
    # and 5, at the weights a run of 0, 2 and 4 epochs ends with
    vocab, profiles, labels = lmnn.encode_dataset(data, shape)
    targets = lmnn.build_targets(profiles, labels, metric.WeightModel.initial(vocab), cfg.k)
    models = [lmnn.train(data, shape, replace(cfg, epochs=e)).model for e in (0, 2, 4)]
    impostors = [lmnn.find_impostors(profiles, labels, m, targets, cfg.k) for m in models]
    assert tracer.results == {
        "lmnn.build_targets": [len(targets)],
        "lmnn.find_impostors": [len(pairs) for pairs in impostors],
    }
    assert traced.model.w.tobytes() == lmnn.train(data, shape, cfg).model.w.tobytes()
