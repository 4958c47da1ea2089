"""Command-line entry point.

Subcommands: gen-strings, grams, dist, train, knn-eval, bench, inspect.
Exit codes: 0 success, 1 usage error, 2 data/parse error.

The strings experiment, plain vs learned weights, then the learned grams:
  pqgrams gen-strings --n 100 --seed 42 --out s.tsv
  pqgrams knn-eval --data s.tsv --setting E1 -k 1 --seed 42
  pqgrams knn-eval --data s.tsv --setting E2 -k 1 --seed 42
  pqgrams train --data s.tsv -k 1 --seed 42 --out m.txt
  pqgrams inspect --model m.txt --data s.tsv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .datasets import gen_strings, load_tsv, save_tsv
from .grams import GramShape, extract_grams, profile
from .knn import (
    TreeDistance,
    benchmark_inference,
    cross_validate,
    edit_distance_baseline,
    stratified_folds,
    unweighted_gram_distance,
    weighted_gram_distance,
)
from .lmnn import CONFIG_KEYS, TrainConfig, TrainedModel, load_model, save_model, train
from .tree import parse_tree


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_shape_flags(p: argparse.ArgumentParser):
    p.add_argument("-p", type=int, default=2, help="stem length (default %(default)s)")
    p.add_argument("-q", type=int, default=2, help="base width (default %(default)s)")


def _add_train_flags(p: argparse.ArgumentParser):
    c = TrainConfig
    p.add_argument("-k", type=int, default=c.k, help="neighbor count (default %(default)s)")
    p.add_argument("--mu1", type=float, default=c.mu1, help="positive-pair margin")
    p.add_argument("--mu2", type=float, default=c.mu2, help="negative-pair margin")
    p.add_argument("--beta", type=float, default=c.beta, help="L2 coefficient")
    p.add_argument("--eta", type=float, default=c.eta, help="Adam step size")
    p.add_argument("--epochs", type=int, default=c.epochs, help="training epochs")
    p.add_argument(
        "--refresh", type=int, default=c.impostor_refresh_every, help="impostor refresh period"
    )
    p.add_argument("--cap", type=int, default=c.subsample_cap, help="training subsample cap")
    p.add_argument("--seed", type=int, default=c.seed, help="random seed")


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(**{name: getattr(args, key) for name, key in CONFIG_KEYS.items()})


_THREADS_HELP = "accepted but has no effect: queries are classified serially"


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pqgrams", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen-strings", help="generate the two-class strings corpus")
    p_gen.add_argument("--n", type=int, default=100, help="strings per class")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output TSV path")
    p_gen.set_defaults(func=_cmd_gen_strings)

    p_grams = sub.add_parser("grams", help="print a tree's gram tuples with counts")
    p_grams.add_argument("--tree", required=True, help="tree in bracket notation")
    _add_shape_flags(p_grams)
    p_grams.set_defaults(func=_cmd_grams)

    p_dist = sub.add_parser("dist", help="distance between two trees")
    p_dist.add_argument("--algo", required=True, choices=["pq", "wpq", "ted"])
    p_dist.add_argument("--model", help="model file (wpq only)")
    p_dist.add_argument("--t1", required=True, help="first tree")
    p_dist.add_argument("--t2", required=True, help="second tree")
    _add_shape_flags(p_dist)
    p_dist.set_defaults(func=_cmd_dist)

    p_train = sub.add_parser("train", help="learn gram weights from a TSV corpus")
    p_train.add_argument("--data", required=True, help="TSV corpus path")
    _add_shape_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--out", required=True, help="output model path")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("knn-eval", help="cross-validated k-NN error rates")
    p_eval.add_argument("--data", required=True, help="TSV corpus path")
    p_eval.add_argument(
        "--setting",
        required=True,
        choices=["E1", "E2"],
        help="E1: unweighted gram distance; E2: learned weighted distance",
    )
    p_eval.add_argument("--folds", type=int, default=5)
    p_eval.add_argument("--csv", help="write per-fold results as CSV")
    p_eval.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    _add_shape_flags(p_eval)
    _add_train_flags(p_eval)
    p_eval.set_defaults(func=_cmd_knn_eval)

    p_bench = sub.add_parser("bench", help="time full k-NN inference per distance")
    p_bench.add_argument("--data", required=True, help="TSV corpus path")
    p_bench.add_argument("--algos", default="pq,ted", help="comma list of pq,wpq,ted")
    p_bench.add_argument("-k", type=int, default=3)
    p_bench.add_argument("--model", help="model file (wpq only)")
    p_bench.add_argument("--seed", type=int, default=0, help="train/test split seed")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    _add_shape_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_inspect = sub.add_parser("inspect", help="top-weighted grams with per-class counts")
    p_inspect.add_argument("--model", required=True, help="model file")
    p_inspect.add_argument("--data", required=True, help="TSV corpus path")
    p_inspect.add_argument("--top", type=int, default=10, help="grams listed")
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


def _cmd_gen_strings(args) -> int:
    corpus = gen_strings(args.n, args.seed)
    save_tsv(corpus, args.out)
    print(f"wrote {len(corpus)} trees to {args.out}")
    return 0


def _cmd_grams(args) -> int:
    t = parse_tree(args.tree)
    shape = GramShape(args.p, args.q)
    for tup, count in extract_grams(t, shape).items():
        print("\t".join(tup) + f"\t{count}")
    return 0


def _check_model_flag(uses_wpq: bool, model: str | None) -> None:
    if uses_wpq != bool(model):
        raise UsageError("--model is required with wpq and applies only to wpq")


def _load_model_of_shape(path: str, shape: GramShape) -> TrainedModel:
    """The model in ``path``, which must have been trained at ``shape``."""
    trained = load_model(path)
    have = trained.vocab.shape
    if have != shape:
        raise ValueError(
            f"{path}: model has p={have.p}, q={have.q}, "
            f"but -p {shape.p} -q {shape.q} was given"
        )
    return trained


def _distance(algo: str, args, train_trees, trained: TrainedModel | None) -> TreeDistance:
    """The distance ``algo`` names: pq over a vocabulary of ``train_trees`` at
    ``args``' shape, wpq of ``trained``, or the edit distance."""
    if algo == "pq":
        return unweighted_gram_distance(train_trees, GramShape(args.p, args.q))
    if algo == "wpq":
        return weighted_gram_distance(trained)
    return edit_distance_baseline()


def _cmd_dist(args) -> int:
    _check_model_flag(args.algo == "wpq", args.model)
    t1 = parse_tree(args.t1)
    t2 = parse_tree(args.t2)
    trained = _load_model_of_shape(args.model, GramShape(args.p, args.q)) if args.model else None
    # integer-exact at the initial weights, so pq prints the plain gram count
    d = _distance(args.algo, args, [t1, t2], trained)(t1, t2)
    print(int(d) if args.algo == "pq" else f"{d:.6f}")
    return 0


def _cmd_train(args) -> int:
    corpus = load_tsv(args.data)
    shape = GramShape(args.p, args.q)
    cfg = _config_from_args(args)
    trained = train(corpus.items, shape, cfg)
    save_model(trained, args.out)
    print(
        f"trained on {len(corpus)} trees ({len(corpus.label_names)} classes), "
        f"{trained.vocab.dim} weights"
    )
    trace = trained.loss_trace
    n = len(trace)
    marks = dict.fromkeys([0, n // 4, n // 2, 3 * n // 4, n - 1])
    print("loss: " + " -> ".join(f"{trace[e]:.6f} (epoch {e})" for e in marks))
    print(f"model written to {args.out}")
    return 0


def _cmd_knn_eval(args) -> int:
    corpus = load_tsv(args.data)
    shape = GramShape(args.p, args.q)
    algo = {"E1": "pq", "E2": "wpq"}[args.setting]
    cfg = _config_from_args(args) if algo == "wpq" else None

    def builder(train_items):
        trained = train(train_items, shape, cfg) if cfg else None
        return _distance(algo, args, [it.tree for it in train_items], trained)

    report = cross_validate(
        corpus.items, builder, args.k, folds=args.folds, seed=args.seed
    )
    print(f"dataset: {args.data} ({len(corpus)} trees)  setting: {args.setting}")
    print(report.render_table())
    if args.csv:
        dataset = Path(args.data).stem
        rows = ["dataset,setting,fold,error,seconds"]
        rows += report.csv_rows(dataset, args.setting)
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"csv written to {args.csv}")
    return 0


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    bad = [a for a in algos if a not in ("pq", "wpq", "ted")]
    if bad or not algos:
        raise UsageError(f"unknown algo(s): {','.join(bad)}" if bad else "--algos names no algorithm")
    _check_model_flag("wpq" in algos, args.model)
    shape = GramShape(args.p, args.q)
    trained = _load_model_of_shape(args.model, shape) if args.model else None
    corpus = load_tsv(args.data)
    held_out = set(stratified_folds([it.label for it in corpus.items], 5, args.seed)[0])
    train_items = [it for i, it in enumerate(corpus.items) if i not in held_out]
    test_trees = [corpus.items[i].tree for i in sorted(held_out)]
    train_trees = [it.tree for it in train_items]
    print(
        f"bench: {len(train_items)} train / {len(test_trees)} test, "
        f"k={args.k}, repeats={args.repeats}"
    )
    for algo in algos:
        dist = _distance(algo, args, train_trees, trained)
        print(benchmark_inference(train_items, test_trees, dist, args.k, repeats=args.repeats))
    return 0


def _cmd_inspect(args) -> int:
    if args.top < 1:
        raise UsageError("--top must be at least 1")
    trained = load_model(args.model)
    corpus = load_tsv(args.data)
    vocab = trained.vocab
    eff = trained.model.effective_weights()
    names = corpus.label_names
    counts = np.zeros((vocab.dim, len(names)), dtype=np.int64)
    for item in corpus.items:
        p = profile(item.tree, vocab)
        counts[p.indices, item.label] += p.counts
    print("weight    gram" + " " * 26 + "  ".join(f"{name:>10}" for name in names))
    for i in np.argsort(-eff[: len(vocab)])[: args.top]:
        gram = "(" + ",".join(vocab.tuples[i]) + ")"
        row = "  ".join(f"{c:>10}" for c in counts[i])
        print(f"{eff[i]:<8.4f}  {gram:<30}{row}")
    return 0


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except UsageError as e:
        print(f"pqgrams: error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"pqgrams: error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
