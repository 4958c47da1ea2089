"""One benchmark run: set-up, measured cycles, checks and metrics.

A cycle does what a user of ``pqgrams`` does, through the public API in one
process: ``pqgrams train`` (training TSV -> model file), k-NN over the
held-out queries one at a time with the loaded model, and TED against the
gram distance on the workload's fixed pairs. Cycles repeat while the next
one fits into the run's time budget; each timing metric is the median over
cycles. With tracing on, one untraced cycle is followed by cycles with spans
installed, and per-layer metrics replace the end-to-end ones.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pqgrams
import checks as chk
import tracing
from workloads import SHAPE, WORKLOADS, Workload

SETUP_REPEATS = 3
# On a shared machine the speed of the same code swings by tens of percent
# over seconds, and the share of fast spells changes from run to run while
# the slow spells stay alike. So k-NN throughput is read per step of
# KNN_BATCH queries and reported at its 10th percentile, TED throughput is
# read per pair (in dynamic-programming cells per second) and reported the
# same way, and the p95 latency is a median over batches of P95_BATCH
# queries (10 samples above the percentile in each batch).
KNN_BATCH = 25
P95_BATCH = 200
KNN_CHECK_QUERIES = 40
RATIO_PAIRS = 100
TED_CHECK_PAIRS = 8
TED_SIZES = (40, 80, 160)

# (name, unit, better, bound); the bound is the share of the parent's
# median by which a metric may worsen before a change is rejected
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("knn_qps", "1/s", "higher", 0.25),
    ("knn_p95_ms", "ms", "lower", 0.25),
    ("heldout_error", "share", "lower", 0.25),
    ("ted_pairs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for span in tracing.SPAN_NAMES:
        out += [(f"{span}_s", "s", "lower"), (f"{span}_self_s", "s", "lower"), (f"{span}_calls", "count", "lower")]
    out += [
        ("metric.weighted_distance_us", "us", "lower"),
        ("grams.vocab_dim", "count", "lower"),
        ("grams.oov_share", "share", "lower"),
        ("lmnn.targets", "count", "lower"),
        ("lmnn.impostors_first", "count", "lower"),
        ("lmnn.impostors_last", "count", "lower"),
        ("ted.gram_vs_ted_ratio", "ratio", "higher"),
    ]
    out += [(f"ted.tree_edit_distance_ms_n{n}", "ms", "lower") for n in TED_SIZES]
    out += [(f"ted.gram_vs_ted_ratio_n{n}", "ratio", "higher") for n in TED_SIZES]
    out += [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return out


@dataclass
class Files:
    train: Path
    heldout: Path
    model: Path

    @classmethod
    def under(cls, directory: Path, fold: int) -> "Files":
        return cls(directory / f"train-{fold}.tsv", directory / f"heldout-{fold}.tsv", directory / f"model-{fold}.txt")


@dataclass
class TedRecord:
    size: int
    t1: pqgrams.Tree
    t2: pqgrams.Tree
    distance: float
    ted_s: float
    gram_s: float | None

    @property
    def cells(self) -> int:
        """Dynamic-programming cells of the keyroot decomposition for this pair."""
        return keyroot_cells(self.t1) * keyroot_cells(self.t2)


def keyroot_cells(t: pqgrams.Tree) -> int:
    """Sum of subtree sizes over the keyroots (the root and every node that
    is not a first child): the per-tree factor of the classic keyroot TED's
    work, which depends on the shape alone."""
    size = [1] * len(t)
    for nid in reversed(list(t.preorder())):
        size[nid] += sum(size[c] for c in t.children(nid))
    keyroots = [t.root] + [c for nid in range(len(t)) for c in t.children(nid)[1:]]
    return sum(size[k] for k in keyroots)


class Fold:
    """Training and k-NN on one train/held-out split of a cycle."""

    def __init__(self, wl: Workload, sizes, seed: int, files: Files):
        self.wl, self.sizes, self.seed, self.files = wl, sizes, seed, files
        self.train_times: list[float] = []
        self.latencies: list[float] = []
        self.predictions: list[int] = []
        self.refs, self.trained = self.train()
        self.model_sha256 = chk.file_digest(files.model)
        self.model = pqgrams.load_model(files.model)
        self.queries = pqgrams.load_tsv(files.heldout)
        self.dist = pqgrams.weighted_gram_distance(self.model)
        t0 = time.perf_counter()
        self.dist.prepare([it.tree for it in self.refs.items])
        self.prepare_s = time.perf_counter() - t0  # k-NN time spent encoding references

    def train(self):
        """Training TSV on disk -> model file, as `pqgrams train` does it."""
        t0 = time.perf_counter()
        refs = pqgrams.load_tsv(self.files.train)
        if self.wl.train:
            trained = pqgrams.train(refs.items, SHAPE, self.wl.config(self.sizes, self.seed))
        else:
            vocab = pqgrams.Vocabulary.from_trees([it.tree for it in refs.items], SHAPE)
            trained = pqgrams.TrainedModel(pqgrams.WeightModel.initial(vocab), None)
        pqgrams.save_model(trained, self.files.model)
        self.train_times.append(time.perf_counter() - t0)
        return refs, trained

    def classify(self, lo: int, hi: int) -> None:
        """Held-out queries ``lo:hi``, one at a time, single-threaded; query
        encoding happens inside the timed call."""
        for item in self.queries.items[lo:hi]:
            t0 = time.perf_counter()
            self.predictions.append(pqgrams.knn_classify(self.refs.items, item.tree, self.dist, self.wl.k))
            self.latencies.append(time.perf_counter() - t0)

    def knn_steps(self) -> list:
        return [functools.partial(self.classify, lo, hi) for lo, hi in spans(len(self.queries.items), KNN_BATCH)]

    def wrong(self) -> int:
        names, truth = self.refs.label_names, self.queries.label_names
        return sum(names[p] != truth[item.label] for p, item in zip(self.predictions, self.queries.items))

    def batch_rates(self) -> list[float]:
        """Queries per second per k-NN step, each carrying its share of the
        reference encoding."""
        n = len(self.latencies)
        return [
            (hi - lo) / (sum(self.latencies[lo:hi]) + self.prepare_s * (hi - lo) / n)
            for lo, hi in spans(n, KNN_BATCH)
        ]


class TedRun:
    """TED on every pair; the gram distance (encoding included) on the first
    RATIO_PAIRS, which is all the gram-vs-TED ratio needs."""

    def __init__(self, model: pqgrams.TrainedModel, pairs):
        self.pairs = pairs
        self.gram = pqgrams.weighted_gram_distance(model)
        self.records: list[TedRecord | None] = [None] * len(pairs)

    def run(self, lo: int, hi: int) -> None:
        perf = time.perf_counter
        for i in range(lo, hi):
            size, a, b = self.pairs[i]
            t0 = perf()
            d = pqgrams.tree_edit_distance(a, b)
            ted_s = perf() - t0
            gram_s = None
            if i < RATIO_PAIRS:
                self.gram.clear_cache()
                t0 = perf()
                self.gram(a, b)
                gram_s = perf() - t0
            self.records[i] = TedRecord(size, a, b, d, ted_s, gram_s)


@dataclass
class Cycle:
    folds: list[Fold]
    ted: list[TedRecord]

    @property
    def train_s(self) -> float:
        return statistics.median(t for f in self.folds for t in f.train_times)

    @property
    def latencies(self) -> list[float]:
        return [x for f in self.folds for x in f.latencies]

    @property
    def knn_qps(self) -> float:
        """Sustained rate: the 10th percentile of the k-NN steps' rates."""
        rates = sorted(r for f in self.folds for r in f.batch_rates())
        return rates[(len(rates) - 1) // 10]

    @property
    def heldout_error(self) -> float:
        return sum(f.wrong() for f in self.folds) / len(self.latencies)

    def deterministic(self) -> dict:
        return {
            "model_sha256": chk.digest([f.model_sha256 for f in self.folds]),
            "predictions_sha256": chk.digest([f.predictions for f in self.folds]),
            "ted_sha256": chk.digest([r.distance for r in self.ted]),
        }


def setup(wl: Workload, sizes, seed: int, files: list[Files], src: Path):
    """Import in a fresh interpreter, generate the corpus, write the TSVs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import pqgrams", str(src)],
            check=True,
        )
        corpus = wl.make(seed, sizes)
        for (train, heldout), f in zip(corpus.folds, files):
            pqgrams.save_tsv(train, f.train)
            pqgrams.save_tsv(heldout, f.heldout)
        times.append(time.perf_counter() - t0)
    return corpus, statistics.median(times)


def spans(n: int, size: int) -> list[tuple[int, int]]:
    """``range(n)`` cut into slices of ``size``; a short tail joins the last."""
    cuts = list(range(0, n, size))
    if len(cuts) > 1 and n - cuts[-1] < size:
        cuts.pop()
    return list(zip(cuts, cuts[1:] + [n]))


def interleave(*streams: list) -> list:
    """Merge lists, each spread evenly over the result, order kept within each."""
    keyed = [((i + 0.5) / len(s), k, x) for k, s in enumerate(streams) for i, x in enumerate(s)]
    return [x for *_, x in sorted(keyed, key=lambda t: t[:2])]


def split(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """``range(lo, hi)`` cut into ``parts`` near-equal slices, empty ones dropped."""
    cuts = [lo + (hi - lo) * i // parts for i in range(parts + 1)]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def run_cycle(wl: Workload, sizes, seed: int, files: list[Files], ted_pairs) -> Cycle:
    """Per fold: train, then its k-NN steps interleaved with its share of the
    TED pairs and any further training repeats. The machine's speed drifts
    by tens of percent over seconds, so each metric is sampled across the
    whole cycle rather than in one block."""
    folds, ted = [], None
    n, n_folds = len(ted_pairs), len(files)
    for f, fold_files in enumerate(files):
        lo, hi = n * f // n_folds, n * (f + 1) // n_folds
        fold = Fold(wl, sizes, seed, fold_files)
        folds.append(fold)
        ted = ted or TedRun(fold.model, ted_pairs)
        knn_steps = fold.knn_steps()
        ted_steps = [functools.partial(ted.run, a, b) for a, b in split(lo, hi, len(knn_steps))]
        for step in interleave(knn_steps, ted_steps, [fold.train] * (wl.train_repeats - 1)):
            step()
    return Cycle(folds, ted.records)


def p95_ms(latencies: list[float]) -> float:
    """Median over batches of P95_BATCH of each batch's nearest-rank 95th
    percentile, in milliseconds."""
    def p95(values):
        ordered = sorted(values)
        return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]

    return statistics.median(p95(latencies[lo:hi]) for lo, hi in spans(len(latencies), P95_BATCH)) * 1e3


def ted_pairs_per_s(cycle: Cycle) -> float:
    """Pairs per second at the sustained cell rate: per tree size, the 10th
    percentile of the pairs' cells per second, applied to every pair."""
    seconds = 0.0
    for size in sorted({r.size for r in cycle.ted}):
        recs = [r for r in cycle.ted if r.size == size]
        rates = sorted(r.cells / r.ted_s for r in recs)
        seconds += sum(r.cells for r in recs) / rates[(len(rates) - 1) // 10]
    return len(cycle.ted) / seconds


def ted_seconds(cycle: Cycle, size: int | None = None) -> tuple[float, int]:
    recs = [r for r in cycle.ted if size is None or r.size == size]
    return sum(r.ted_s for r in recs), len(recs)


def gram_vs_ted(cycle: Cycle, size: int | None = None) -> float:
    recs = [r for r in cycle.ted if r.gram_s is not None and (size is None or r.size == size)]
    return sum(r.ted_s for r in recs) / sum(r.gram_s for r in recs) if recs else 0.0


def end_to_end(cycles: list[Cycle], setup_s: float, peak_rss_mb: float) -> dict:
    def med(f):
        return statistics.median(f(c) for c in cycles)

    return {
        "setup_s": setup_s,
        "train_s": med(lambda c: c.train_s),
        "knn_qps": med(lambda c: c.knn_qps),
        "knn_p95_ms": p95_ms([x for c in cycles for x in c.latencies]),
        "heldout_error": cycles[0].heldout_error,
        "ted_pairs_per_s": med(ted_pairs_per_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(cycles: list[Cycle], snapshots: list[dict], counters: dict, overhead_s: float) -> dict:
    """Per-layer metrics of the traced cycles, each a median over them."""

    def med(f):
        return statistics.median(f(c, s) for c, s in zip(cycles, snapshots))

    def stat(snap, span, field):
        st = snap["stats"].get(span)
        return st[field] if st else 0

    def ted_ms(c, size):
        ted_s, n = ted_seconds(c, size)
        return ted_s / n * 1e3 if n else 0.0

    out = {}
    for span in tracing.SPAN_NAMES:
        out[f"{span}_s"] = med(lambda c, s: stat(s, span, 1))
        out[f"{span}_self_s"] = med(lambda c, s: stat(s, span, 2))
        out[f"{span}_calls"] = med(lambda c, s: stat(s, span, 0))
    calls = out["metric.weighted_distance_calls"]
    out["metric.weighted_distance_us"] = out["metric.weighted_distance_s"] / calls * 1e6 if calls else 0.0
    for name in ("vocab_dim", "oov_share"):
        out[f"grams.{name}"] = counters[name]
    for name in ("targets", "impostors_first", "impostors_last"):
        out[f"lmnn.{name}"] = counters[name]
    out["ted.gram_vs_ted_ratio"] = med(lambda c, s: gram_vs_ted(c))
    for n in TED_SIZES:
        out[f"ted.tree_edit_distance_ms_n{n}"] = med(lambda c, s: ted_ms(c, n))
        out[f"ted.gram_vs_ted_ratio_n{n}"] = med(lambda c, s: gram_vs_ted(c, n))
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = med(lambda c, s: sum(st[0] for st in s["stats"].values()))
    return out


def measure(wl: Workload, sizes, seed: int, seconds: float, trace: bool, workdir: Path, src: Path):
    """Set up, then run cycles while the next one fits into ``seconds``.

    Traced runs start with one untraced cycle, the reference for the
    tracing overhead. Returns the cycles, their wall times, the span
    snapshots of the traced ones, the set-up time and the peak RSS (MB)
    after the first cycle.
    """
    files = [Files.under(workdir, f) for f in range(sizes.folds)]
    corpus, setup_s = setup(wl, sizes, seed, files, src)
    cycles, walls, snapshots = [], [], []
    peak_rss_mb = 0.0

    def cycle() -> None:
        nonlocal peak_rss_mb
        t0 = time.perf_counter()
        cycles.append(run_cycle(wl, sizes, seed, files, corpus.ted_pairs))
        walls.append(time.perf_counter() - t0)
        if len(cycles) == 1:
            # later cycles coexist with the first one's objects
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = tracing.Tracer()
    if trace:
        cycle()
        tracer.install(pqgrams)
    start = time.perf_counter()
    try:
        while True:
            cycle()
            snapshots.append(tracer.snapshot())
            tracer.reset()
            if time.perf_counter() - start + walls[-1] > seconds:
                break
    finally:
        tracer.uninstall()
    return cycles, walls, snapshots, setup_s, peak_rss_mb


def run(workload: str, seed: int, seconds: float, trace: bool, runs_dir: Path,
        root: Path, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return the result line and the detail record."""
    wl = WORKLOADS[workload]
    sizes = wl.tiny if tiny else wl.full
    runs_dir.mkdir(parents=True, exist_ok=True)
    checks = chk.Checks()
    with tempfile.TemporaryDirectory(dir=runs_dir) as tmp:
        cycles, walls, snapshots, setup_s, peak_rss_mb = measure(
            wl, sizes, seed, seconds, trace, Path(tmp), root / "src"
        )

    first = cycles[0]
    for fold in first.folds:
        chk.check_knn(checks, fold, wl.k, KNN_CHECK_QUERIES // len(first.folds))
    chk.check_ted(checks, first, TED_CHECK_PAIRS)
    for cycle in cycles:
        for fold in cycle.folds:
            chk.check_model_round_trip(checks, fold)
    for i, cycle in enumerate(cycles[1:], start=2):
        checks.check(
            "determinism across cycles",
            cycle.deterministic() == first.deterministic(),
            f"cycle {i} differs from cycle 1",
        )
    baseline = None
    if wl.beats_unweighted:
        baseline = sum(chk.unweighted_wrong(fold, wl.k) for fold in first.folds) / len(first.latencies)
        checks.check(
            "learned error <= unweighted error",
            first.heldout_error <= baseline,
            f"{first.heldout_error:.4f} > {baseline:.4f}",
        )

    counters = {
        "vocab_dim": first.folds[0].model.vocab.dim,
        "oov_share": chk.oov_share(first.folds),
        "heldout_error": first.heldout_error,
        **first.deterministic(),
    }
    if trace:
        results = snapshots[0]["results"]  # of the first traced cycle
        impostors = results.get("lmnn.find_impostors", [])
        counters |= {
            "targets": sum(results.get("lmnn.build_targets", [])),
            "impostors_first": impostors[0] if impostors else 0,
            "impostors_last": impostors[-1] if impostors else 0,
            "calls": {k: v[0] for k, v in sorted(snapshots[0]["stats"].items())},
        }
    record = {"code": chk.code_digest(root), **counters}
    scale = "tiny" if tiny else "full"
    chk.compare_record(checks, runs_dir / f"record-{workload}-{scale}-{seed}.json", record)

    if trace:
        overhead_s = statistics.median(walls[1:]) - walls[0]
        values = per_layer(cycles[1:], snapshots, counters, overhead_s)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        trace_path = runs_dir / f"trace-{workload}-{scale}-{seed}.json"
        trace_path.write_text(json.dumps(snapshots, indent=1))
    else:
        values = end_to_end(cycles, setup_s, peak_rss_mb)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    operations = sum(len(c.folds) + len(c.latencies) + len(c.ted) for c in cycles)
    result = {
        "correct": not checks.failures,
        "attempted": operations + checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cycles": len(cycles),
        "folds": len(first.folds),
        "queries_per_cycle": len(first.latencies),
        "ted_pairs_per_cycle": len(first.ted),
        "unweighted_heldout_error": baseline,
        "counters": record,
        "failures": checks.failures,
    }
    return result, detail
