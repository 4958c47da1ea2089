"""Correctness checks of one benchmark run, each counted as an operation.

The checks recompute results through independent paths: held-out distances
from dense count vectors, predictions from the documented tie ladder, TED
symmetry and size bounds. Deterministic counters and digests are compared
between the cycles of a run and against earlier runs of the same code and
seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np

import pqgrams

DISTANCE_RTOL = 1e-9


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dense_counts(trees, vocab, dtype=np.float64) -> np.ndarray:
    """Gram count vectors over ``vocab``, with unseen tuples in the last slot."""
    index = {tup: i for i, tup in enumerate(vocab.tuples)}
    oov = len(vocab.tuples)
    out = np.zeros((len(trees), vocab.dim), dtype=dtype)
    for row, t in enumerate(trees):
        for tup, c in pqgrams.extract_grams(t, vocab.shape).items():
            out[row, index.get(tup, oov)] += c
    return out


def ladder(dists, ref_labels, k: int) -> int:
    """The documented k-NN vote: nearest k by (distance, index); tied votes
    go to the nearest neighbour's label, then to the smaller class id."""
    nearest = sorted(range(len(dists)), key=lambda i: (dists[i], i))[:k]
    votes = Counter(ref_labels[i] for i in nearest)
    top = max(votes.values())
    winners = [lab for lab, c in votes.items() if c == top]
    if len(winners) == 1:
        return winners[0]
    first = ref_labels[nearest[0]]
    return first if first in winners else min(winners)


def sample_indices(n: int, count: int) -> list[int]:
    """``count`` evenly spread indices of ``range(n)``, all of them if fewer."""
    if n <= count:
        return list(range(n))
    return sorted({round(i * (n - 1) / (count - 1)) for i in range(count)})


def check_knn(checks: Checks, fold, k: int, samples: int) -> None:
    """Held-out distances against dense vectors, and votes against the ladder."""
    vocab = fold.model.vocab
    refs = fold.refs.items
    ref_labels = [it.label for it in refs]
    weights = np.logaddexp(0.0, fold.model.model.w)  # softplus, computed apart
    ref_counts = dense_counts([it.tree for it in refs], vocab)
    for qi in sample_indices(len(fold.queries.items), samples):
        query = fold.queries.items[qi].tree
        (x,) = dense_counts([query], vocab)
        expected = np.abs(ref_counts - x) @ weights
        public = np.array([fold.dist(it.tree, query) for it in refs])
        checks.check(
            "dense distances",
            np.allclose(public, expected, rtol=DISTANCE_RTOL, atol=DISTANCE_RTOL),
            f"query {qi}: max abs diff {np.max(np.abs(public - expected)):.3g}",
        )
        want = ladder(public.tolist(), ref_labels, k)
        checks.check(
            "tie ladder",
            fold.predictions[qi] == want,
            f"query {qi}: knn_classify said {fold.predictions[qi]}, ladder says {want}",
        )


def unweighted_wrong(fold, k: int) -> int:
    """Held-out misses of the plain gram distance, from exact integer counts."""
    vocab = pqgrams.Vocabulary.from_trees([it.tree for it in fold.refs.items], fold.model.shape)
    refs = dense_counts([it.tree for it in fold.refs.items], vocab, np.int64)
    queries = dense_counts([it.tree for it in fold.queries.items], vocab, np.int64)
    ref_labels = [it.label for it in fold.refs.items]
    wrong = 0
    for x, item in zip(queries, fold.queries.items):
        pred = ladder(np.abs(refs - x).sum(axis=1).tolist(), ref_labels, k)
        wrong += fold.refs.label_names[pred] != fold.queries.label_names[item.label]
    return wrong


def check_model_round_trip(checks: Checks, fold) -> None:
    saved, loaded = fold.trained.model, fold.model.model
    checks.check(
        "save_model -> load_model",
        saved.vocab.tuples == loaded.vocab.tuples and saved.w.tobytes() == loaded.w.tobytes(),
        "weights or vocabulary differ after the round trip",
    )


def check_ted(checks: Checks, cycle, samples: int) -> None:
    """Symmetry and |n1-n2| <= d <= n1+n2 on the smallest pairs."""
    pairs = sorted(range(len(cycle.ted)), key=lambda i: (cycle.ted[i].size, i))[:samples]
    for i in pairs:
        rec = cycle.ted[i]
        n1, n2 = len(rec.t1), len(rec.t2)
        back = pqgrams.tree_edit_distance(rec.t2, rec.t1)
        checks.check("ted symmetric", back == rec.distance, f"pair {i}: {rec.distance} vs {back}")
        checks.check(
            "ted size bounds",
            abs(n1 - n2) <= rec.distance <= n1 + n2,
            f"pair {i}: d={rec.distance} for sizes {n1}, {n2}",
        )


def oov_share(folds) -> float:
    """Share of held-out gram mass that falls into the out-of-vocabulary slot."""
    oov = total = 0
    for fold in folds:
        vocab = fold.model.vocab
        for item in fold.queries.items:
            prof = pqgrams.profile(item.tree, vocab)
            oov += int(prof.counts[prof.indices == vocab.oov_id].sum())
            total += prof.total()
    return oov / total


def code_digest(root: Path) -> str:
    """Digest of the library and benchmark sources, standing in for a commit."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "pqgrams").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_record(checks: Checks, path: Path, record: dict) -> None:
    """Compare deterministic fields with an earlier run of the same code and
    seed, if one left a record, then store the union of both."""
    previous = {}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("code") != record["code"]:
            previous = {}
    if previous:
        differ = sorted(k for k in record.keys() & previous.keys() if record[k] != previous[k])
        checks.check("determinism across runs", not differ, f"fields differ: {differ}")
    merged = {**previous, **record}
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True, indent=1))
    os.replace(tmp, path)
