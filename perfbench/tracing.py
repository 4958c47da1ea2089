"""Outside-in timing spans around the public functions of ``pqgrams``.

The library is not edited. Installing a :class:`Tracer` rebinds each traced
function in every ``pqgrams`` module namespace that holds it (and replaces
traced methods on their classes), so calls made inside the library, such
as ``lmnn.find_impostors`` calling ``weighted_distance``, go through a
span. Uninstalling puts the original objects back.

Spans are aggregated as they close rather than stored one by one: per span
name the call count, inclusive seconds and self seconds (inclusive minus
the time covered by child spans), and per parent->child edge the call
count and inclusive seconds.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, span name); the span's layer is its module
TRACED = (
    ("datasets", "load_tsv", "datasets.load_tsv"),
    ("tree", "parse_tree", "tree.parse_tree"),
    ("grams", "extract_grams", "grams.extract_grams"),
    ("grams", "Vocabulary.from_trees", "grams.vocab"),
    ("grams", "profile", "grams.profile"),
    ("grams", "sym_diff", "grams.sym_diff"),
    ("metric", "weighted_distance", "metric.weighted_distance"),
    ("lmnn", "build_targets", "lmnn.build_targets"),
    ("lmnn", "find_impostors", "lmnn.find_impostors"),
    ("lmnn", "train", "lmnn.train"),
    ("lmnn", "save_model", "lmnn.save_model"),
    ("lmnn", "load_model", "lmnn.load_model"),
    ("knn", "TreeDistance.prepare", "knn.prepare"),
    ("knn", "TreeDistance.__call__", "knn.tree_distance"),
    ("knn", "knn_classify", "knn.knn_classify"),
    ("ted", "tree_edit_distance", "ted.tree_edit_distance"),
)

SPAN_NAMES = tuple(name for _, _, name in TRACED)

# spans whose result length is recorded per call (pair counts)
COUNT_RESULTS = frozenset({"lmnn.build_targets", "lmnn.find_impostors"})

ROOT = "<benchmark>"


class Tracer:
    def __init__(self):
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.results: dict[str, list[int]] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (the patches stay installed)."""
        self.stats.clear()
        self.edges.clear()
        self.results.clear()

    def wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        edges = self.edges
        results = self.results
        perf = time.perf_counter
        count_result = name in COUNT_RESULTS

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                key = (stack[-1][0] if stack else ROOT, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt
            if count_result:
                results.setdefault(name, []).append(len(result))
            return result

        return functools.wraps(fn)(traced)

    def install(self, package) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for modname, path, span in TRACED:
            owner = getattr(package, modname)
            *cls_path, attr = path.split(".")
            if cls_path:
                cls = getattr(owner, cls_path[0])
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__))
                else:
                    new = self.wrap(span, raw)
                self._patch(cls, attr, new)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        # a class keeps its raw attribute (e.g. the classmethod object)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Plain-data copy of what was recorded since the last reset."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": {f"{p} > {c}": list(v) for (p, c), v in self.edges.items()},
            "results": {k: list(v) for k, v in self.results.items()},
        }

