"""Independent reference implementations used only to check the library.

Each oracle takes the slow, literal route: the gram oracle really builds
the dummy-padded tree and enumerates matching subtrees, the edit distance
oracles enumerate valid node mappings, and the loss oracle is a plain
Python transcription of the objective. None of them share code with the
implementations they check.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from pqgrams.tree import Tree

DUMMY = "*"


class _XNode:
    __slots__ = ("label", "children")

    def __init__(self, label):
        self.label = label
        self.children = []


def materialize_extended(tree: Tree, p: int, q: int) -> _XNode:
    """Literally build the dummy-padded tree: p-1 dummies above the root,
    q-1 on each flank of every original non-leaf's children, q below every
    original leaf."""

    def build(nid):
        node = _XNode(tree.nodes[nid].label)
        node.children = [build(c) for c in tree.nodes[nid].children]
        return node

    def pad(node):
        if not node.children:
            node.children = [_XNode(DUMMY) for _ in range(q)]
        else:
            for child in node.children:
                pad(child)
            flank = lambda: [_XNode(DUMMY) for _ in range(q - 1)]
            node.children = flank() + node.children + flank()

    root = build(tree.root)
    pad(root)
    top = root
    for _ in range(p - 1):
        d = _XNode(DUMMY)
        d.children = [top]
        top = d
    return top


def enumerate_grams(tree: Tree, p: int, q: int) -> Counter:
    """All stem-plus-base subtree patterns of the materialized extended
    tree: any node with at least p-1 ancestors anchors one gram per run of
    q consecutive children."""
    top = materialize_extended(tree, p, q)
    grams: Counter = Counter()

    def visit(node, ancestors):
        ch = node.children
        if len(ancestors) >= p - 1 and len(ch) >= q:
            stem = [a.label for a in ancestors[len(ancestors) - (p - 1) :]] if p > 1 else []
            stem.append(node.label)
            for i in range(len(ch) - q + 1):
                base = [c.label for c in ch[i : i + q]]
                grams[tuple(stem + base)] += 1
        for c in ch:
            visit(c, ancestors + [node])

    visit(top, [])
    return grams


def _preorder_relations(tree: Tree):
    """Preorder index and subtree size per node id, for relation queries."""
    pre: dict[int, int] = {}
    size: dict[int, int] = {}
    counter = 0

    def visit(nid):
        nonlocal counter
        pre[nid] = counter
        counter += 1
        s = 1
        for c in tree.nodes[nid].children:
            s += visit(c)
        size[nid] = s
        return s

    visit(tree.root)
    order = sorted(pre, key=pre.get)
    return order, pre, size


def _relation(pre, size, a, b):
    """One of 'anc', 'desc', 'left', 'right' for distinct nodes a, b."""
    if pre[a] < pre[b]:
        return "anc" if pre[b] < pre[a] + size[a] else "left"
    return "desc" if pre[a] < pre[b] + size[b] else "right"


def ted_exhaustive(t1: Tree, t2: Tree, insert=1.0, delete=1.0, relabel=None) -> float:
    """Minimum edit cost by enumerating every valid node mapping.

    A mapping is valid when it preserves ancestry and left-to-right order
    between every pair of mapped nodes; its cost is the relabels plus a
    delete per unmapped source node and an insert per unmapped target node.
    Exponential, fine for tiny trees.
    """
    if relabel is None:
        relabel = lambda a, b: 0.0 if a == b else 1.0
    order1, pre1, size1 = _preorder_relations(t1)
    order2, pre2, size2 = _preorder_relations(t2)
    n1, n2 = len(order1), len(order2)
    best = math.inf

    def rec(i, mapping, cost):
        nonlocal best
        if i == n1:
            total = cost + insert * (n2 - len(mapping))
            best = min(best, total)
            return
        a = order1[i]
        rec(i + 1, mapping, cost + delete)
        used = {b for _, b in mapping}
        for b in order2:
            if b in used:
                continue
            ok = all(
                _relation(pre1, size1, a0, a) == _relation(pre2, size2, b0, b)
                for a0, b0 in mapping
            )
            if ok:
                rec(
                    i + 1,
                    mapping + [(a, b)],
                    cost + relabel(t1.nodes[a].label, t2.nodes[b].label),
                )

    rec(0, [], 0.0)
    return best


class MappingOracle:
    """Edit distance as the cheapest valid mapping, each shape pair's
    mappings enumerated once.

    Which mappings are valid depends only on the two ordered shapes, with
    the same ancestry and sibling-order test as ``ted_exhaustive``; the
    labels only set each mapping's relabel cost. So each shape pair's
    mappings are kept as a 0/1 incidence matrix over (source, target) node
    pairs, and a labeled pair costs one matrix-vector product and a ``min``.
    The costs are summed in another order than ``ted_exhaustive`` sums them,
    so the two agree exactly for integer and dyadic costs.
    """

    def __init__(self, insert=1.0, delete=1.0, relabel=None):
        self.insert, self.delete = insert, delete
        self.relabel = relabel or (lambda a, b: 0.0 if a == b else 1.0)
        self._by_shapes: dict = {}

    def __call__(self, t1: Tree, t2: Tree) -> float:
        key = (t1.sizes, t2.sizes)  # preorder subtree sizes fix the shape
        if key not in self._by_shapes:
            self._by_shapes[key] = self._incidence(*key)
        incidence, base = self._by_shapes[key]
        relabel = self.relabel
        costs = np.array([relabel(a, b) for a in t1.labels for b in t2.labels], dtype=float)
        return float(np.min(base + incidence @ costs))

    def _incidence(self, sizes1, sizes2):
        """The valid mappings as incidence rows, and each one's delete and
        insert cost."""
        n1, n2 = len(sizes1), len(sizes2)
        pre1, pre2 = range(n1), range(n2)  # Tree numbers its nodes in preorder
        mappings: list[list[tuple[int, int]]] = []

        def rec(a, mapping):
            if a == n1:
                mappings.append(mapping)
                return
            rec(a + 1, mapping)
            used = {b for _, b in mapping}
            for b in range(n2):
                if b not in used and all(
                    _relation(pre1, sizes1, a0, a) == _relation(pre2, sizes2, b0, b)
                    for a0, b0 in mapping
                ):
                    rec(a + 1, mapping + [(a, b)])

        rec(0, [])
        incidence = np.zeros((len(mappings), n1 * n2))
        for row, mapping in zip(incidence, mappings):
            for a, b in mapping:
                row[a * n2 + b] = 1.0
        mapped = np.array([len(m) for m in mappings], dtype=float)
        return incidence, self.delete * (n1 - mapped) + self.insert * (n2 - mapped)


def naive_softplus(x: float) -> float:
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def naive_weighted_distance(model, x, y) -> float:
    """Dense straight-line transcription of the weighted distance."""
    dx, dy = x.dense(), y.dense()
    return sum(
        naive_softplus(float(model.w[i])) * abs(int(dx[i]) - int(dy[i]))
        for i in range(len(dx))
    )


def naive_loss(model, profiles, pairs, cfg) -> float:
    total = cfg.beta * sum(float(wi) * float(wi) for wi in model.w)
    for i, j in pairs.positives:
        d = naive_weighted_distance(model, profiles[i], profiles[j])
        total += max(0.0, d - cfg.mu1)
    for i, j in pairs.negatives:
        d = naive_weighted_distance(model, profiles[i], profiles[j])
        total += max(0.0, cfg.mu2 - d)
    return total
