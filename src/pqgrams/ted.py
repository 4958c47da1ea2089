"""Exact tree edit distance (insert / delete / relabel, ordered trees).

Classical keyroot decomposition over postorder-numbered nodes: every pair
of keyroots spawns one forest dynamic program, and subtree distances feed
larger subproblems. Postorder numbers, leftmost leaves and keyroots are
read off the tree's preorder label and subtree-size arrays in one pass.
Exact but cubic-class in the worst case, which is the point of using it as
the slow baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .tree import Tree


def unit_relabel(a: str, b: str) -> float:
    return 0.0 if a == b else 1.0


@dataclass(frozen=True)
class EditCostTable:
    """Node edit costs; relabel(a, a) must be 0 and all costs non-negative."""

    insert: float = 1.0
    delete: float = 1.0
    relabel: Callable[[str, str], float] = unit_relabel

    def __post_init__(self):
        if self.insert < 0 or self.delete < 0:
            raise ValueError("insert/delete costs must be non-negative")


UNIT_COSTS = EditCostTable()


def _annotate(t: Tree) -> tuple[list[str], list[int], list[int]]:
    """Postorder labels, leftmost-leaf index per node, and keyroots.

    Preorder node ``i`` at depth ``d`` has postorder number
    ``i - d + sizes[i] - 1`` and its leftmost leaf has ``i - d``. Keyroots,
    the highest nodes sharing a leftmost leaf, are the root and every node
    whose preorder predecessor is a leaf (it has a left sibling); forest
    distances only need to be seeded at keyroot pairs, in postorder.
    """
    sizes = t.sizes
    n = len(sizes)
    labels = [""] * n
    lml = [0] * n
    keyroots = [n - 1]
    ends: list[int] = []  # subtree ends of the ancestors, innermost last
    for i, size in enumerate(sizes):
        while ends and ends[-1] <= i:
            ends.pop()
        left = i - len(ends)
        post = left + size - 1
        labels[post] = t.labels[i]
        lml[post] = left
        if i and sizes[i - 1] == 1:
            keyroots.append(post)
        ends.append(i + size)
    keyroots.sort()
    return labels, lml, keyroots


def tree_edit_distance(
    t1: Tree, t2: Tree, costs: EditCostTable = UNIT_COSTS
) -> float:
    """Minimum total cost of an edit script turning ``t1`` into ``t2``."""
    labels1, lml1, kr1 = _annotate(t1)
    labels2, lml2, kr2 = _annotate(t2)
    n1, n2 = len(labels1), len(labels2)
    cdel, cins, crel = costs.delete, costs.insert, costs.relabel

    treedist = [[0.0] * n2 for _ in range(n1)]

    for i in kr1:
        li = lml1[i]
        ioff = li - 1
        m = i - li + 2
        for j in kr2:
            lj = lml2[j]
            joff = lj - 1
            n = j - lj + 2

            fd = [[0.0] * n for _ in range(m)]
            for x in range(1, m):
                fd[x][0] = fd[x - 1][0] + cdel
            row0 = fd[0]
            for y in range(1, n):
                row0[y] = row0[y - 1] + cins
            for x in range(1, m):
                row = fd[x]
                prev = fd[x - 1]
                lml1_x = lml1[x + ioff]
                lab1 = labels1[x + ioff]
                td_row = treedist[x + ioff]
                for y in range(1, n):
                    if li == lml1_x and lj == lml2[y + joff]:
                        # both prefixes end in whole subtrees rooted on the
                        # keyroot paths: this cell is itself a tree distance
                        d = min(
                            prev[y] + cdel,
                            row[y - 1] + cins,
                            prev[y - 1] + crel(lab1, labels2[y + joff]),
                        )
                        row[y] = d
                        td_row[y + joff] = d
                    else:
                        px = lml1_x - 1 - ioff
                        py = lml2[y + joff] - 1 - joff
                        row[y] = min(
                            prev[y] + cdel,
                            row[y - 1] + cins,
                            fd[px][py] + td_row[y + joff],
                        )
    return treedist[n1 - 1][n2 - 1]
