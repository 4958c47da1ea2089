import itertools
import random

import pytest

from pqgrams.datasets import random_tree
from pqgrams.ted import EditCostTable, tree_edit_distance
from pqgrams.tree import Node, Tree, parse_tree, tree_size

from conftest import random_tree_raw, tree_from_parents
from oracles import MappingOracle, ted_exhaustive

CHEAP_INSERT = EditCostTable(insert=0.25, delete=1.0)


def test_identical_trees():
    t = parse_tree("a(b(c),d)")
    assert tree_edit_distance(t, t) == 0.0


def test_single_relabel():
    assert tree_edit_distance(parse_tree("a"), parse_tree("b")) == 1.0


def test_swapped_children():
    assert tree_edit_distance(parse_tree("a(b,c)"), parse_tree("a(c,b)")) == 2.0


def test_insert_and_delete():
    assert tree_edit_distance(parse_tree("a"), parse_tree("a(b)")) == 1.0
    assert tree_edit_distance(parse_tree("a(b)"), parse_tree("a")) == 1.0
    assert tree_edit_distance(parse_tree("a(b(c))"), parse_tree("a")) == 2.0


def test_cost_table_validation():
    with pytest.raises(ValueError):
        EditCostTable(insert=-1.0)
    with pytest.raises(ValueError):
        EditCostTable(delete=-0.5)
    with pytest.raises(ValueError):
        EditCostTable(insert=float("nan"))
    with pytest.raises(ValueError):
        EditCostTable(delete=float("nan"))
    # an infinite cost forbids the operation
    assert tree_edit_distance(parse_tree("a"), parse_tree("b(a)"), EditCostTable(insert=float("inf"))) == float("inf")


def test_asymmetric_costs():
    assert tree_edit_distance(parse_tree("a"), parse_tree("a(b,c)"), CHEAP_INSERT) == 0.5
    assert tree_edit_distance(parse_tree("a(b,c)"), parse_tree("a"), CHEAP_INSERT) == 2.0


def all_trees_up_to(n_max, labels=("a", "b")):
    """Every tree shape with <= n_max nodes over the given labels."""
    shapes = {1: [[]]}  # parent arrays, node 0 is the root
    for n in range(2, n_max + 1):
        shapes[n] = [
            parents + [p]
            for parents in shapes[n - 1]
            for p in range(n - 1)
        ]
    out = []
    for n, plist in shapes.items():
        for parents in plist:
            for labs in itertools.product(labels, repeat=n):
                out.append(tree_from_parents(parents, list(labs)))
    return out


def test_matches_exhaustive_mapping_search_on_small_trees():
    # sampled pairs here; the acceptance suite sweeps all pairs up to 5 nodes
    trees = all_trees_up_to(3)
    rng = random.Random(0)
    pairs = [(rng.choice(trees), rng.choice(trees)) for _ in range(120)]
    for t1, t2 in pairs:
        assert tree_edit_distance(t1, t2) == ted_exhaustive(t1, t2)


def test_matches_exhaustive_on_random_four_node_trees():
    rng = random.Random(1)
    for _ in range(60):
        t1 = random_tree_raw(rng.randrange(1, 5), rng)
        t2 = random_tree_raw(rng.randrange(1, 5), rng)
        assert tree_edit_distance(t1, t2) == ted_exhaustive(t1, t2)


def test_metric_axioms_on_random_triples():
    rng = random.Random(2)
    for _ in range(100):
        x = random_tree_raw(rng.randrange(1, 16), rng)
        y = random_tree_raw(rng.randrange(1, 16), rng)
        z = random_tree_raw(rng.randrange(1, 16), rng)
        dxy = tree_edit_distance(x, y)
        dyx = tree_edit_distance(y, x)
        dyz = tree_edit_distance(y, z)
        dxz = tree_edit_distance(x, z)
        assert dxy >= 0.0
        assert tree_edit_distance(x, x) == 0.0
        assert dxy == dyx
        assert dxy + dyz >= dxz


def test_delete_all_insert_all_bound():
    rng = random.Random(3)
    for _ in range(50):
        t1 = random_tree_raw(rng.randrange(1, 16), rng)
        t2 = random_tree_raw(rng.randrange(1, 16), rng)
        assert tree_edit_distance(t1, t2) <= tree_size(t1) + tree_size(t2)


def mirror(t: Tree) -> Tree:
    """The tree with every node's children in reverse order."""
    return Tree([Node(n.label, n.children[::-1]) for n in t.nodes], t.root)


def decomposition_costs(t: Tree) -> tuple[int, int]:
    """Forest cells per tree of the left and the right keyroot decomposition:
    subtree sizes summed over the root and every child that is not the first
    (left) or not the last (right) of its parent."""
    size: dict[int, int] = {}

    def visit(nid):
        size[nid] = 1 + sum(visit(c) for c in t.children(nid))
        return size[nid]

    visit(t.root)
    kids = [t.children(nid) for nid in t.preorder()]
    left = size[t.root] + sum(size[c] for ch in kids for c in ch[1:])
    right = size[t.root] + sum(size[c] for ch in kids for c in ch[:-1])
    return left, right


def test_mirror_images_are_as_far_apart():
    # mirroring swaps which decomposition is cheaper, so each side of these
    # equalities runs on the other decomposition whenever one is cheaper
    rng = random.Random(4)
    for _ in range(300):
        a = random_tree_raw(rng.randrange(1, 17), rng)
        b = random_tree_raw(rng.randrange(1, 17), rng)
        for costs in (EditCostTable(), CHEAP_INSERT):
            assert tree_edit_distance(a, b, costs) == tree_edit_distance(mirror(a), mirror(b), costs)
    for _ in range(6):
        a = random_tree(40, rng, attach_window=4)
        b = random_tree(40, rng, attach_window=4)
        assert tree_edit_distance(a, b) == tree_edit_distance(mirror(a), mirror(b))


def test_right_decomposition_matches_exhaustive():
    rng = random.Random(5)
    checked = 0
    for _ in range(600):
        a = random_tree_raw(rng.randrange(1, 7), rng)
        b = random_tree_raw(rng.randrange(1, 7), rng)
        (l1, r1), (l2, r2) = decomposition_costs(a), decomposition_costs(b)
        if r1 * r2 < l1 * l2:
            assert tree_edit_distance(a, b) == ted_exhaustive(a, b)
            checked += 1
    assert checked >= 50


def test_mapping_oracle_matches_exhaustive():
    # the shape-pair oracle that c09 sweeps with
    unit, cheap = MappingOracle(), MappingOracle(insert=0.25, delete=1.0)
    rng = random.Random(6)
    for k in range(3000):
        a = random_tree_raw(rng.randrange(1, 6), rng)
        b = random_tree_raw(rng.randrange(1, 6), rng)
        assert unit(a, b) == ted_exhaustive(a, b)
        if k % 6 == 0:
            assert cheap(a, b) == ted_exhaustive(a, b, insert=0.25, delete=1.0)
