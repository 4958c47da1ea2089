import itertools
import random

import pytest

from pqgrams import ted
from pqgrams.datasets import random_tree
from pqgrams.ted import UNIT_COSTS, EditCostTable, tree_edit_distance
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


INF = float("inf")
ODD_COSTS = EditCostTable(insert=0.3, delete=0.7, relabel=lambda a, b: 0.0 if a == b else 0.45)


@pytest.fixture
def numpy_rows(monkeypatch):
    """Every off-path row of every pair with one runs as a numpy pass."""
    monkeypatch.setattr(ted, "_VECTOR_WIDTH", 0)


def bushy_pairs(seed, count, max_nodes):
    rng = random.Random(seed)
    for _ in range(count):
        # most trees of three or more nodes have a second child somewhere,
        # and with it off-path rows
        a = random_tree_raw(rng.randrange(3, max_nodes + 1), rng)
        b = random_tree_raw(rng.randrange(1, max_nodes + 1), rng)
        yield a, b


@pytest.mark.parametrize("insert, delete", [(1.0, 1.0), (0.25, 1.0), (1.0, INF)])
def test_numpy_rows_match_exhaustive(numpy_rows, insert, delete):
    costs = EditCostTable(insert=insert, delete=delete)
    for a, b in bushy_pairs(7, 150, 6):
        assert tree_edit_distance(a, b, costs) == ted_exhaustive(a, b, insert=insert, delete=delete)


def test_numpy_rows_forbid_inserts(numpy_rows):
    # the oracle itself turns inf * 0 into NaN under insert=inf, so check
    # the transposed pair, where the same mappings cost delete=inf
    costs = EditCostTable(insert=INF)
    for a, b in bushy_pairs(8, 150, 6):
        assert tree_edit_distance(a, b, costs) == ted_exhaustive(b, a, delete=INF)
    both = EditCostTable(insert=INF, delete=INF)
    a = random_tree(30, random.Random(9), attach_window=2)
    assert tree_edit_distance(a, a, both) == 0.0
    assert tree_edit_distance(a, mirror(a), both) == INF


@pytest.mark.parametrize("window", [None, 2, 4])
def test_numpy_rows_equal_scalar_rows_bit_for_bit(monkeypatch, window):
    rng = random.Random(10 + (window or 0))
    swap = EditCostTable(insert=1.0, delete=0.25)
    for _ in range(5):
        a = random_tree(rng.randrange(20, 81), rng, attach_window=window)
        b = random_tree(rng.randrange(20, 81), rng, attach_window=window)
        seen = []
        for width in (10**9, 0):
            monkeypatch.setattr(ted, "_VECTOR_WIDTH", width)
            for costs in (UNIT_COSTS, CHEAP_INSERT):
                d = tree_edit_distance(a, b, costs)
                assert d == tree_edit_distance(mirror(a), mirror(b), costs)
                seen.append(d)
            # swapping the trees swaps the roles of insert and delete
            assert tree_edit_distance(a, b, CHEAP_INSERT) == tree_edit_distance(b, a, swap)
            seen.append(tree_edit_distance(a, b, ODD_COSTS))
        assert seen[:2] == seen[3:5]
        # non-dyadic costs round differently in the scan, whose ramp and
        # segment offsets reach some 1e4 times the distances; gaps measured
        # up to 160 nodes stay under 4e-13
        assert seen[5] == pytest.approx(seen[2], rel=1e-9)


def test_offsets_past_2_to_the_53_run_the_scalar_rows(monkeypatch):
    # the distances stay exact integers, but segment offsets of some 2**55
    # would round away single inserts in the scan
    rng = random.Random(12)
    costs = EditCostTable(insert=1.0, delete=2.0**45)
    for _ in range(5):
        a = random_tree(rng.randrange(20, 41), rng, attach_window=4)
        b = random_tree(rng.randrange(20, 41), rng, attach_window=4)
        seen = []
        for width in (10**9, 0):
            monkeypatch.setattr(ted, "_VECTOR_WIDTH", width)
            seen.append(tree_edit_distance(a, b, costs))
        assert seen[0] == seen[1]


def test_pairs_without_off_path_rows_never_touch_numpy(monkeypatch):
    chain = parse_tree("a(b(c(d(e(f(g(h(i))))))))")
    pairs = [
        (chain, parse_tree("b(a(c(d(b(f(a(h(c))))))))")),
        # only the first tree's rows can be off-path: a chain against a bushy tree
        (chain, parse_tree("a(b,c(d,e),f(g,h,i))")),
    ]
    expected = [tree_edit_distance(a, b) for a, b in pairs]
    monkeypatch.setattr(ted, "_VECTOR_WIDTH", 0)
    monkeypatch.setattr(ted, "np", None)
    assert [tree_edit_distance(a, b) for a, b in pairs] == expected
