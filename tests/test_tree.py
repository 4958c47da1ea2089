import copy
import pickle

import pytest
from hypothesis import given

from pqgrams.tree import Node, Tree, TreeParseError, parse_tree, serialize_tree, tree_size

from conftest import trees


def test_parse_two_children():
    t = parse_tree("a(b,c)")
    assert t.label(t.root) == "a"
    assert [t.label(c) for c in t.children(t.root)] == ["b", "c"]
    assert tree_size(t) == 3


def test_parse_single_node():
    t = parse_tree("a")
    assert tree_size(t) == 1
    assert t.children(t.root) == ()


def test_parse_nested():
    t = parse_tree("a(b(d),c)")
    root = t.root
    b, c = t.children(root)
    assert t.label(b) == "b" and t.label(c) == "c"
    (d,) = t.children(b)
    assert t.label(d) == "d"


def test_parse_ignores_whitespace():
    assert parse_tree(" a ( b , c ) ") == parse_tree("a(b,c)")


def test_serialize_examples():
    assert serialize_tree(parse_tree("a")) == "a"
    assert serialize_tree(parse_tree("a(b,c)")) == "a(b,c)"
    assert serialize_tree(parse_tree("a(b)")) == "a(b)"


def test_child_order_significant():
    assert serialize_tree(parse_tree("a(b,c)")) != serialize_tree(parse_tree("a(c,b)"))
    assert parse_tree("a(b,c)") != parse_tree("a(c,b)")


def test_tree_size_chain():
    t = parse_tree("A(B(C(D(E(F(G(H(I))))))))")
    assert tree_size(t) == 9


@pytest.mark.parametrize(
    "text,fragment,pos",
    [
        ("a(b,c", "unbalanced", 5),
        ("a(b))", "unbalanced", 4),
        ("a)b", "unbalanced", 1),
        ("(a)", "expected a label", 0),
        ("a(,b)", "expected a label", 2),
        ("a(b,)", "expected a label", 4),
        ("", "expected a label", 0),
        ("*", "reserved", 0),
        ("a(*,b)", "reserved", 2),
        ("a b", "trailing garbage", 2),
        ("a,b", "trailing garbage", 1),
        ("a(b c)", "expected ',' or ')'", 4),
        ("a(b)(c)", "trailing garbage", 4),
        ("a(b(c)(d))", "expected ',' or ')'", 6),
        ("a(b,\udcff)", "UTF-8", 4),
    ],
)
def test_parse_errors(text, fragment, pos):
    with pytest.raises(TreeParseError) as err:
        parse_tree(text)
    assert fragment in str(err.value)
    assert err.value.position == pos


def test_multibyte_labels_allowed():
    t = parse_tree("α(β,γ2)")
    assert serialize_tree(t) == "α(β,γ2)"


def test_construction_rejects_bad_labels():
    with pytest.raises(ValueError):
        Tree([Node("")])
    with pytest.raises(ValueError):
        Tree([Node("*")])
    with pytest.raises(ValueError):
        Tree([Node("a b")])


def test_construction_rejects_bad_structure():
    # node 1 with two parents
    with pytest.raises(ValueError, match="more than one parent"):
        Tree([Node("a", (1, 1)), Node("b")])
    # unreachable node
    with pytest.raises(ValueError, match="not connected"):
        Tree([Node("a"), Node("b")])
    # root as a child
    with pytest.raises(ValueError, match="root"):
        Tree([Node("a", (0,))])
    with pytest.raises(ValueError, match="at least one node"):
        Tree([])
    with pytest.raises(ValueError, match="root id 2 out of range"):
        Tree([Node("a", (1,)), Node("b")], root=2)
    with pytest.raises(ValueError, match="root id -1 out of range"):
        Tree([Node("a")], root=-1)
    with pytest.raises(ValueError, match="child id 2 out of range"):
        Tree([Node("a", (1, 2)), Node("b")])
    with pytest.raises(ValueError, match="child id -1 out of range"):
        Tree([Node("a", (-1,)), Node("b")])


def test_tree_attributes_cannot_be_assigned():
    t = parse_tree("a(b)")
    for name in ("labels", "sizes", "root", "other"):
        with pytest.raises(AttributeError, match="Tree is immutable"):
            setattr(t, name, None)
    assert serialize_tree(t) == "a(b)"


def test_structural_equality_ignores_node_numbering():
    left = Tree([Node("a", (1, 2)), Node("b"), Node("c")], root=0)
    right = Tree([Node("c"), Node("a", (2, 0)), Node("b")], root=1)
    assert left == right
    assert hash(left) == hash(right)


@given(trees(max_nodes=12), trees(max_nodes=12))
def test_identity_is_structure(a, b):
    assert (a == b) == (serialize_tree(a) == serialize_tree(b))
    if a == b:
        assert hash(a) == hash(b)
    for t in (a, b):
        assert Tree(t.nodes) == t
        assert list(t.preorder()) == list(range(len(t)))


@given(trees(max_nodes=20))
def test_roundtrip(t):
    assert parse_tree(serialize_tree(t)) == t


@given(trees(max_nodes=20))
def test_serialize_is_whitespace_free_normal_form(t):
    s = serialize_tree(t)
    assert s == serialize_tree(parse_tree(" " + s.replace(",", " , ") + " "))


@given(trees())
def test_copy_and_pickle_round_trip(t):
    for u in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert u == t and hash(u) == hash(t)
