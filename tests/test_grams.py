import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqgrams.grams import (
    GramShape,
    Vocabulary,
    build_vocabulary,
    encode_trees,
    extract_grams,
    gram_count,
    multiset_distance,
    profile,
    sym_diff,
)
from pqgrams.tree import parse_tree

from conftest import random_tree_raw, trees
from oracles import enumerate_grams

S12 = GramShape(1, 2)


def grams_of(text, p, q):
    return extract_grams(parse_tree(text), GramShape(p, q))


def test_extract_golden_pair():
    expected = {
        ("a", "*", "b"): 1,
        ("a", "b", "c"): 1,
        ("a", "c", "*"): 1,
        ("b", "*", "*"): 1,
        ("c", "*", "*"): 1,
    }
    assert dict(grams_of("a(b,c)", 1, 2)) == expected


def test_extract_single_leaf():
    assert dict(grams_of("a", 1, 1)) == {("a", "*"): 1}


def test_extract_stem_above_root():
    assert dict(grams_of("a(b)", 2, 2)) == {
        ("*", "a", "*", "b"): 1,
        ("*", "a", "b", "*"): 1,
        ("a", "b", "*", "*"): 1,
    }


def test_shape_validation():
    with pytest.raises(ValueError):
        GramShape(0, 2)
    with pytest.raises(ValueError):
        GramShape(2, 0)


def test_gram_count_examples():
    assert gram_count(parse_tree("a(b,c)"), S12) == 5
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            assert gram_count(parse_tree("a"), GramShape(p, q)) == 1
    chain9 = parse_tree("A(B(C(D(E(F(G(H(I))))))))")
    assert gram_count(chain9, GramShape(2, 2)) == 17


@given(trees(), st.integers(1, 3), st.integers(1, 3))
def test_extraction_matches_extended_tree_enumeration(t, p, q):
    grams = extract_grams(t, GramShape(p, q))
    # order too: vocabularies number tuples by first occurrence
    assert list(grams.items()) == list(enumerate_grams(t, p, q).items())


@given(trees(max_nodes=20), st.integers(1, 3), st.integers(1, 3))
def test_gram_count_matches_extraction(t, p, q):
    shape = GramShape(p, q)
    assert gram_count(t, shape) == sum(extract_grams(t, shape).values())


@given(trees(max_nodes=20), st.integers(1, 3), st.integers(1, 3))
def test_gram_count_linear_bound(t, p, q):
    max_children = max(len(n.children) for n in t.nodes)
    assert gram_count(t, GramShape(p, q)) <= (max_children + q) * len(t.nodes)


def test_vocabulary_golden_sizes():
    v1 = build_vocabulary([parse_tree("a(b,c)")], S12)
    assert len(v1) == 5 and v1.dim == 6

    v2 = build_vocabulary([parse_tree("a"), parse_tree("a")], GramShape(1, 1))
    assert len(v2) == 1

    v3 = build_vocabulary([parse_tree("a(b,c)"), parse_tree("a(c,b)")], S12)
    assert len(v3) == 8


def test_vocabulary_first_occurrence_order():
    v = build_vocabulary([parse_tree("a(b,c)")], S12)
    assert v.tuples[0] == ("a", "*", "b")
    assert v.tuples[-1] == ("c", "*", "*")
    assert [v.id_of(tup) for tup in v.tuples] == list(range(5))


def test_vocabulary_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        build_vocabulary([], S12)
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary(S12, [("a", "*", "*"), ("a", "*", "*")])
    with pytest.raises(ValueError, match="length"):
        Vocabulary(S12, [("a", "*")])


def test_profile_within_vocabulary_has_no_oov():
    t = parse_tree("a(b,c)")
    v = build_vocabulary([t], S12)
    prof = profile(t, v)
    assert prof.dense().tolist() == [1, 1, 1, 1, 1, 0]
    assert prof.dense()[v.oov_id] == 0
    assert prof.total() == gram_count(t, S12)


def test_profile_unseen_tree_goes_to_oov():
    v = build_vocabulary([parse_tree("a(b,c)")], S12)
    prof = profile(parse_tree("d"), v)
    dense = prof.dense()
    assert dense[v.oov_id] == 1
    assert dense.sum() == 1


def test_sym_diff_golden_pair():
    t1, t2 = parse_tree("a(b,c)"), parse_tree("a(c,b)")
    v = build_vocabulary([t1, t2], S12)
    d = sym_diff(profile(t1, v), profile(t2, v))
    assert d.total() == 6
    assert (d.values >= 0).all()


def test_sym_diff_identical_and_disjoint():
    t1, t2 = parse_tree("a(b,c)"), parse_tree("x(y,z)")
    v = build_vocabulary([t1, t2], S12)
    p1, p2 = profile(t1, v), profile(t2, v)
    assert sym_diff(p1, p1).total() == 0
    assert sym_diff(p1, p2).total() == p1.total() + p2.total()


def test_sym_diff_vocabulary_mismatch():
    t = parse_tree("a(b,c)")
    va = build_vocabulary([t], S12)
    vb = build_vocabulary([parse_tree("a(c,b)")], S12)
    with pytest.raises(ValueError, match="vocabular"):
        sym_diff(profile(t, va), profile(t, vb))


@given(trees(), trees())
def test_sym_diff_is_absolute_difference(t1, t2):
    v = build_vocabulary([t1, t2], S12)
    p1, p2 = profile(t1, v), profile(t2, v)
    d = sym_diff(p1, p2)
    assert d.dense().tolist() == np.abs(p1.dense() - p2.dense()).tolist()
    assert sym_diff(p2, p1).dense().tolist() == d.dense().tolist()


@given(trees(), trees(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60)
def test_vector_distance_equals_multiset_formula(t1, t2, p, q):
    # sum of |x - y| must agree with |union| - 2|intersection| on multisets
    shape = GramShape(p, q)
    v = build_vocabulary([t1, t2], shape)
    vec = sym_diff(profile(t1, v), profile(t2, v)).total()
    assert vec == multiset_distance(extract_grams(t1, shape), extract_grams(t2, shape))


def test_oov_collapse_is_exact_for_query_vs_training_pairs():
    # queries may share an OOV slot, but against in-vocabulary training
    # profiles the collapsed distance equals the multiset distance
    rng = random.Random(3)
    train = [random_tree_raw(rng.randrange(2, 10), rng) for _ in range(5)]
    queries = [random_tree_raw(rng.randrange(2, 10), rng, labels=("a", "x", "y")) for _ in range(5)]
    v = build_vocabulary(train, S12)
    for q in queries:
        pq_ = profile(q, v)
        for t in train:
            got = sym_diff(pq_, profile(t, v)).total()
            want = multiset_distance(extract_grams(q, S12), extract_grams(t, S12))
            assert got == want


def test_encode_trees_matches_vocabulary_then_profile():
    rng = random.Random(17)
    for _ in range(20):
        ts = [random_tree_raw(rng.randrange(1, 15), rng) for _ in range(rng.randrange(1, 8))]
        shape = GramShape(rng.randrange(1, 4), rng.randrange(1, 4))
        vocab, profiles = encode_trees(ts, shape)
        assert vocab.tuples == build_vocabulary(ts, shape).tuples
        assert Vocabulary.from_trees(ts, shape) == vocab
        for t, p in zip(ts, profiles):
            want = profile(t, vocab)
            assert p.vocab is vocab
            assert p.indices.tolist() == want.indices.tolist()
            assert p.counts.tolist() == want.counts.tolist()
            for got, exp in ((p.indices, want.indices), (p.counts, want.counts)):
                assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
    with pytest.raises(ValueError):
        encode_trees([], S12)
