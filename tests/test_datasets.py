import random
import re

import pytest

from pqgrams.datasets import (
    LabeledCorpus,
    chain_tree,
    gen_strings,
    load_tsv,
    random_corpus,
    random_tree,
    save_tsv,
)
from pqgrams.cli import run
from pqgrams.lmnn import LabeledTree
from pqgrams.tree import parse_tree, serialize_tree, tree_size

CLASS1_RE = re.compile(r"^([AB][CD][AB]){3}$")


def chain_string(tree) -> str:
    chars = []
    nid = tree.root
    while True:
        chars.append(tree.label(nid))
        ch = tree.children(nid)
        if not ch:
            return "".join(chars)
        (nid,) = ch


def test_chain_tree_root_is_first_char():
    t = chain_tree("ABC")
    assert serialize_tree(t) == "A(B(C))"
    with pytest.raises(ValueError):
        chain_tree("")


def test_gen_strings_counts_and_sizes():
    corpus = gen_strings(100, seed=0)
    assert len(corpus) == 200
    assert corpus.class_counts() == {"periodic": 100, "random": 100}
    assert all(tree_size(item.tree) == 9 for item in corpus.items)


def test_gen_strings_class1_pattern_and_no_dad():
    corpus = gen_strings(150, seed=3)
    for item in corpus.items:
        s = chain_string(item.tree)
        if item.label == 0:
            assert CLASS1_RE.match(s), s
            assert "DAD" not in s
        else:
            assert set(s) <= set("ABCD")


def test_gen_strings_deterministic():
    a = gen_strings(30, seed=9)
    b = gen_strings(30, seed=9)
    assert [serialize_tree(i.tree) for i in a.items] == [
        serialize_tree(i.tree) for i in b.items
    ]
    c = gen_strings(30, seed=10)
    assert [serialize_tree(i.tree) for i in a.items] != [
        serialize_tree(i.tree) for i in c.items
    ]


def test_corpus_validation():
    with pytest.raises(ValueError, match="non-empty"):
        LabeledCorpus([], [])
    item = LabeledTree(parse_tree("a"), 0)
    with pytest.raises(ValueError, match="label name"):
        LabeledCorpus([item], ["has\ttab"])
    with pytest.raises(ValueError, match="distinct"):
        LabeledCorpus([item], ["x", "x"])
    with pytest.raises(ValueError, match="out of range"):
        LabeledCorpus([LabeledTree(parse_tree("a"), 5)], ["x"])


def test_tsv_roundtrip(tmp_path):
    corpus = gen_strings(20, seed=4)
    path = tmp_path / "strings.tsv"
    save_tsv(corpus, path)
    loaded = load_tsv(path)
    assert loaded.label_names == corpus.label_names
    assert [i.label for i in loaded.items] == [i.label for i in corpus.items]
    assert all(
        a.tree == b.tree for a, b in zip(loaded.items, corpus.items)
    )


def test_load_tsv_single_line(tmp_path):
    path = tmp_path / "one.tsv"
    path.write_text("pos\ta(b,c)\n", encoding="utf-8")
    corpus = load_tsv(path)
    assert len(corpus) == 1
    assert corpus.label_names == ["pos"]


def test_load_tsv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# header comment\n\npos\ta\nneg\tb\n", encoding="utf-8")
    corpus = load_tsv(path)
    assert len(corpus) == 2
    assert corpus.label_names == ["pos", "neg"]


def test_load_tsv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("pos\ta(b,c)\npos\ta(b,c\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2:"):
        load_tsv(path)

    nofields = tmp_path / "nofields.tsv"
    nofields.write_text("just-one-field\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1:"):
        load_tsv(nofields)


def test_load_tsv_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data"):
        load_tsv(path)


def test_strings_corpus_writes_200_lines(tmp_path):
    path = tmp_path / "s.tsv"
    save_tsv(gen_strings(100, seed=0), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 200


def test_random_tree_sizes_and_determinism():
    rng = random.Random(12)
    t = random_tree(25, rng)
    assert tree_size(t) == 25
    a = random_tree(10, random.Random(1))
    b = random_tree(10, random.Random(1))
    assert a == b


def test_random_tree_attach_window_goes_deeper():
    def depth(t):
        best = 0
        stack = [(t.root, 1)]
        while stack:
            nid, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in t.children(nid))
        return best

    rng = random.Random(0)
    shallow = [depth(random_tree(60, rng)) for _ in range(10)]
    rng = random.Random(0)
    deep = [depth(random_tree(60, rng, attach_window=3)) for _ in range(10)]
    assert sum(deep) > sum(shallow)


def test_random_corpus_labels_round_robin():
    corpus = random_corpus(10, 8, 2, seed=0)
    assert [item.label for item in corpus.items] == [i % 2 for i in range(10)]
    assert all(tree_size(item.tree) == 8 for item in corpus.items)


def test_class_names_starting_with_hash_rejected(tmp_path):
    # load_tsv would read such a line as a comment and drop the item
    items = [LabeledTree(parse_tree("a"), 0), LabeledTree(parse_tree("b"), 1)]
    with pytest.raises(ValueError, match="label name"):
        LabeledCorpus(items, ["#x", "y"])
    corpus = LabeledCorpus(items, ["x#", "y"])
    save_tsv(corpus, tmp_path / "c.tsv")
    assert len(load_tsv(tmp_path / "c.tsv")) == 2


def test_load_tsv_skips_a_byte_order_mark(tmp_path):
    # a BOM read as text would glue U+FEFF onto the first class name
    path = tmp_path / "bom.tsv"
    path.write_bytes("periodic\ta(b)\nperiodic\ta(c)\nrandom\tb(c)\n".encode("utf-8-sig"))
    corpus = load_tsv(path)
    assert corpus.label_names == ["periodic", "random"]
    assert [item.label for item in corpus.items] == [0, 0, 1]
    commented = tmp_path / "bom-comment.tsv"
    commented.write_bytes("# header\nx\ta\n".encode("utf-8-sig"))
    assert load_tsv(commented).label_names == ["x"]


def test_class_names_starting_with_bom_rejected(tmp_path):
    # load_tsv would read a leading U+FEFF in its file as a byte-order mark
    items = [LabeledTree(parse_tree("a"), 0), LabeledTree(parse_tree("b"), 1)]
    with pytest.raises(ValueError, match="label name"):
        LabeledCorpus(items, ["\ufeffx", "y"])
    corpus = LabeledCorpus(items, ["x\ufeff", "y"])
    save_tsv(corpus, tmp_path / "c.tsv")
    assert load_tsv(tmp_path / "c.tsv").label_names == ["x\ufeff", "y"]


def test_load_tsv_rejects_bad_label_names_with_their_line(tmp_path):
    for name, text in (("late-bom", "x\ta\n\ufeffy\tb\n"), ("empty", "x\ta\n\tb\n")):
        path = tmp_path / f"{name}.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"{name}\.tsv:2: bad label name"):
            load_tsv(path)


@pytest.mark.parametrize(
    "data, lineno, byte",
    [(b"x\ta\ny\xff\tb\n", 2, "ff"), (b"x\ta\n" * 3000 + b"y\tb(\xc3)\n", 3001, "c3")],
)
def test_load_tsv_rejects_bytes_that_are_not_utf8_with_their_line(tmp_path, capsys, data, lineno, byte):
    # the second file's bad byte sits far past the first decoded chunk
    path = tmp_path / "latin1.tsv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"latin1\.tsv:{lineno}: not valid UTF-8 \(byte 0x{byte}\)"):
        load_tsv(path)
    assert run(["train", "--data", str(path), "--out", str(tmp_path / "m.txt")]) == 2
    assert f"latin1.tsv:{lineno}: not valid UTF-8" in capsys.readouterr().err
