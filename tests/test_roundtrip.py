"""Round-trip properties of the three file formats and the CLI exit codes.

Labels and class names are drawn from everything the library accepts, not
from a tidy subset: a value it accepts must survive its file format, and a
value it cannot write must be rejected when it is built.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqgrams.cli import UsageError, build_parser, run
from pqgrams.datasets import LabeledCorpus, load_tsv, save_tsv
from pqgrams.grams import GramShape, Vocabulary
from pqgrams.lmnn import LabeledTree, TrainConfig, TrainedModel, load_model, save_model
from pqgrams.metric import WeightModel
from pqgrams.tree import Node, Tree, parse_tree, serialize_tree

from conftest import tree_from_parents

# labels that sit at the edges of the formats: comment markers, the model
# file's OOV keyword, non-ASCII and long labels
SPECIAL_LABELS = ("#", "#a", "OOV", "OOV#", "é", "鳥", "\U0001f333", "x" * 300)


def _accepted(label: str) -> bool:
    try:
        Tree([Node(label)])
    except ValueError:
        return False
    return True


def _accepted_name(name: str) -> bool:
    try:
        LabeledCorpus([LabeledTree(Tree([Node("a")]), 0)], [name])
    except ValueError:
        return False
    return True


labels = st.one_of(
    st.sampled_from(SPECIAL_LABELS),
    st.text(min_size=1, max_size=6),
    st.text(min_size=1, max_size=3).map(lambda s: s * 50),
).filter(_accepted)

class_names = st.one_of(
    st.sampled_from(("#", "#x", " x", "OOV", "é")), st.text(min_size=1, max_size=6)
).filter(_accepted_name)


@st.composite
def trees(draw, max_nodes: int = 8) -> Tree:
    n = draw(st.integers(1, max_nodes))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    return tree_from_parents(parents, [draw(labels) for _ in range(n)])


def test_special_labels_and_names_are_accepted():
    assert all(_accepted(label) for label in SPECIAL_LABELS)
    assert _accepted_name("OOV") and _accepted_name(" x") and _accepted_name("x#")


def test_labels_utf8_cannot_encode_are_rejected():
    # a lone surrogate would fail halfway through writing a file
    assert not _accepted("a\ud800")
    assert not _accepted_name("\udc80x")


@settings(max_examples=150)
@given(trees())
def test_tree_bracket_round_trip(t):
    text = serialize_tree(t)
    assert parse_tree(text) == t
    assert serialize_tree(parse_tree(text)) == text


@settings(max_examples=60)
@given(st.data())
def test_corpus_tsv_round_trip(tmp_path_factory, data):
    names = data.draw(st.lists(class_names, min_size=1, max_size=4, unique=True))
    ids = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=5))
    corpus = LabeledCorpus([LabeledTree(data.draw(trees()), i) for i in ids], names)
    path = tmp_path_factory.mktemp("tsv") / "corpus.tsv"
    save_tsv(corpus, path)
    loaded = load_tsv(path)
    # the format holds one class name per item; ids follow first appearance
    assert [(loaded.label_names[it.label], it.tree) for it in loaded.items] == [
        (names[it.label], it.tree) for it in corpus.items
    ]


finite = st.floats(allow_nan=False, allow_infinity=False)
configs = st.builds(
    TrainConfig,
    k=st.integers(1, 10**6),
    mu1=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    mu2=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    beta=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    eta=st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    epochs=st.integers(0, 10**6),
    impostor_refresh_every=st.integers(1, 10**6),
    subsample_cap=st.integers(1, 10**6),
    seed=st.integers(),
)


@settings(max_examples=60)
@given(st.data())
def test_model_file_round_trip(tmp_path_factory, data):
    shape = GramShape(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    vocab = Vocabulary.from_trees(data.draw(st.lists(trees(), min_size=1, max_size=3)), shape)
    w = np.array(data.draw(st.lists(finite, min_size=vocab.dim, max_size=vocab.dim)))
    config = data.draw(st.none() | configs)
    trace = data.draw(st.lists(st.floats(), max_size=2))
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(TrainedModel(WeightModel(vocab, w), config, trace), path)
    loaded = load_model(path)
    assert loaded.shape == shape
    assert loaded.vocab.tuples == vocab.tuples
    assert loaded.model.w.tobytes() == w.tobytes()
    assert loaded.config == config
    assert repr(loaded.final_loss) == repr(trace[-1] if trace else None)


SUBCOMMANDS = ("gen-strings", "grams", "dist", "train", "knn-eval", "bench", "inspect", "nope")
FLAGS = (
    "--algo", "--t1", "--t2", "--model", "--data", "--out", "--tree", "--setting",
    "-p", "-q", "-k", "--epochs", "--mu1", "--folds", "--algos", "--n", "--seed", "--top",
)
VALUES = ("pq", "ted", "wpq", "E1", "a", "a(b)", "-1", "0", "2", "x.tsv")


def _rejected_by_argparse(argv) -> bool:
    try:
        build_parser().parse_args(argv)
    except UsageError:
        return True
    except SystemExit as e:  # --help exits 0
        return e.code not in (0, None)
    return False


@settings(max_examples=150)
@given(
    st.sampled_from(SUBCOMMANDS),
    st.lists(st.sampled_from(FLAGS) | st.sampled_from(VALUES) | st.text(max_size=4), max_size=8),
)
def test_arguments_argparse_rejects_exit_1(command, rest):
    argv = [command, *rest]
    assume(_rejected_by_argparse(argv))
    assert run(argv) == 1


def _unparsable(text: str) -> bool:
    try:
        parse_tree(text)
    except ValueError:
        return True
    return False


@settings(max_examples=100)
@given(st.sampled_from(("pq", "ted")), st.text("ab#é(),*- \t", max_size=10).filter(_unparsable))
def test_unparsable_tree_argument_exits_2(algo, text):
    # '--t1=' keeps a text that starts with '-' from reading as a flag
    assert run(["dist", "--algo", algo, f"--t1={text}", "--t2=a"]) == 2
