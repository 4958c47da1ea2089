"""Labeled tree corpora: the synthetic two-class strings benchmark, TSV
ingestion, and random tree generation for stress and timing runs.

The TSV corpus format is one item per line, ``label<TAB>bracket-tree``,
UTF-8 with LF line endings; ``#`` lines are comments, and a byte-order mark
at the start of the file is skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lmnn import _UNDECODABLE, LabeledTree
from .tree import Node, Tree, parse_tree, serialize_tree

STRING_CLASS_NAMES = ("periodic", "random")


@dataclass
class LabeledCorpus:
    items: list[LabeledTree]
    label_names: list[str]
    source: str = ""

    def __post_init__(self):
        if not self.items:
            raise ValueError("corpus must be non-empty")
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError("label names must be distinct")
        for name in self.label_names:
            # load_tsv reads a line that starts with '#' as a comment, and a
            # leading U+FEFF in its file as a byte-order mark
            if not name or name[0] in "#\ufeff" or any(ch in "\t\n\r" for ch in name):
                raise ValueError(f"bad label name {name!r}")
            name.encode("utf-8")  # UnicodeEncodeError for a lone surrogate
        for item in self.items:
            if not 0 <= item.label < len(self.label_names):
                raise ValueError(f"label id {item.label} out of range")

    def __len__(self) -> int:
        return len(self.items)

    def class_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in self.label_names}
        for item in self.items:
            counts[self.label_names[item.label]] += 1
        return counts


def chain_tree(s: str) -> Tree:
    """A branch-free tree spelling ``s`` top-down (first character = root)."""
    if not s:
        raise ValueError("cannot build a chain from an empty string")
    n = len(s)
    nodes = [
        Node(ch, (i + 1,) if i + 1 < n else ()) for i, ch in enumerate(s)
    ]
    return Tree(nodes)


def gen_strings(n_per_class: int, seed: int = 0) -> LabeledCorpus:
    """Two classes of length-9 strings as chain trees, seeded.

    Class "periodic" repeats the block (A|B)(C|D)(A|B) three times, so e.g.
    DAD can never occur in it. Class "random" draws all nine characters
    uniformly from {A,B,C,D}.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = random.Random(seed)
    items: list[LabeledTree] = []
    for _ in range(n_per_class):
        chars = []
        for _ in range(3):
            chars.append(rng.choice("AB"))
            chars.append(rng.choice("CD"))
            chars.append(rng.choice("AB"))
        items.append(LabeledTree(chain_tree("".join(chars)), 0))
    for _ in range(n_per_class):
        s = "".join(rng.choice("ABCD") for _ in range(9))
        items.append(LabeledTree(chain_tree(s), 1))
    return LabeledCorpus(items, list(STRING_CLASS_NAMES), source=f"strings(seed={seed})")


def load_tsv(path) -> LabeledCorpus:
    """Read a labeled corpus; malformed lines raise with their line number."""
    items: list[LabeledTree] = []
    label_ids: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if bad := _UNDECODABLE.search(line):
                byte = ord(bad[0]) - 0xDC00
                raise ValueError(f"{path}:{lineno}: not valid UTF-8 (byte 0x{byte:02x})")
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'label<TAB>tree', got {len(parts)} fields"
                )
            name, text = parts
            if name not in label_ids:
                if not name or name[0] == "\ufeff":
                    raise ValueError(f"{path}:{lineno}: bad label name {name!r}")
                label_ids[name] = len(label_ids)
            try:
                tree = parse_tree(text)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
            items.append(LabeledTree(tree, label_ids[name]))
    if not items:
        raise ValueError(f"{path}: no data lines")
    return LabeledCorpus(items, list(label_ids), source=str(path))


def save_tsv(corpus: LabeledCorpus, path) -> None:
    """Write the corpus in the TSV format; inverse of load_tsv."""
    if not corpus.items:
        raise ValueError("refusing to write an empty corpus")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for item in corpus.items:
            fh.write(f"{corpus.label_names[item.label]}\t{serialize_tree(item.tree)}\n")


def random_tree(
    n_nodes: int,
    rng: random.Random,
    labels: tuple[str, ...] = ("a", "b", "c", "d"),
    attach_window: int | None = None,
) -> Tree:
    """Random tree with exactly ``n_nodes`` nodes, labels drawn uniformly.

    Each new node attaches under a uniformly chosen existing node; with
    ``attach_window`` set, only the most recent nodes are candidates, which
    produces deeper trees (useful for scaling studies).
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    node_labels = [rng.choice(labels) for _ in range(n_nodes)]
    kids: list[list[int]] = [[] for _ in range(n_nodes)]
    for i in range(1, n_nodes):
        lo = 0 if attach_window is None else max(0, i - attach_window)
        kids[rng.randrange(lo, i)].append(i)
    return Tree([Node(lab, tuple(ch)) for lab, ch in zip(node_labels, kids)])


def random_corpus(
    n_trees: int,
    n_nodes: int,
    n_classes: int,
    seed: int,
) -> LabeledCorpus:
    """Random trees with round-robin class labels, for timing studies."""
    rng = random.Random(seed)
    items = [
        LabeledTree(random_tree(n_nodes, rng), i % n_classes)
        for i in range(n_trees)
    ]
    return LabeledCorpus(
        items,
        [f"c{j}" for j in range(n_classes)],
        source=f"random(n={n_trees},size={n_nodes},seed={seed})",
    )
