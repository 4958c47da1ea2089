"""Ordered labeled trees and their bracket notation.

A tree is written recursively as ``label(child,child,...)``, e.g. ``a(b,c)``
for a root ``a`` with ordered children ``b`` and ``c``. Labels are maximal
runs of characters excluding ``(``, ``)``, ``,`` and whitespace, and must
encode as UTF-8. The label ``*`` is reserved for dummy nodes and rejected.

A Tree stores its nodes in preorder as two tuples: ``labels[i]`` and
``sizes[i]``, the number of nodes in the subtree rooted at node ``i``. The
root is node 0, node ``i``'s subtree is ``range(i, i + sizes[i])``, and its
children are found by jumping ``j += sizes[j]`` from ``j = i + 1``. Two
trees are equal exactly when both tuples are. ``Node``, ``nodes``,
``children()`` and ``preorder()`` are views over the same ids.

Trees are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

DUMMY = "*"

_DELIMS = frozenset("(),")

# one token after optional whitespace: a delimiter, a label, or the end;
# parse_tree reads tokens without offsets and finds one only for an error
_TOKEN = re.compile(r"\s*([(),]|[^(),\s]+|\Z)")


class TreeParseError(ValueError):
    """Malformed bracket notation; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True, slots=True)
class Node:
    label: str
    children: tuple[int, ...] = ()


class Tree:
    """Rooted ordered labeled tree over preorder node ids.

    ``Tree(nodes, root)`` accepts any numbering, checks it is one tree, and
    renumbers it in preorder; ``t.nodes[i]`` then is node ``i`` of ``t``.
    """

    __slots__ = ("labels", "sizes", "_nodes")

    root = 0

    def __new__(cls, nodes: Sequence[Node], root: int = 0) -> Tree:
        return _from_preorder(*_flatten(tuple(nodes), root))

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def nodes(self) -> tuple[Node, ...]:
        if self._nodes is None:
            sizes = self.sizes
            kids: list[list[int]] = [[] for _ in sizes]
            for i, size in enumerate(sizes):
                j = i + 1
                while j < i + size:
                    kids[i].append(j)
                    j += sizes[j]
            object.__setattr__(self, "_nodes", tuple(map(Node, self.labels, map(tuple, kids))))
        return self._nodes

    def label(self, nid: int) -> str:
        return self.labels[nid]

    def children(self, nid: int) -> tuple[int, ...]:
        return self.nodes[nid].children

    def preorder(self) -> Iterator[int]:
        """Node ids in preorder (parent before children, siblings in order)."""
        return iter(range(len(self.labels)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.labels == other.labels and self.sizes == other.sizes

    def __hash__(self) -> int:
        return hash((self.labels, self.sizes))

    def __repr__(self) -> str:
        return f"Tree({serialize_tree(self)!r})"

    def __reduce__(self):  # copy and pickle
        return _from_preorder, (self.labels, self.sizes)


def _from_preorder(labels: tuple[str, ...], sizes: tuple[int, ...]) -> Tree:
    """A tree from preorder arrays that the caller guarantees to be valid."""
    t = object.__new__(Tree)
    object.__setattr__(t, "labels", labels)
    object.__setattr__(t, "sizes", sizes)
    object.__setattr__(t, "_nodes", None)
    return t


def _flatten(nodes: tuple[Node, ...], root: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Check that ``nodes`` form one tree under ``root``; its preorder arrays."""
    if not nodes:
        raise ValueError("tree must have at least one node")
    if not 0 <= root < len(nodes):
        raise ValueError(f"root id {root} out of range")
    seen_parent = [False] * len(nodes)
    for node in nodes:
        _check_label(node.label)
        for c in node.children:
            if not 0 <= c < len(nodes):
                raise ValueError(f"child id {c} out of range")
            if c == root:
                raise ValueError("root node may not be a child")
            if seen_parent[c]:
                raise ValueError(f"node {c} has more than one parent")
            seen_parent[c] = True
    # with one parent per node and none for the root, this walk visits each
    # node reachable from the root exactly once; ~i marks the end of the
    # subtree of preorder node i
    labels: list[str] = []
    sizes: list[int] = []
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid < 0:
            sizes[~nid] = len(labels) - ~nid
            continue
        stack.append(~len(labels))
        labels.append(nodes[nid].label)
        sizes.append(1)
        stack.extend(reversed(nodes[nid].children))
    if len(labels) != len(nodes):
        raise ValueError("tree is not connected (unreachable nodes)")
    return tuple(labels), tuple(sizes)


def _check_label(label: str) -> None:
    if not label:
        raise ValueError("empty label")
    if label == DUMMY:
        raise ValueError(f"label {DUMMY!r} is reserved for dummy nodes")
    if any(ch in _DELIMS or ch.isspace() for ch in label):
        raise ValueError(f"label {label!r} contains a delimiter or whitespace")
    label.encode("utf-8")  # UnicodeEncodeError for a lone surrogate


def parse_tree(text: str) -> Tree:
    """Parse bracket notation into a Tree.

    Grammar: ``tree := label | label '(' tree (',' tree)* ')'`` with
    whitespace around tokens ignored. Raises TreeParseError with the
    offending position for unbalanced parentheses, empty, reserved or
    non-UTF-8 labels, and trailing garbage.
    """
    labels: list[str] = []
    sizes: list[int] = []
    open_parents: list[int] = []
    want_label, after_label = True, False
    for k, tok in enumerate(_TOKEN.findall(text)):
        if want_label:
            if not tok or tok in _DELIMS:
                raise _error_at(text, k, "expected a label")
            if tok == DUMMY:
                raise _error_at(text, k, f"reserved label {DUMMY!r}")
            try:
                tok.encode("utf-8")
            except UnicodeEncodeError:
                raise _error_at(text, k, "label cannot be encoded as UTF-8") from None
            labels.append(tok)
            sizes.append(1)
            want_label, after_label = False, True
        elif tok == "(" and after_label:
            open_parents.append(len(labels) - 1)
            want_label = True
        elif tok == "," and open_parents:
            want_label = True
        elif tok == ")" and open_parents:
            parent = open_parents.pop()
            sizes[parent] = len(labels) - parent
            after_label = False
        elif tok == ")":
            raise _error_at(text, k, "unbalanced parentheses (unmatched ')')")
        elif not tok:
            if open_parents:
                raise _error_at(text, k, "unbalanced parentheses (unclosed '(')")
        elif not open_parents:
            raise _error_at(text, k, "trailing garbage after tree")
        else:
            raise _error_at(text, k, "expected ',' or ')'")
    # the grammar makes every label one node and nests subtrees properly, so
    # only the label checks above are needed
    return _from_preorder(tuple(labels), tuple(sizes))


def _error_at(text: str, k: int, message: str) -> TreeParseError:
    """The parse error at the offset of token ``k`` of ``text``."""
    return TreeParseError(message, next(islice(_TOKEN.finditer(text), k, None)).start(1))


def serialize_tree(t: Tree) -> str:
    """Canonical bracket string; inverse of parse_tree up to whitespace."""
    sizes = t.sizes
    out: list[str] = []
    ends: list[int] = []  # subtree ends of the open ancestors, innermost last
    for i, label in enumerate(t.labels):
        out.append(label)
        if sizes[i] > 1:
            out.append("(")
            ends.append(i + sizes[i])
            continue
        while ends and ends[-1] == i + 1:
            ends.pop()
            out.append(")")
        if ends:
            out.append(",")
    return "".join(out)


def tree_size(t: Tree) -> int:
    """Number of nodes."""
    return len(t.labels)
