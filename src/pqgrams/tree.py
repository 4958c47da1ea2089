"""Ordered labeled trees and their bracket notation.

A tree is written recursively as ``label(child,child,...)``, e.g. ``a(b,c)``
for a root ``a`` with ordered children ``b`` and ``c``. Labels are maximal
runs of characters excluding ``(``, ``)``, ``,`` and whitespace, and must
encode as UTF-8. The label ``*`` is reserved for dummy nodes and rejected.

Trees are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

DUMMY = "*"

_DELIMS = frozenset("(),")


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
    """Rooted ordered labeled tree with index-based node identity.

    ``nodes[i]`` is stable within one Tree value; equality and hashing are
    structural (labels and child order), never identity-based.
    """

    __slots__ = ("nodes", "root", "_hash")

    def __init__(self, nodes: Sequence[Node], root: int = 0):
        nodes = tuple(nodes)
        _validate(nodes, root)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    def __len__(self) -> int:
        return len(self.nodes)

    def label(self, nid: int) -> str:
        return self.nodes[nid].label

    def children(self, nid: int) -> tuple[int, ...]:
        return self.nodes[nid].children

    def preorder(self) -> Iterator[int]:
        """Node ids in preorder (parent before children, siblings in order)."""
        stack = [self.root]
        while stack:
            nid = stack.pop()
            yield nid
            stack.extend(reversed(self.nodes[nid].children))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        if len(self.nodes) != len(other.nodes):
            return False
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            na, nb = self.nodes[a], other.nodes[b]
            if na.label != nb.label or len(na.children) != len(nb.children):
                return False
            stack.extend(zip(na.children, nb.children))
        return True

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(serialize_tree(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Tree({serialize_tree(self)!r})"


def _validate(nodes: tuple[Node, ...], root: int) -> None:
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
    reached = sum(1 for _ in _iter_reachable(nodes, root))
    if reached != len(nodes):
        raise ValueError("tree is not connected (unreachable nodes)")


def _iter_reachable(nodes, root):
    stack = [root]
    while stack:
        nid = stack.pop()
        yield nid
        stack.extend(nodes[nid].children)


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
    offending position for unbalanced parentheses, empty or reserved
    labels, and trailing garbage.
    """
    n = len(text)
    pos = 0

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_label(i: int) -> tuple[str, int]:
        j = i
        while j < n and text[j] not in _DELIMS and not text[j].isspace():
            j += 1
        if j == i:
            raise TreeParseError("expected a label", i)
        label = text[i:j]
        if label == DUMMY:
            raise TreeParseError(f"reserved label {DUMMY!r}", i)
        return label, j

    labels: list[str] = []
    kids: list[list[int]] = []

    def new_node(label: str, parent: int | None) -> int:
        labels.append(label)
        kids.append([])
        nid = len(labels) - 1
        if parent is not None:
            kids[parent].append(nid)
        return nid

    pos = skip_ws(pos)
    label, pos = read_label(pos)
    cur = new_node(label, None)
    open_parents: list[int] = []

    while True:
        pos = skip_ws(pos)
        if pos >= n:
            if open_parents:
                raise TreeParseError("unbalanced parentheses (unclosed '(')", n)
            break
        ch = text[pos]
        if ch == "(":
            open_parents.append(cur)
            pos = skip_ws(pos + 1)
            label, pos = read_label(pos)
            cur = new_node(label, open_parents[-1])
        elif ch == ",":
            if not open_parents:
                raise TreeParseError("trailing garbage after tree", pos)
            pos = skip_ws(pos + 1)
            label, pos = read_label(pos)
            cur = new_node(label, open_parents[-1])
        elif ch == ")":
            if not open_parents:
                raise TreeParseError("unbalanced parentheses (unmatched ')')", pos)
            cur = open_parents.pop()
            pos += 1
        else:
            if not open_parents:
                raise TreeParseError("trailing garbage after tree", pos)
            raise TreeParseError("expected ',' or ')'", pos)

    return Tree([Node(lab, tuple(ch)) for lab, ch in zip(labels, kids)], root=0)


def serialize_tree(t: Tree) -> str:
    """Canonical bracket string; inverse of parse_tree up to whitespace."""
    out: list[str] = []
    stack: list[int | str] = [t.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node = t.nodes[item]
        out.append(node.label)
        if node.children:
            parts: list[int | str] = ["("]
            for i, c in enumerate(node.children):
                if i:
                    parts.append(",")
                parts.append(c)
            parts.append(")")
            stack.extend(reversed(parts))
    return "".join(out)


def tree_size(t: Tree) -> int:
    """Number of nodes."""
    return len(t.nodes)
