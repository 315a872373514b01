"""Tree-pattern query model and its mini syntax.

Grammar (EBNF)::

    pattern := step+
    step    := ("/" | "//") name pred* ret?
    name    := "@"? name-char+ | "*"
    pred    := "[" pattern "]" | "=" quoted-word | "in" int ".." int
    ret     := "!"

``/`` is the child axis, ``//`` the descendant axis.  The first step's
axis relates the pattern root to the document: ``/`` pins it to the
document root element, ``//`` matches it anywhere.  ``!`` marks return
nodes; if none is marked the pattern root is returned.  ``@`` names an
attribute.  A name-char is any character but a space and ``/[]=!"@*``,
so a pattern can name every element and attribute a document can carry.
A node carries at most one value predicate (word equality or integer
range); the quoted word must be one word as the index splits text
(``split_words``), in any case.  A pattern holds at most ``MAX_NODES``
nodes.

Canonical serialization reproduces the parse with minimal whitespace: its
text parses back to the same pattern.
"""

from __future__ import annotations

import re

from .document import split_words
from .errors import PatternSyntaxError

CHILD = "child"
DESCENDANT = "descendant"

# a name runs to the next space or syntax character, as no XML name holds
# one; a name no document holds matches nothing
_NAME_RE = re.compile(r'@?[^\s/\[\]=!"@*]+|\*')
_INT_RE = re.compile(r"[+-]?[0-9]+")
_WORD_RE = re.compile(r'"([^"]*)"')

# this parser recurses once per nested predicate, and the p2p planner's
# plan walks recurse once per join, one join per edge; under Python's
# default limit of 1,000 frames both backends answer patterns of up to
# 329 nodes when called from a script's top level, and the bound leaves
# room for deeper callers
MAX_NODES = 200


class PNode:
    """One pattern node: a name test plus an optional value predicate."""

    def __init__(self, idx: int, name: str):
        self.idx = idx
        self.name = name
        self.word: str | None = None
        self.lo: int | None = None
        self.hi: int | None = None
        self.ret = False

    @property
    def has_range(self) -> bool:
        return self.lo is not None

    @property
    def is_wildcard(self) -> bool:
        return self.name == "*"


class TreePattern:
    def __init__(
        self,
        nodes: list[PNode] | None = None,
        edges: list[tuple[int, int, str]] | None = None,
        root_axis: str = DESCENDANT,
    ):
        self.nodes = [] if nodes is None else nodes
        # (parent, child, axis); a node's edge comes before its children's
        self.edges = [] if edges is None else edges
        self.root_axis = root_axis

    @property
    def root(self) -> PNode:
        return self.nodes[0]

    def children(self, idx: int) -> list[tuple[int, str]]:
        return [(c, axis) for p, c, axis in self.edges if p == idx]

    @property
    def return_nodes(self) -> list[int]:
        return [n.idx for n in self.nodes if n.ret]

    @property
    def all_wildcard(self) -> bool:
        """True when no node offers an index key (wildcard, predicate-free)."""
        return all(
            n.is_wildcard and n.word is None and not n.has_range for n in self.nodes
        )


def bfs_edges(pattern: TreePattern) -> list[tuple[int, int, str]]:
    """The pattern's edges in breadth-first order: by their child's depth,
    in pattern order within one depth.  As in ``edges``, a node's edge
    comes before its children's."""
    depth = {0: 0}
    for p, c, _ in pattern.edges:
        depth[c] = depth[p] + 1
    return sorted(pattern.edges, key=lambda edge: depth[edge[1]])


def join_order(
    edges: list[tuple[int, int, str]], sizes: list[int]
) -> list[tuple[int, int, str]]:
    """A connected tree's ``edges`` in the order both backends join them, by
    the nodes' candidate counts ``sizes`` (Wu, Patel, Jagadish, ICDE 2003):
    first the edge that can emit the fewest rows (a child-axis join one per
    child, a descendant-axis join one per pair), then each time the edge out
    of the joined nodes whose other end has the fewest, ties in edge order."""
    rest = list(edges)
    if not rest:
        return []
    first = min(rest, key=lambda e: (
        sizes[e[1]] if e[2] == CHILD else sizes[e[0]] * sizes[e[1]]))
    rest.remove(first)
    order, joined = [first], {first[0], first[1]}
    while rest:
        edge = min(
            (e for e in rest if (e[0] in joined) != (e[1] in joined)),
            key=lambda e: sizes[e[1] if e[0] in joined else e[0]],
        )
        rest.remove(edge)
        order.append(edge)
        joined.update(edge[:2])
    return order


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.pattern = TreePattern()

    def fail(self, message: str) -> PatternSyntaxError:
        return PatternSyntaxError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self) -> TreePattern:
        self.skip_ws()
        if not self.peek():
            raise self.fail("empty pattern")
        self.parse_steps(parent=None)
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.fail(f"unexpected {self.text[self.pos]!r}")
        if not any(n.ret for n in self.pattern.nodes):
            self.pattern.root.ret = True
        return self.pattern

    def parse_steps(self, parent: int | None) -> int:
        """step+ relative to ``parent``; returns the last step's node idx."""
        current = parent
        first = True
        while True:
            self.skip_ws()
            if self.peek() != "/":
                if first:
                    raise self.fail("expected '/' or '//'")
                return current  # type: ignore[return-value]
            current = self.parse_step(current)
            first = False

    def parse_step(self, parent: int | None) -> int:
        axis = CHILD
        self.pos += 1
        if self.peek() == "/":
            axis = DESCENDANT
            self.pos += 1
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.fail("expected a name or '*'")
        if len(self.pattern.nodes) == MAX_NODES:
            raise self.fail(f"a pattern holds at most {MAX_NODES} nodes")
        self.pos = m.end()
        node = PNode(len(self.pattern.nodes), m.group())
        self.pattern.nodes.append(node)
        if parent is None:
            self.pattern.root_axis = axis
        else:
            self.pattern.edges.append((parent, node.idx, axis))
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "[":
                self.pos += 1
                self.parse_steps(parent=node.idx)
                self.skip_ws()
                if self.peek() != "]":
                    raise self.fail("expected ']'")
                self.pos += 1
            elif ch == "=":
                self.pos += 1
                self.parse_word(node)
            elif self.text.startswith("in", self.pos) and self._keyword_boundary():
                self.pos += 2
                self.parse_range(node)
            elif ch == "!":
                node.ret = True
                self.pos += 1
                return node.idx
            else:
                return node.idx

    def _keyword_boundary(self) -> bool:
        after = self.text[self.pos + 2 : self.pos + 3]
        return after == "" or not (after.isalnum() or after == "_")

    def parse_word(self, node: PNode) -> None:
        if node.word is not None or node.has_range:
            raise self.fail("at most one value predicate per node")
        self.skip_ws()
        m = _WORD_RE.match(self.text, self.pos)
        if not m:
            raise self.fail('expected a quoted word')
        word = m.group(1).lower()
        if split_words(m.group(1)) != [word]:  # only such words are indexed
            raise self.fail("predicate word must be a single word")
        node.word = word
        self.pos = m.end()

    def parse_int(self, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise self.fail("integer has too many digits") from None

    def parse_range(self, node: PNode) -> None:
        if node.word is not None or node.has_range:
            raise self.fail("at most one value predicate per node")
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise self.fail("expected an integer")
        lo = self.parse_int(m.group())
        self.pos = m.end()
        self.skip_ws()
        if not self.text.startswith("..", self.pos):
            raise self.fail("expected '..'")
        self.pos += 2
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise self.fail("expected an integer")
        hi = self.parse_int(m.group())
        self.pos = m.end()
        if lo > hi:
            raise self.fail("empty integer range")
        node.lo, node.hi = lo, hi


def parse_pattern(text: str) -> TreePattern:
    return _Parser(text).parse()


def canonical(pattern: TreePattern) -> str:
    """Deterministic minimal-whitespace rendering that parses back to
    ``pattern``."""
    out: list[str] = []

    def axis_text(axis: str) -> str:
        return "//" if axis == DESCENDANT else "/"

    def write(idx: int, axis: str) -> None:
        node = pattern.nodes[idx]
        out.append(axis_text(axis) + node.name)
        if node.word is not None:
            out.append(f'="{node.word}"')
        elif node.has_range:
            out.append(f" in {node.lo}..{node.hi}")
        for child_idx, child_axis in pattern.children(idx):
            out.append("[")
            write(child_idx, child_axis)
            out.append("]")
        if node.ret:
            out.append("!")

    write(0, pattern.root_axis)
    return "".join(out)
