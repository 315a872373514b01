"""Tree-pattern evaluation over one stack-based structural-join kernel.

``stack_join`` is the only structural join: Stack-Tree-Desc (Al-Khalifa
et al., ICDE 2002) over two row lists sorted by their join column's
(doc, start), with a stack of open ancestors.  The planner's StructJoin
operator calls it directly; that is the p2p backend's only tree-pattern
path.  ``holistic_join`` folds it over a pattern's edges for
``eval_local`` (the centralized backend), which feeds it candidates drawn
from each in-memory document's name postings, the per-tag element streams
the stack joins assume.  Results are bindings; no payloads move until
recomposition.

``eval_naive`` scans every node of every document for every pattern node
and exhaustively enumerates node assignments; it is the test oracle only
and no backend calls it.

A ``Binding`` is a tuple of structural ids aligned with ``pattern.nodes``.
All evaluators sort results by return-node ids, then by the full tuple.
"""

from __future__ import annotations

from typing import Callable

from .document import (
    ATTRIBUTE,
    ELEMENT,
    Document,
    Node,
    StructuralId,
    is_ancestor,
    is_parent,
    parse_int_content,
    split_words,
)
from .pattern import CHILD, PNode, TreePattern

Binding = tuple[StructuralId, ...]


def axis_holds(axis: str, parent: StructuralId, child: StructuralId) -> bool:
    if axis == CHILD:
        return is_parent(parent, child)
    return is_ancestor(parent, child)


def sort_bindings(pattern: TreePattern, bindings: list[Binding]) -> list[Binding]:
    rets = pattern.return_nodes
    return sorted(bindings, key=lambda b: (tuple(b[i] for i in rets), b))


# -- naive evaluation ------------------------------------------------------


def _node_matches(doc: Document, node: Node, pnode: PNode) -> bool:
    if node.kind not in (ELEMENT, ATTRIBUTE):
        return False
    if not pnode.is_wildcard and node.name != pnode.name:
        return False
    if pnode.word is not None:
        # every word of split_words(text) is a substring of text.lower()
        if not any(
            pnode.word in text.lower() and pnode.word in split_words(text)
            for text in doc.text_children(node)
        ):
            return False
    if pnode.has_range:
        ok = False
        for text in doc.text_children(node):
            value = parse_int_content(text)
            if value is not None and pnode.lo <= value <= pnode.hi:
                ok = True
                break
        if not ok:
            return False
    return True


def _all_nodes(doc: Document, pnode: PNode) -> list[Node]:
    return doc.nodes


def _named_nodes(doc: Document, pnode: PNode) -> list[Node]:
    return doc.nodes if pnode.is_wildcard else doc.named(pnode.name)


def _doc_candidates(
    pattern: TreePattern,
    doc: Document,
    pool: Callable[[Document, PNode], list[Node]],
) -> list[list[StructuralId]]:
    """One candidate list per pattern node: the nodes of ``pool(doc, pnode)``
    that match it, in document order."""
    cands: list[list[StructuralId]] = []
    for pnode in pattern.nodes:
        labels = [
            node.label
            for node in pool(doc, pnode)
            if _node_matches(doc, node, pnode)
        ]
        if pnode.idx == 0 and pattern.root_axis == CHILD:
            labels = [lb for lb in labels if lb.depth == 1]
        cands.append(labels)
    return cands


def eval_naive(pattern: TreePattern, docs: list[Document]) -> list[Binding]:
    """Exhaustive enumeration oracle; sorted canonically."""
    n = len(pattern.nodes)
    order = _bfs_order(pattern)
    parent_of = {c: (p, axis) for p, c, axis in pattern.edges}
    results: list[Binding] = []

    for doc in docs:
        cands = _doc_candidates(pattern, doc, _all_nodes)
        if any(not c for c in cands):
            continue
        bound: list[StructuralId | None] = [None] * n

        def assign(k: int) -> None:
            if k == len(order):
                results.append(tuple(bound))  # type: ignore[arg-type]
                return
            idx = order[k]
            if idx == 0:
                for label in cands[0]:
                    bound[0] = label
                    assign(k + 1)
            else:
                p, axis = parent_of[idx]
                plabel = bound[p]
                for label in cands[idx]:
                    if axis_holds(axis, plabel, label):
                        bound[idx] = label
                        assign(k + 1)

        assign(0)

    return sort_bindings(pattern, results)


def eval_local(pattern: TreePattern, docs: list[Document]) -> list[Binding]:
    """The centralized backend's evaluator; equals eval_naive.

    A named pattern node draws its candidates from the document's postings
    for that name (``Document.named``), a wildcard from all of its nodes;
    ``_node_matches`` then decides every candidate.
    """
    bindings: list[Binding] = []
    for doc in docs:
        cands = _doc_candidates(pattern, doc, _named_nodes)
        bindings.extend(holistic_join(pattern, cands))
    return sort_bindings(pattern, bindings)


def _bfs_order(pattern: TreePattern) -> list[int]:
    order = [0]
    seen = {0}
    i = 0
    while i < len(order):
        for child, _ in pattern.children(order[i]):
            if child not in seen:
                seen.add(child)
                order.append(child)
        i += 1
    return order


# -- query cache ------------------------------------------------------------


class QueryCache:
    """Cache keyed by canonical pattern text, invalidated by an epoch number.

    No evaluator consults it.  It stays only because the benchmark traces
    ``QueryCache.lookup``; it goes when that trace target is retired.
    """

    def __init__(self):
        self.entries: dict[str, tuple[int, tuple[Binding, ...]]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, fingerprint: str, epoch: int) -> list[Binding] | None:
        entry = self.entries.get(fingerprint)
        if entry is not None and entry[0] == epoch:
            self.hits += 1
            return list(entry[1])
        self.misses += 1
        return None

    def store(self, fingerprint: str, epoch: int, bindings: list[Binding]) -> None:
        self.entries[fingerprint] = (epoch, tuple(bindings))


# -- structural join -------------------------------------------------------


def holistic_join(
    pattern: TreePattern, cands: list[list[StructuralId]]
) -> list[Binding]:
    """Join candidate lists over the pattern's edges (unsorted bindings);
    ``eval_local`` calls it once per document.

    ``stack_join`` is folded over the edges in BFS order, so each edge's
    parent column is already bound when the edge is joined.
    """
    if any(not c for c in cands):
        return []
    order = _bfs_order(pattern)
    slot = {idx: col for col, idx in enumerate(order)}
    parent_of = {c: (p, axis) for p, c, axis in pattern.edges}
    rows: list[tuple[StructuralId, ...]] = [(lb,) for lb in cands[0]]
    for idx in order[1:]:
        p, axis = parent_of[idx]
        pairs = stack_join(axis, rows, slot[p], [(lb,) for lb in cands[idx]], 0)
        rows = [prow + crow for prow, crow in pairs]
        if not rows:
            return []
    return [tuple(row[slot[i]] for i in range(len(order))) for row in rows]


def stack_join(
    axis: str,
    parents: list[tuple[StructuralId, ...]],
    p_col: int,
    children: list[tuple[StructuralId, ...]],
    c_col: int,
) -> list[tuple[tuple[StructuralId, ...], tuple[StructuralId, ...]]]:
    """Every (parent row, child row) whose labels satisfy ``axis``.

    Stack-Tree-Desc: both lists are merged in (doc, start) order while a
    stack holds the open parent labels, outermost first, each with its
    rows (duplicate labels share one entry).  A child is joined before
    any parent at its own start is pushed: a node is not its own ancestor.
    Labels must come from parsed documents, whose intervals nest.
    """
    parents = sorted(parents, key=lambda r: (r[p_col].doc_id, r[p_col].start))
    children = sorted(children, key=lambda r: (r[c_col].doc_id, r[c_col].start))
    stack: list[tuple[StructuralId, list[tuple[StructuralId, ...]]]] = []
    out = []
    i = 0
    for crow in children:
        c = crow[c_col]
        while i < len(parents):
            prow = parents[i]
            p = prow[p_col]
            if (p.doc_id, p.start) >= (c.doc_id, c.start):
                break
            i += 1
            _close(stack, p)
            if stack and stack[-1][0].start == p.start:
                stack[-1][1].append(prow)
            else:
                stack.append((p, [prow]))
        _close(stack, c)
        if axis == CHILD:
            # the parent is the deepest open ancestor, if it is a candidate
            if stack and stack[-1][0].depth == c.depth - 1:
                out.extend((prow, crow) for prow in stack[-1][1])
        else:
            for _, prows in stack:
                out.extend((prow, crow) for prow in prows)
    return out


def _close(stack: list, label: StructuralId) -> None:
    """Pop the open labels that do not contain ``label``."""
    while stack and (
        stack[-1][0].doc_id != label.doc_id or stack[-1][0].end < label.start
    ):
        stack.pop()
