"""Tree-pattern evaluation over one stack-based structural-join kernel.

``stack_join`` is the only structural join: Stack-Tree-Desc (Al-Khalifa
et al., ICDE 2002) over two row lists sorted by their join column's
(doc, start), with a stack of open ancestors.  The planner's StructJoin
operator calls it directly; that is the p2p backend's only tree-pattern
path.  ``holistic_join`` folds it over a pattern's edges for
``eval_local`` (the centralized backend), which feeds it candidates
looked up in each in-memory document's name, word and value postings, the
per-tag element streams the stack joins assume (Zhang et al., SIGMOD
2001, feed inverted word lists to the join the same way).  Results are
bindings; no payloads move until recomposition.

``eval_naive`` scans every node of every document for every pattern node,
checks its name and predicates against the text (``_node_matches``), and
exhaustively enumerates node assignments; it is the test oracle only and
no backend calls it.

A ``Binding`` is a tuple of structural ids aligned with ``pattern.nodes``.
All evaluators sort results by return-node ids, then by the full tuple.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

from .document import (
    ATTRIBUTE,
    ELEMENT,
    TEXT,
    Document,
    Node,
    StructuralId,
    is_ancestor,
    is_parent,
    parse_int_content,
    split_words,
)
from .pattern import CHILD, PNode, TreePattern, bfs_edges

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
    return _predicates_hold(doc, node, pnode)


def _predicates_hold(doc: Document, node: Node, pnode: PNode) -> bool:
    """Whether ``node``'s text children satisfy ``pnode``'s word and range
    predicates."""
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
    """The nodes of ``doc`` that match ``pnode``, each checked in full
    against its text; only the ``eval_naive`` oracle runs these checks."""
    return [node for node in doc.nodes if _node_matches(doc, node, pnode)]


def _named_nodes(doc: Document, pnode: PNode) -> Sequence[Node]:
    """The nodes of ``doc`` that match ``pnode``, in document order, read
    from the document's word, value or name postings without checking any
    text.  A wildcard takes every name's; a pattern node carries at most
    one value predicate, so one postings list answers it."""
    name = None if pnode.is_wildcard else pnode.name
    if pnode.word is not None:
        return doc.with_word(name, pnode.word)
    if pnode.has_range:
        return doc.in_range(name, pnode.lo, pnode.hi)
    if name is None:
        return [node for node in doc.nodes if node.kind != TEXT]
    return doc.named(name)


def _doc_candidates(
    pattern: TreePattern,
    doc: Document,
    matches: Callable[[Document, PNode], Sequence[Node]],
) -> list[list[StructuralId]]:
    """One candidate list per pattern node: the labels of ``matches(doc,
    pnode)``, in document order."""
    cands: list[list[StructuralId]] = []
    for pnode in pattern.nodes:
        labels = [node.label for node in matches(doc, pnode)]
        if pnode.idx == 0 and pattern.root_axis == CHILD:
            labels = [lb for lb in labels if lb.depth == 1]
        cands.append(labels)
    return cands


def eval_naive(pattern: TreePattern, docs: list[Document]) -> list[Binding]:
    """Exhaustive enumeration oracle; sorted canonically."""
    edges = bfs_edges(pattern)
    results: list[Binding] = []

    for doc in docs:
        cands = _doc_candidates(pattern, doc, _all_nodes)
        if any(not c for c in cands):
            continue
        bound: list[StructuralId | None] = [None] * len(pattern.nodes)

        def assign(k: int) -> None:
            if k == len(edges):
                results.append(tuple(bound))  # type: ignore[arg-type]
                return
            p, c, axis = edges[k]
            for label in cands[c]:
                if axis_holds(axis, bound[p], label):
                    bound[c] = label
                    assign(k + 1)

        for label in cands[0]:
            bound[0] = label
            assign(0)

    return sort_bindings(pattern, results)


def eval_local(pattern: TreePattern, docs: list[Document]) -> list[Binding]:
    """The centralized backend's evaluator; equals eval_naive.

    Each pattern node's candidates are looked up in the document's
    postings: a word-predicated node's in ``Document.with_word``, a
    range-predicated node's in ``Document.in_range`` and any other node's
    in ``Document.named``; a wildcard merges every name's.  No text is
    split or parsed at query time once a document's postings are built.
    """
    bindings: list[Binding] = []
    for doc in docs:
        cands = _doc_candidates(pattern, doc, _named_nodes)
        bindings.extend(holistic_join(pattern, cands))
    return sort_bindings(pattern, bindings)


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
    slot = {0: 0}  # pattern node -> its column in ``rows``
    rows: list[tuple[StructuralId, ...]] = [(lb,) for lb in cands[0]]
    for p, c, axis in bfs_edges(pattern):
        pairs = stack_join(axis, rows, slot[p], [(lb,) for lb in cands[c]], 0)
        rows = [prow + crow for prow, crow in pairs]
        if not rows:
            return []
        slot[c] = len(slot)
    return [tuple(row[slot[i]] for i in range(len(slot))) for row in rows]


def stack_join(
    axis: str,
    parents: list[tuple[StructuralId, ...]],
    p_col: int,
    children: list[tuple[StructuralId, ...]],
    c_col: int,
) -> list[tuple[tuple[StructuralId, ...], tuple[StructuralId, ...]]]:
    """Every (parent row, child row) whose labels satisfy ``axis``.

    Stack-Tree-Desc: both lists are merged in label order while a stack
    holds the open parent labels, outermost first, each with its rows
    (duplicate labels share one entry).  A child is joined before any
    parent at its own start is pushed: a node is not its own ancestor.
    Labels must come from parsed documents, whose intervals nest and whose
    label order is (doc, start) order; the sorts are stable, so rows with
    one label keep their input order.  Labels are read by position
    (doc, start, end, depth), which is faster than by field name.
    """
    parents = sorted(parents, key=itemgetter(p_col))
    children = sorted(children, key=itemgetter(c_col))
    stack: list[tuple[StructuralId, list[tuple[StructuralId, ...]]]] = []
    out = []
    i = 0
    for crow in children:
        c = crow[c_col]
        while i < len(parents):
            prow = parents[i]
            p = prow[p_col]
            if p >= c:
                break
            i += 1
            _close(stack, p)
            if stack and stack[-1][0] == p:
                stack[-1][1].append(prow)
            else:
                stack.append((p, [prow]))
        _close(stack, c)
        if axis == CHILD:
            # the parent is the deepest open ancestor, if it is a candidate
            if stack and stack[-1][0][3] == c[3] - 1:
                out.extend((prow, crow) for prow in stack[-1][1])
        else:
            for _, prows in stack:
                out.extend((prow, crow) for prow in prows)
    return out


def _close(stack: list, label: StructuralId) -> None:
    """Pop the open labels that do not contain ``label``."""
    doc_id, start = label[0], label[1]
    while stack:
        top = stack[-1][0]
        if top[0] == doc_id and top[2] >= start:
            return
        stack.pop()
