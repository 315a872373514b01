"""Tree-pattern evaluation over one stack-based structural-join kernel.

``stack_join`` is the only structural join: Stack-Tree-Desc (Al-Khalifa
et al., ICDE 2002) over two row lists sorted by their join column's
(doc, start), with a stack of open ancestors, made output-sensitive by
bisecting past the rows that cannot join whenever the stack is empty
(Chien et al., VLDB 2002).  The planner's StructJoin operator calls it
directly; that is the p2p backend's only tree-pattern path.
``holistic_join`` folds it over a pattern's edges for ``eval_local`` (the
centralized backend), starting from the most selective candidate list,
which ``eval_local`` looks up in each in-memory document's name, word and
value postings, the per-tag element streams the stack joins assume (Zhang
et al., SIGMOD 2001, feed inverted word lists to the join the same way).
Results are bindings; no payloads move until recomposition.

``eval_naive`` scans every node of every document for every pattern node,
checks its name and predicates against the text (``_node_matches``), and
exhaustively enumerates node assignments; it is the test oracle only and
no backend calls it.

A ``Binding`` is a tuple of structural ids aligned with ``pattern.nodes``.
All evaluators sort results by return-node ids, then by the full tuple.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Sequence

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

    The fold starts at the pattern node with the fewest candidates, then
    joins, one ``stack_join`` at a time, the edge out of the bound nodes
    whose unbound end has the fewest candidates (ties in pattern order),
    so the most selective lists bound the rows every later join steps
    through (join order by selectivity: Wu, Patel, Jagadish, ICDE 2003).
    The bound rows are the parent side of an edge to a child and the child
    side of an edge to a parent.  Duplicate candidate rows all survive.
    """
    if any(not c for c in cands):
        return []
    first = min(range(len(cands)), key=lambda k: len(cands[k]))
    slot = {first: 0}  # pattern node -> its column in ``rows``
    rows: list[tuple[StructuralId, ...]] = [(lb,) for lb in cands[first]]
    edges = list(pattern.edges)
    while edges:
        edge = min(
            (e for e in edges if (e[0] in slot) != (e[1] in slot)),
            key=lambda e: len(cands[e[1] if e[0] in slot else e[0]]),
        )
        edges.remove(edge)
        p, c, axis = edge
        if p in slot:
            pairs = stack_join(axis, rows, slot[p], [(lb,) for lb in cands[c]], 0)
            rows = [prow + crow for prow, crow in pairs]
            slot[c] = len(slot)
        else:
            pairs = stack_join(axis, [(lb,) for lb in cands[p]], 0, rows, slot[c])
            rows = [crow + prow for prow, crow in pairs]
            slot[p] = len(slot)
        if not rows:
            return []
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
    holds the open parent labels, the parents that contain the current
    child, outermost first, each with its rows (duplicate labels share one
    entry).  A child is joined before any parent at its own start is
    pushed: a node is not its own ancestor.  Labels must come from parsed
    documents, whose intervals nest and whose label order is (doc, start)
    order; the sorts are stable, so rows with one label keep their input
    order.  Labels are read by position (doc, start, end, depth), which is
    faster than by field name.

    The merge is output-sensitive (Chien et al., VLDB 2002): whenever no
    parent is open, it bisects past the children that start before the
    next parent, or past the parents that end before the child starts.
    The second bisect reads a prefix maximum of the parents' (doc, end),
    built on the first such skip, so an outer parent (``sec`` around
    ``sec``) is found even when a parent nested in it ends earlier.
    """
    by_p, by_c = itemgetter(p_col), itemgetter(c_col)
    parents = sorted(parents, key=by_p)
    children = sorted(children, key=by_c)
    n_p, n_c = len(parents), len(children)
    reach: list[tuple[int, int]] | None = None
    stack: list[tuple[StructuralId, list[tuple[StructuralId, ...]]]] = []
    out = []
    i = j = 0
    while j < n_c:
        crow = children[j]
        c = crow[c_col]
        doc, start = c[0], c[1]
        while stack:  # pop the open labels that do not contain c
            top = stack[-1][0]
            if top[0] == doc and top[2] >= start:
                break
            stack.pop()
        if not stack:
            if i == n_p:
                break
            p = parents[i][p_col]
            if c < p:
                j = bisect_left(children, p, j + 1, key=by_c)
                continue
            if p[0] != doc or p[2] < start:
                if reach is None:
                    reach = list(map(itemgetter(0, 2), map(by_p, parents)))
                    if reach != sorted(reach):  # a name nested in itself
                        reach = list(accumulate(reach, max))
                i = bisect_left(reach, (doc, start), i + 1)
        while i < n_p:
            prow = parents[i]
            p = prow[p_col]
            if p >= c:
                break
            i += 1
            # open only the ancestors of c: every open label contains c,
            # so it also contains p, and a parent ending before c joins
            # neither c nor any later child
            if p[0] == doc and p[2] >= start:
                if stack and stack[-1][0] == p:
                    stack[-1][1].append(prow)
                else:
                    stack.append((p, [prow]))
        if axis == CHILD:
            # the parent is the deepest open ancestor, if it is a candidate
            if stack and stack[-1][0][3] == c[3] - 1:
                out.extend([(prow, crow) for prow in stack[-1][1]])
        else:
            for _, prows in stack:
                out.extend([(prow, crow) for prow in prows])
        j += 1
    return out
