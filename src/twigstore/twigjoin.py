"""Tree-pattern evaluation over one stack-based structural-join kernel.

``stack_join`` is the only structural join: Stack-Tree-Desc (Al-Khalifa
et al., ICDE 2002) over two row lists already in their join column's
(doc, start) order, with a stack of open ancestors, made output-sensitive
by bisecting past the rows that cannot join whenever the stack is empty
(Chien et al., VLDB 2002).  It sorts nothing: its callers sort an input
only through ``in_join_order``, and only when it is in another column's
order.  The planner's StructJoin operator calls it
directly; that is the p2p backend's only tree-pattern path.

``holistic_join`` folds it over a pattern's edges for ``local_bindings``
(the centralized backend; ``eval_local`` sorts its bindings), starting at
the edge whose join can emit the fewest rows.  Its inputs are
per-document one-label rows: a predicate-free node's are the document's
own ``Rows``, built once per name and kept with their skip index; a
predicated node's come from the document's word and value postings, the
per-tag element streams the stack joins assume (Zhang et
al., SIGMOD 2001, feed inverted word lists to the join the same way).  So
a query pays for what it joins, not for copying or sorting candidate
lists.  Results are bindings; no payloads move until recomposition.

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
    Rows,
    StructuralId,
    is_ancestor,
    is_parent,
    parse_int_content,
    split_words,
)
from .pattern import CHILD, PNode, TreePattern, bfs_edges

Binding = tuple[StructuralId, ...]
Row = tuple[StructuralId, ...]


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


def _candidate_rows(doc: Document, pnode: PNode, root_only: bool) -> Sequence[Row]:
    """The one-label rows of the nodes of ``doc`` that match ``pnode``, in
    label order, read from the document's postings without checking any
    text.  A predicate-free node's are the document's cached ``rows``; a
    word- or range-predicated node's are made from the nodes its word or
    value postings hold.  A wildcard takes every name's; a pattern node
    carries at most one value predicate, so one postings list answers it.
    ``root_only`` keeps the document root, the one node at depth 1 and the
    first in label order."""
    name = None if pnode.is_wildcard else pnode.name
    if pnode.word is not None:
        rows = [(node.label,) for node in doc.with_word(name, pnode.word)]
    elif pnode.has_range:
        rows = [(node.label,) for node in doc.in_range(name, pnode.lo, pnode.hi)]
    else:
        rows = doc.rows(name)
    if root_only:
        return rows[:1] if rows and rows[0][0].depth == 1 else []
    return rows


def eval_naive(pattern: TreePattern, docs: list[Document]) -> list[Binding]:
    """Exhaustive enumeration oracle; sorted canonically."""
    edges = bfs_edges(pattern)
    results: list[Binding] = []

    for doc in docs:
        cands = [[node.label for node in _all_nodes(doc, pnode)]
                 for pnode in pattern.nodes]
        if pattern.root_axis == CHILD:
            cands[0] = [lb for lb in cands[0] if lb.depth == 1]
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
    """``local_bindings`` sorted canonically; equals eval_naive."""
    return sort_bindings(pattern, local_bindings(pattern, docs))


def local_bindings(pattern: TreePattern, docs: list[Document]) -> list[Binding]:
    """The centralized backend's evaluation: every binding, unsorted.

    Each pattern node's candidate rows are looked up in the document's
    postings: a word-predicated node's in ``Document.with_word``, a
    range-predicated node's in ``Document.in_range`` and any other node's
    are the document's ``Document.rows``; a wildcard merges every name's.
    No text is split or parsed, and no name's labels are copied, at query
    time once a document's postings and rows are built.
    """
    bindings: list[Binding] = []
    root_only = pattern.root_axis == CHILD
    for doc in docs:
        cands = [_candidate_rows(doc, pnode, root_only and pnode.idx == 0)
                 for pnode in pattern.nodes]
        bindings.extend(holistic_join(pattern, cands))
    return bindings


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


def _edge_bound(cands: list[Sequence[Row]], edge: tuple[int, int, str]) -> int:
    """The most rows an edge's join can emit over candidate lists that hold
    each label once: one per child candidate on the child axis, whose
    child has one parent, and one per candidate pair on the descendant
    axis."""
    p, c, axis = edge
    if axis == CHILD:
        return len(cands[c])
    return len(cands[p]) * len(cands[c])


def holistic_join(pattern: TreePattern, cands: list[Sequence[Row]]) -> list[Binding]:
    """Join each pattern node's one-label candidate rows, each list in label
    order, over the pattern's edges (unsorted bindings); ``local_bindings``
    calls it once per document.

    The fold starts at the edge whose output bound (``_edge_bound``) is
    smallest, so ``/dblp/article[/venue="w"]/title!`` first joins the few
    ``venue``s to their ``article``s rather than every ``article`` to
    ``dblp``.  It then joins, one ``stack_join`` at a time, the edge out of
    the bound nodes whose unbound end has the fewest candidates (ties in
    pattern order), so the most selective lists bound the rows every later
    join steps through (join order by selectivity: Wu, Patel, Jagadish,
    ICDE 2003).  The bound rows are the parent side of an edge to a child
    and the child side of an edge to a parent.  The kernel emits them in
    the child column's label order, so they are sorted again only when the
    next join reads another column.  Duplicate candidate rows all survive.
    """
    if any(not c for c in cands):
        return []
    edges = list(pattern.edges)
    if not edges:
        return list(cands[0])
    edge = min(edges, key=lambda e: _edge_bound(cands, e))
    slot = {edge[0]: 0}  # pattern node -> its column in ``rows``
    rows, order = cands[edge[0]], 0  # ``rows`` is in column ``order``'s label order
    while True:
        edges.remove(edge)
        p, c, axis = edge
        if p in slot:
            col = slot[p]
            pairs = stack_join(axis, in_join_order(rows, col, order), col, cands[c], 0)
            rows = [prow + crow for prow, crow in pairs]
            slot[c] = order = len(slot)
        else:
            col = slot[c]
            pairs = stack_join(axis, cands[p], 0, in_join_order(rows, col, order), col)
            rows = [crow + prow for prow, crow in pairs]
            slot[p] = len(slot)
            order = col
        if not rows:
            return []
        if not edges:
            break
        edge = min(
            (e for e in edges if (e[0] in slot) != (e[1] in slot)),
            key=lambda e: len(cands[e[1] if e[0] in slot else e[0]]),
        )
    return list(map(itemgetter(*[slot[i] for i in range(len(slot))]), rows))


def in_join_order(rows: Sequence[Row], col: int, order: int = 0) -> Sequence[Row]:
    """``rows``, which are in column ``order``'s label order, in column
    ``col``'s: sorted (stably) only when the columns differ.  Callers of
    ``stack_join`` sort an input only through this, so rows already in
    join order are never sorted again."""
    return rows if col == order else sorted(rows, key=itemgetter(col))


def _skip_index(
    rows: Sequence[Row], by_p: Callable[[Row], StructuralId]
) -> list[tuple[int, int]]:
    """The prefix maximum of the rows' (doc, end), which ``stack_join``
    bisects to skip the parents that end before a child starts.  It is the
    (doc, end) list as is when that is ascending; where a name nests in
    itself (``sec`` in ``sec``) the running maximum keeps an outer parent
    findable after a parent nested in it ends.  A ``Rows`` list keeps its
    index, so a document's cached rows build it once."""
    reach = getattr(rows, "reach", None)
    if reach is None:
        reach = list(map(itemgetter(0, 2), map(by_p, rows)))
        if reach != sorted(reach):
            reach = list(accumulate(reach, max))
        if type(rows) is Rows:
            rows.reach = reach
    return reach


def stack_join(
    axis: str,
    parents: Sequence[Row],
    p_col: int,
    children: Sequence[Row],
    c_col: int,
) -> list[tuple[Row, Row]]:
    """Every (parent row, child row) whose labels satisfy ``axis``.

    Both lists must already be in their join column's label order (callers
    sort through ``in_join_order``); the kernel sorts nothing.  The
    pairs come out in the child column's label order.

    Stack-Tree-Desc: both lists are merged in label order while a stack
    holds the open parent labels, the parents that contain the current
    child, outermost first, each with its rows (duplicate labels share one
    entry).  A child is joined before any parent at its own start is
    pushed: a node is not its own ancestor.  Labels must come from parsed
    documents, whose intervals nest and whose label order is (doc, start)
    order.  Labels are read by position (doc, start, end, depth), which is
    faster than by field name.

    The merge is output-sensitive (Chien et al., VLDB 2002): whenever no
    parent is open, it bisects past the children that start before the
    next parent, or past the parents that end before the child starts.
    The second bisect reads the parents' ``_skip_index``, taken on the
    first such skip, from the list itself when it is a document's cached
    ``Rows``.
    """
    by_p, by_c = itemgetter(p_col), itemgetter(c_col)
    n_p, n_c = len(parents), len(children)
    reach: list[tuple[int, int]] | None = None
    stack: list[tuple[StructuralId, list[Row]]] = []
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
                    reach = _skip_index(parents, by_p)
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
