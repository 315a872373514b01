"""Query decomposition, operator placement, execution.

A parsed pattern is decomposed by overlay capability in one pass over its
edges: every integer-range predicate node is a unit of its own, answered
by the range overlay (the only one answering interval lookups), and each
maximal connected run of the other nodes is a unit the hash overlay
answers.  The plan joins each unit's leaves in breadth-first order, then
joins the units together over the cut edges, in pattern order.

Plans are operator trees; leaves are index lookups pinned at the peers
owning their keys, and every other operator carries the site where its
output materializes, and the columns (pattern nodes) of its rows.  An
operator's columns, site and estimates live on the plan alone: the
executor passes bare row lists, and a shipped dataset is its wire tag and
its rows' postings, split into rows by the receiving Ship's columns.  Cost
is bytes shipped: each posting is 32 bytes, so a shipped row costs 32
bytes per column, and ``Plan.est_bytes`` is computed from the estimated
rows and the columns by that rule.  Row estimates come from
the published posting counts alone: a leaf's is its key's count, and a
child-axis join's is bounded by both sides, its child side's rows and its
parent side's rows times the average fanout between the two nodes' names
(``annotate``).  A query is planned as
``decompose`` -> ``PlanBuilder.build`` (the naive placement) -> ``place``
(each join at its largest input's site, when that estimates no dearer
than the built plan).  ``place`` is the one placement optimizer; the
``rewrite`` engine beside it defines no rule and runs on no query path.

Execution interprets the plan over the simulation: Ship edges and
recomposition fetches travel as real messages, so measured stats can be
compared against the estimates.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Callable

from .document import (
    Document,
    Resource,
    StructuralId,
    recompose,
    serialize_node,
)
from .errors import PlanSiteUnreachable, UnsupportedWildcardRoot
from .indexing import (
    POSTING_SIZE,
    IndexService,
    decode_postings,
    encode_postings,
    key_count,
    range_count,
    tag_key,
    value_bounds,
    word_key,
)
from .netsim import Envelope, Network, NetworkStats, PeerId
from .overlay import REQUEST_BODY, DhtService
from .pattern import CHILD, TreePattern, bfs_edges
from .twigjoin import Row, in_join_order, stack_join

DESC_FANOUT = 4  # ancestor multiplicity assumed for descendant-axis joins
PAYLOAD_ESTIMATE = 256  # assumed serialized bytes per recomposed resource

TAG_DATASET = 0x10
TAG_FETCH = 0x11


# -- plan model --------------------------------------------------------------


class Plan:
    """One operator: its name, the site its output materializes at, its
    inputs, the fields its kind reads, and the estimates ``annotate``
    fills in."""

    __slots__ = (
        "op", "site", "kids", "key", "tag", "lo", "hi", "var", "axis",
        "parent_var", "child_var", "ret_vars", "root_only", "cols",
        "est_rows",
    )

    def __init__(
        self,
        op: str,
        site: PeerId,
        kids: list[Plan] | None = None,
        key: str | None = None,
        tag: str | None = None,
        lo: int | None = None,
        hi: int | None = None,
        var: int | None = None,
        axis: str | None = None,
        parent_var: int | None = None,
        child_var: int | None = None,
        ret_vars: tuple[int, ...] = (),
        root_only: bool = False,
        cols: tuple[int, ...] = (),
        est_rows: int = 0,
    ):
        self.op = op
        self.site = site
        self.kids = [] if kids is None else kids
        self.key = key
        self.tag = tag
        self.lo = lo
        self.hi = hi
        self.var = var
        self.axis = axis
        self.parent_var = parent_var
        self.child_var = child_var
        self.ret_vars = ret_vars
        self.root_only = root_only
        self.cols = cols
        self.est_rows = est_rows

    @property
    def est_bytes(self) -> int:
        """Estimated bytes of this operator's output, by the one wire rule:
        a shipped dataset is its tag byte and one posting per column and
        row; a Recompose's resources are ``PAYLOAD_ESTIMATE`` bytes each."""
        if self.op == "Recompose":
            return self.est_rows * PAYLOAD_ESTIMATE
        return 1 + len(self.cols) * self.est_rows * POSTING_SIZE

    def is_leaf(self) -> bool:
        return self.op in ("IndexLookup", "RangeLookup")

    def clone(self) -> "Plan":
        return self.copy([k.clone() for k in self.kids])

    def copy(self, kids: list["Plan"], site: PeerId | None = None) -> "Plan":
        """This operator over ``kids``, at ``site`` if given: one
        constructor call for each of the ~50 copies ``place`` makes per
        query."""
        return Plan(
            self.op, self.site if site is None else site, kids, self.key,
            self.tag, self.lo, self.hi, self.var, self.axis, self.parent_var,
            self.child_var, self.ret_vars, self.root_only, self.cols,
            self.est_rows,
        )


_ATTR_ORDER = (
    ("site", lambda p: p.site),
    ("key", lambda p: p.key),
    ("tag", lambda p: p.tag),
    ("lo", lambda p: p.lo),
    ("hi", lambda p: p.hi),
    ("var", lambda p: p.var),
    ("axis", lambda p: p.axis),
    ("parent", lambda p: p.parent_var),
    ("child", lambda p: p.child_var),
    ("ret", lambda p: ",".join(map(str, p.ret_vars)) if p.ret_vars else None),
    ("rootonly", lambda p: "1" if p.root_only else None),
)


def plan_to_xml(plan: Plan) -> str:
    """Canonical document encoding: one element per operator, site as attribute."""
    parts: list[str] = []

    def write(node: Plan) -> None:
        parts.append("<" + node.op)
        for name, getter in _ATTR_ORDER:
            value = getter(node)
            if value is not None:
                parts.append(f' {name}="{value}"')
        if not node.kids:
            parts.append("/>")
            return
        parts.append(">")
        for kid in node.kids:
            write(kid)
        parts.append("</" + node.op + ">")

    write(plan)
    return "".join(parts)


# -- decomposition -----------------------------------------------------------


class Decomposition:
    """The pattern's units and the join script that reassembles them.

    A unit is one range-predicated node, which the range overlay answers,
    or a maximal connected run of the other nodes, which the hash overlay
    answers; it is named by its top node.  ``joins`` are the edges between
    units, in pattern order: each one's parent lies in the root's unit or
    in a unit an earlier join attached.
    """

    def __init__(
        self,
        pattern: TreePattern,
        unit_of: dict[int, int],  # pattern node -> the top node of its unit
        joins: list[tuple[int, int, str]],  # cut edges (parent, child, axis)
    ):
        self.pattern = pattern
        self.unit_of = unit_of
        self.joins = joins


def decompose(pattern: TreePattern) -> Decomposition:
    """Split by overlay capability; range nodes cannot join a hash unit."""
    if pattern.all_wildcard:
        raise UnsupportedWildcardRoot(
            "pattern has no named node to seed an index lookup"
        )
    unit_of = {0: 0}
    joins: list[tuple[int, int, str]] = []
    for p, c, axis in pattern.edges:  # a parent's unit is known first
        if pattern.nodes[p].has_range or pattern.nodes[c].has_range:
            unit_of[c] = c
            joins.append((p, c, axis))
        else:
            unit_of[c] = unit_of[p]
    return Decomposition(pattern, unit_of, joins)


# -- plan construction --------------------------------------------------------


class PlanBuilder:
    """Builds the naive placement: leaves at key owners, the rest at the query
    peer, with Ship edges inserted by the same rule ``place`` uses."""

    def __init__(self, dht: DhtService, query_peer: PeerId):
        self.dht = dht
        self.query_peer = query_peer

    def leaf_for(self, pattern: TreePattern, idx: int) -> Plan:
        pnode = pattern.nodes[idx]
        root_only = idx == 0 and pattern.root_axis == CHILD
        if pnode.has_range:
            tag = pnode.name
            bounds = value_bounds(tag, pnode.lo, pnode.hi)
            site = (
                self.query_peer
                if pnode.is_wildcard or bounds is None
                else self.dht.range.owner_of(bounds[0])
            )
            return Plan(
                "RangeLookup", site, tag=tag, lo=pnode.lo,
                hi=pnode.hi, var=idx, root_only=root_only, cols=(idx,),
            )
        if pnode.word is not None and pnode.is_wildcard:
            key = word_key(pnode.word)
            return Plan(
                "IndexLookup", self.dht.hash.owner_of(key),
                key=key, var=idx, root_only=root_only, cols=(idx,),
            )
        if pnode.is_wildcard:
            return Plan(
                "IndexLookup", self.query_peer, key="*",
                var=idx, root_only=root_only, cols=(idx,),
            )
        key = tag_key(pnode.name)
        lookup = Plan(
            "IndexLookup", self.dht.hash.owner_of(key),
            key=key, var=idx, root_only=root_only, cols=(idx,),
        )
        if pnode.word is None:
            return lookup
        wkey = word_key(pnode.word)
        word_lookup = Plan(
            "IndexLookup", self.dht.hash.owner_of(wkey),
            key=wkey, var=idx, cols=(idx,),
        )
        return Plan("Intersect", self.query_peer, var=idx, cols=(idx,),
                    kids=[lookup, word_lookup])

    def _join(self, left: Plan, right: Plan, edge: tuple[int, int, str]) -> Plan:
        parent, child, axis = edge
        return Plan(
            "StructJoin", self.query_peer, axis=axis, parent_var=parent,
            child_var=child, cols=left.cols + right.cols, kids=[left, right],
        )

    def build(self, dec: Decomposition) -> Plan:
        """The logical plan with the placer's naive sites and Ship edges.

        Each unit's leaves are joined in breadth-first order from its top
        node; the units are then joined onto the root's, one per cut edge,
        under a Recompose at the query peer.  The Recompose's input,
        ``kids[0]``, yields the bindings.
        """
        pattern, unit_of = dec.pattern, dec.unit_of
        units = {0: self.leaf_for(pattern, 0)}  # unit -> its plan so far
        for edge in bfs_edges(pattern):
            child = edge[1]
            unit = unit_of[child]
            plan = self.leaf_for(pattern, child)
            if unit != child:  # the child extends its parent's unit
                plan = self._join(units[unit], plan, edge)
            units[unit] = plan
        acc = units[0]
        for edge in dec.joins:
            acc = self._join(acc, units[edge[1]], edge)

        acc = Plan(
            "Recompose", self.query_peer,
            ret_vars=tuple(pattern.return_nodes), cols=acc.cols, kids=[acc],
        )
        return _reship(acc)


# -- cost estimation -----------------------------------------------------------


def annotate(plan: Plan, stats: dict[str, int]) -> None:
    """Fill est_rows bottom-up from posting statistics; ``est_bytes``
    follows from it.

    A child-axis join emits at most one row per child-side row (a node has
    one parent), a sound bound; it is estimated as the smaller of that and
    the parent side's rows times the average fanout, the ceiling of
    count(child name) / count(parent name) from the published ``t:``
    counts.  The fanout term is an average, not a bound: parent-side rows
    with more children than the average are underestimated.  A parent name
    with no postings estimates 0.  Descendant joins get a flat
    ancestor-multiplicity fudge.  ``Plan.est_bytes`` matches the shipped
    wire format exactly for exact row estimates.
    """
    _annotate(plan, stats, {})


def _name_count(leaf: Plan, stats: dict[str, int]) -> int:
    """Postings published under the name of the pattern node ``leaf``
    looks up: every tag's for a wildcard, a word-only one included."""
    if leaf.op == "RangeLookup":
        return key_count(stats, "*" if leaf.tag == "*" else tag_key(leaf.tag))
    return key_count(stats, leaf.key if leaf.key.startswith("t:") else "*")


def _annotate(plan: Plan, stats: dict[str, int], names: dict[int, int]) -> None:
    """``annotate``, filling ``names`` (pattern node -> postings of its
    name) from the leaves, so a join above them reads both its nodes'."""
    for kid in plan.kids:
        _annotate(kid, stats, names)
    if plan.op == "IndexLookup":
        plan.est_rows = key_count(stats, plan.key)
        # an Intersect's tag leaf names its node; its word leaf does not
        if plan.key.startswith("t:") or plan.var not in names:
            names[plan.var] = _name_count(plan, stats)
    elif plan.op == "RangeLookup":
        plan.est_rows = range_count(stats, plan.tag, plan.lo, plan.hi)
        names[plan.var] = _name_count(plan, stats)
    elif plan.op == "Intersect":
        plan.est_rows = min(k.est_rows for k in plan.kids)
    elif plan.op == "StructJoin":
        child_side, parent_side = plan.kids
        if plan.child_var not in child_side.cols:
            child_side, parent_side = parent_side, child_side
        rows = child_side.est_rows
        if plan.axis == CHILD:
            parents = names[plan.parent_var]
            fanout = -(-names[plan.child_var] // parents) if parents else 0
            rows = min(rows, parent_side.est_rows * fanout)
        else:
            rows = int(rows * DESC_FANOUT) + 1
        plan.est_rows = rows if parent_side.est_rows and child_side.est_rows else 0
    else:  # Ship and Recompose pass rows through
        plan.est_rows = plan.kids[0].est_rows


def plan_cost(plan: Plan) -> int:
    """Estimated transfer cost: the sum over Ship edges of shipped bytes."""
    total = 0
    if plan.op == "Ship" and plan.kids[0].site != plan.site:
        total += plan.kids[0].est_bytes
    for kid in plan.kids:
        total += plan_cost(kid)
    return total


def plan_size(plan: Plan) -> int:
    return 1 + sum(plan_size(k) for k in plan.kids)


# -- rewriting ------------------------------------------------------------------


class Rule:
    def __init__(
        self,
        name: str,
        match: Callable[[Plan, Plan | None], bool],
        transform: Callable[[Plan], Plan],
    ):
        self.name = name
        self.match = match
        self.transform = transform


def _positions(plan: Plan) -> list[tuple[Plan, Plan | None, tuple[int, ...]]]:
    out: list[tuple[Plan, Plan | None, tuple[int, ...]]] = []

    def walk(node: Plan, parent: Plan | None, path: tuple[int, ...]) -> None:
        out.append((node, parent, path))
        for i, kid in enumerate(node.kids):
            walk(kid, node, path + (i,))

    walk(plan, None, ())
    return out


def _replace_at(plan: Plan, path: tuple[int, ...], new_node: Plan) -> Plan:
    if not path:
        return new_node
    root = plan.clone()
    cursor = root
    for i in path[:-1]:
        cursor = cursor.kids[i]
    cursor.kids[path[-1]] = new_node
    return root


def rewrite(
    plan: Plan,
    rules: list[Rule],
    max_passes: int,
    stats: dict[str, int] | None = None,
) -> Plan:
    """Greedy best-first rule application to fixpoint (or ``max_passes``).

    Each pass applies the single rewrite that lowers estimated cost most
    (ties: rule order, then leftmost match); zero-delta rewrites apply only
    if they strictly shrink the plan, which bounds the loop.

    No backend calls it and the program defines no rule: ``place`` is the
    one placement optimizer.  The engine, with ``Rule``, ``_replace_at``,
    ``plan_size`` and ``Plan.clone``, is kept only because the benchmark
    traces ``planner.rewrite``; it goes when that trace target is retired.
    """
    stats = stats or {}
    current = plan.clone()
    annotate(current, stats)
    for _ in range(max_passes):
        base_cost = plan_cost(current)
        base_size = plan_size(current)
        candidates = []
        for rule_i, rule in enumerate(rules):
            for pos_i, (node, parent, path) in enumerate(_positions(current)):
                if not rule.match(node, parent):
                    continue
                transformed = _replace_at(current, path, rule.transform(node))
                annotate(transformed, stats)
                candidates.append(
                    (
                        plan_cost(transformed) - base_cost,
                        rule_i,
                        pos_i,
                        plan_size(transformed) - base_size,
                        transformed,
                    )
                )
        if not candidates:
            break
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        best = candidates[0]
        if best[0] < 0:
            current = best[4]
            continue
        shrinking = [c for c in candidates if c[0] == 0 and c[3] < 0]
        if not shrinking:
            break
        current = shrinking[0][4]
    return current


# -- placement -------------------------------------------------------------------


def _strip_transport(plan: Plan) -> Plan:
    if plan.op == "Ship":
        return _strip_transport(plan.kids[0])
    return plan.copy([_strip_transport(k) for k in plan.kids])


def _ship(plan: Plan, site: PeerId) -> Plan:
    """Ship ``plan``'s output to ``site``, with the estimates ``annotate``
    gives it: a Ship carries its input's columns, and never a Recompose."""
    return Plan("Ship", site, kids=[plan], cols=plan.cols,
                est_rows=plan.est_rows)


def _reship(plan: Plan) -> Plan:
    """Insert Ship edges so every operator's inputs sit at its site."""
    kids = []
    for kid in plan.kids:
        kid = _reship(kid)
        if kid.site != plan.site:
            kid = _ship(kid, plan.site)
        kids.append(kid)
    return plan.copy(kids)


def _place_greedy(plan: Plan, query_peer: PeerId) -> Plan:
    kids = [_place_greedy(k, query_peer) for k in plan.kids]
    site = plan.site
    if plan.op in ("StructJoin", "Intersect"):
        a, b = kids
        if a.site == b.site:
            site = a.site
        elif a.est_bytes == b.est_bytes:
            site = query_peer
        else:
            site = a.site if a.est_bytes > b.est_bytes else b.site
    elif plan.op == "Recompose":
        site = query_peer
    elif not plan.is_leaf():
        site = kids[0].site if kids else query_peer
    return plan.copy(kids, site)


def _pin_root(plan: Plan, query_peer: PeerId) -> Plan:
    if plan.site == query_peer:
        return plan
    return _ship(plan, query_peer)


def place(
    plan: Plan, posting_stats: dict[str, int], query_peer: PeerId
) -> Plan:
    """Pin each join at its largest input's site; never worse than the input.

    A join whose inputs share a site stays there; one whose inputs sit
    apart and estimate the same bytes goes to the query peer.  Leaf sites
    (key owners) are preserved; Recompose and the final result are pinned
    at the query peer.  The greedy placement's estimate is
    compared against ``plan``'s own, pinned at the query peer, and the
    cheaper plan wins (greedy on a tie).  ``PlanBuilder.build`` gives the
    naive placement, so the result's estimated cost is <= the naive plan's.

    ``plan`` is annotated in place.  An estimate does not depend on the
    site, so the greedy placement copies the estimates of ``plan``'s
    operators, and each Ship it adds takes its input's.
    """
    annotate(plan, posting_stats)
    pinned = _pin_root(plan, query_peer)
    greedy = _pin_root(
        _reship(_place_greedy(_strip_transport(plan), query_peer)), query_peer
    )
    return greedy if plan_cost(greedy) <= plan_cost(pinned) else pinned


# -- execution ---------------------------------------------------------------------


def encode_dataset(rows: list[Row]) -> bytes:
    """Each row's postings, in one pass: no header, because the receiver
    runs the same plan and knows the columns."""
    return encode_postings(chain.from_iterable(rows))


def decode_dataset(payload: bytes, ncols: int) -> list[Row]:
    """The rows of ``ncols`` postings each that ``encode_dataset`` wrote."""
    sids = iter(decode_postings(payload))
    return list(zip(*[sids] * ncols))


class ExecutionContext:
    """Runtime the executor needs: overlays, index, and document homes.

    A batched subtree fetch is one of the overlay service's requests: sent
    by ``DhtService.gather`` and answered by ``DhtService.reply``.
    """

    def __init__(
        self,
        index: IndexService,
        documents: dict[int, tuple[Document, PeerId]],
    ):
        self.index = index
        self.dht = index.dht
        self.net = index.dht.net
        self.documents = documents
        self._inbox: list[bytes] = []
        self.dht.register_handler(TAG_DATASET, self._on_dataset)
        self.dht.register_handler(TAG_FETCH, self._on_fetch)

    def _on_dataset(self, net: Network, env: Envelope) -> None:
        self._inbox.append(env.payload[1:])

    def _on_fetch(self, net: Network, env: Envelope) -> None:
        """Answer a batched fetch with the payloads of the requested nodes,
        in request order."""
        payloads = []
        for doc_id, start in struct.iter_unpack(">QQ", env.payload[REQUEST_BODY:]):
            doc, _home = self.documents[doc_id]
            label = doc.node_by_start(start).label  # the request carries the start only
            payloads.append(serialize_node(doc, label).encode("utf-8"))
        self.dht.reply(env, payloads)

    def fetch_subtree(self, via: PeerId, sids: list[StructuralId]) -> list[str]:
        """The serialized subtrees of ``sids``, in order.

        Nodes whose document lives at ``via`` are serialized there; every
        other home peer gets one request for all of its nodes, and one
        ``gather`` sends them all and collects the answers.  A request's
        body is one ``(doc_id, start)`` pair per node up to the end of the
        envelope (no count is sent: the length gives it); its answer holds
        the payloads in request order.
        """
        out: list[str] = [""] * len(sids)
        remote: dict[PeerId, list[int]] = {}
        for i, sid in enumerate(sids):
            doc, home = self.documents[sid.doc_id]
            if home == via:
                out[i] = serialize_node(doc, sid)
            else:
                remote.setdefault(home, []).append(i)
        bodies = {
            home: b"".join(
                struct.pack(">QQ", sids[i].doc_id, sids[i].start) for i in slots
            )
            for home, slots in remote.items()
        }
        for home, payloads in self.dht.gather(via, TAG_FETCH, bodies).items():
            for i, raw in zip(remote[home], payloads):
                out[i] = raw.decode("utf-8")
        return out

    def ship(self, plan: Plan, rows: list[Row]) -> list[Row]:
        """Send the rows of the Ship ``plan``'s input from that input's
        site to ``plan.site``, as one envelope: ``TAG_DATASET``, then
        ``encode_dataset``.  The receiver splits the postings into rows by
        ``len(plan.cols)``."""
        frm = plan.kids[0].site
        if frm == plan.site:
            return rows
        self.net.send(frm, plan.site, bytes([TAG_DATASET]) + encode_dataset(rows))
        self.dht.drain()
        return decode_dataset(self._inbox.pop(), len(plan.cols))


def execute(
    plan: Plan, ctx: ExecutionContext
) -> tuple[list[Row] | list[Resource], NetworkStats]:
    """Interpret the plan over the simulation; returns (result, stats delta).

    A Recompose root yields resources; any other root yields its rows, one
    label per column of ``plan.cols``."""
    for node, _, _ in _positions(plan):
        if node.site not in ctx.net.peers:
            raise PlanSiteUnreachable(f"peer {node.site} is not alive")
    before = ctx.net.stats.copy()
    result = _run(plan, ctx)
    delta = ctx.net.stats.delta_since(before)
    return result, delta


def _run(plan: Plan, ctx: ExecutionContext):
    """``plan``'s output at ``plan.site``.  An operator's rows hold one
    label per column of ``plan.cols`` and rise in label order, so they are
    in their first column's order; each input runs left before right."""
    if plan.op == "IndexLookup":
        return _leaf_rows(plan, ctx.index.lookup(plan.key, plan.site))
    if plan.op == "RangeLookup":
        return _leaf_rows(plan, ctx.index.lookup_value_range(
            plan.tag, plan.lo, plan.hi, plan.site))
    if plan.op == "Ship":
        return ctx.ship(plan, _run(plan.kids[0], ctx))
    if plan.op == "Intersect":
        return _run_intersect(plan, ctx)
    if plan.op == "StructJoin":
        return _run_join(plan, ctx)
    if plan.op == "Recompose":
        return _run_recompose(plan, _run(plan.kids[0], ctx), ctx)
    raise ValueError(f"unknown operator {plan.op}")


def _leaf_rows(plan: Plan, sids: list[StructuralId]) -> list[Row]:
    """A leaf's rows: the index's distinct, sorted postings, kept to the
    document roots for a root-anchored pattern node."""
    if plan.root_only:
        sids = [s for s in sids if s.depth == 1]
    return [(sid,) for sid in sids]


def _run_intersect(plan: Plan, ctx: ExecutionContext) -> list[Row]:
    """The labels both inputs hold, in label order.

    The placed plan puts a word-predicated node's Intersect at one list's
    owner and ships the other list to it.  The local list is then read as
    raw records, of which only those the shipped list holds are decoded
    (``IndexService.lookup_among``); when both lists are local, the larger
    estimate is read that way.  With no local list (the naive plan ships
    both to the query peer), the first input is filtered by the second's
    labels.
    """
    local = [k for k in plan.kids if k.op == "IndexLookup" and k.site == plan.site]
    if local:
        stored = max(local, key=lambda k: k.est_rows)
        other = _run(plan.kids[1] if stored is plan.kids[0] else plan.kids[0], ctx)
        sids = ctx.index.lookup_among(stored.key, stored.site, (row[0] for row in other))
        return _leaf_rows(stored, sids)
    left = _run(plan.kids[0], ctx)
    right = _run(plan.kids[1], ctx)
    shared = set(r[0] for r in right)
    return [r for r in left if r[0] in shared]


def _run_join(plan: Plan, ctx: ExecutionContext) -> list[Row]:
    """Each parent-side row joined with each child-side row it holds by
    ``plan.axis``, as left columns then right columns, sorted."""
    sides = [(kid.cols, _run(kid, ctx)) for kid in plan.kids]  # left first
    parent_left = plan.parent_var in sides[0][0]
    (p_cols, p_rows), (c_cols, c_rows) = sides if parent_left else sides[::-1]
    p_col = p_cols.index(plan.parent_var)
    c_col = c_cols.index(plan.child_var)
    pairs = stack_join(
        plan.axis, in_join_order(p_rows, p_col), p_col,
        in_join_order(c_rows, c_col), c_col,
    )
    if parent_left:
        out_rows = [prow + crow for prow, crow in pairs]
    else:
        out_rows = [crow + prow for prow, crow in pairs]
    out_rows.sort()
    return out_rows


def _run_recompose(
    plan: Plan, rows: list[Row], ctx: ExecutionContext
) -> list[Resource]:
    slots = [plan.kids[0].cols.index(var) for var in plan.ret_vars]
    return recompose(
        (row[i] for row in rows for i in slots),
        lambda sids: ctx.fetch_subtree(plan.site, sids),
    )
