"""Query decomposition, operator placement, execution.

A parsed pattern is decomposed by overlay capability: every integer-range
predicate node becomes a range-overlay subquery (that overlay is the only
one answering interval lookups), and the maximal connected remainders
become hash-overlay subqueries.  The recomposition script joins subquery
outputs over the pattern edges that were cut.

Plans are operator trees; leaves are index lookups pinned at the peers
owning their keys, and every other operator carries the site where its
output materializes.  Cost is bytes shipped: each posting is 32 bytes and
a shipped binding row costs 32 bytes per column.  A query is planned as
``decompose`` -> ``PlanBuilder.build`` (the naive placement) -> ``place``
(each join at its largest input's site, when that estimates cheaper).
The rule-based ``rewrite`` engine is off that path: ``place`` re-derives
every Ship edge and non-leaf site, so it would discard what rewriting did.

Execution interprets the plan over the simulation: Ship edges and
recomposition fetches travel as real messages, so measured stats can be
compared against the estimates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Callable

from .document import (
    INT_WINDOW,
    Document,
    Resource,
    StructuralId,
    recompose,
    serialize_node,
)
from .errors import NotRangeCapable, PlanSiteUnreachable, UnsupportedWildcardRoot
from .indexing import (
    POSTING_SIZE,
    IndexService,
    decode_posting,
    encode_posting,
    tag_key,
    value_key,
    word_key,
)
from .netsim import Envelope, Network, NetworkStats, PeerId
from .overlay import pack_bytes, unpack_bytes
from .pattern import CHILD, TreePattern
from .twigjoin import Binding, sort_bindings, stack_join

DESC_FANOUT = 4  # ancestor multiplicity assumed for descendant-axis joins
PAYLOAD_ESTIMATE = 256  # assumed serialized bytes per recomposed resource
_WIRE_HEADER = 6  # tag byte + column count + row count of a shipped dataset

TAG_DATASET = 0x10
TAG_FETCH = 0x11
TAG_FETCH_RESP = 0x12


# -- plan model --------------------------------------------------------------


@dataclass
class Plan:
    op: str
    site: PeerId
    kids: list["Plan"] = field(default_factory=list)
    dht: int | None = None
    key: str | None = None
    tag: str | None = None
    lo: int | None = None
    hi: int | None = None
    var: int | None = None
    axis: str | None = None
    parent_var: int | None = None
    child_var: int | None = None
    ret_vars: tuple[int, ...] = ()
    root_only: bool = False
    cols: tuple[int, ...] = ()
    est_rows: int = 0
    est_bytes: int = 0

    def is_leaf(self) -> bool:
        return self.op in ("IndexLookup", "RangeLookup")

    def clone(self) -> "Plan":
        return replace(self, kids=[k.clone() for k in self.kids])


_ATTR_ORDER = (
    ("site", lambda p: p.site),
    ("dht", lambda p: p.dht),
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


@dataclass
class Decomposition:
    """Per-overlay subqueries plus the join script that reassembles them."""

    pattern: TreePattern
    hash_fragments: list[list[int]]
    range_nodes: list[int]
    joins: list[tuple[int, int, str]]  # cut edges (parent, child, axis), in order
    unit_of: dict[int, int]  # pattern node -> its unit: fragments, then range nodes

    @property
    def subqueries(self) -> list[tuple[str, list[int]]]:
        subs: list[tuple[str, list[int]]] = [
            ("hash", frag) for frag in self.hash_fragments
        ]
        subs.extend(("range", [idx]) for idx in self.range_nodes)
        return subs


def decompose(pattern: TreePattern) -> Decomposition:
    """Split by overlay capability; range nodes cannot join a hash subquery."""
    if pattern.all_wildcard:
        raise UnsupportedWildcardRoot(
            "pattern has no named node to seed an index lookup"
        )
    range_nodes = [n.idx for n in pattern.nodes if n.has_range]
    range_set = set(range_nodes)
    hash_nodes = [n.idx for n in pattern.nodes if n.idx not in range_set]

    adjacency: dict[int, list[int]] = {idx: [] for idx in hash_nodes}
    for p, c, _ in pattern.edges:
        if p not in range_set and c not in range_set:
            adjacency[p].append(c)
            adjacency[c].append(p)
    fragments: list[list[int]] = []
    seen: set[int] = set()
    for idx in hash_nodes:
        if idx in seen:
            continue
        component = []
        queue = [idx]
        seen.add(idx)
        while queue:
            cur = queue.pop(0)
            component.append(cur)
            for other in adjacency[cur]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        fragments.append(sorted(component))

    unit_of: dict[int, int] = {}
    for i, frag in enumerate(fragments):
        for idx in frag:
            unit_of[idx] = i
    for j, idx in enumerate(range_nodes):
        unit_of[idx] = len(fragments) + j

    cut = [
        (p, c, axis)
        for p, c, axis in pattern.edges
        if unit_of[p] != unit_of[c]
    ]
    # assemble starting from the unit holding the pattern root, attaching one
    # connected unit per cut edge
    assembled = {unit_of[0]}
    joins: list[tuple[int, int, str]] = []
    remaining = list(cut)
    while remaining:
        for i, (p, c, axis) in enumerate(remaining):
            if unit_of[p] in assembled or unit_of[c] in assembled:
                joins.append((p, c, axis))
                assembled.add(unit_of[p])
                assembled.add(unit_of[c])
                del remaining[i]
                break
        else:  # disconnected pattern cannot happen: patterns are trees
            raise AssertionError("cut edges do not connect the decomposition")
    return Decomposition(pattern, fragments, range_nodes, joins, unit_of)


# -- plan construction --------------------------------------------------------


class PlanBuilder:
    """Builds the naive placement: leaves at key owners, the rest at the query
    peer, with Ship edges inserted by the same rule ``place`` uses."""

    def __init__(
        self,
        hash_dht: int,
        range_dht: int | None,
        locator: Callable[[int, str], PeerId],
        query_peer: PeerId,
    ):
        self.hash_dht = hash_dht
        self.range_dht = range_dht
        self.locator = locator
        self.query_peer = query_peer

    def leaf_for(self, pattern: TreePattern, idx: int) -> Plan:
        pnode = pattern.nodes[idx]
        root_only = idx == 0 and pattern.root_axis == CHILD
        if pnode.has_range:
            dht = self.range_dht
            tag = pnode.name
            if dht is None:
                raise NotRangeCapable("no range overlay configured")
            lo_clamped = min(max(pnode.lo, -INT_WINDOW), INT_WINDOW)
            site = (
                self.query_peer
                if pnode.is_wildcard
                else self.locator(dht, value_key(tag, lo_clamped))
            )
            return Plan(
                "RangeLookup", site, dht=dht, tag=tag, lo=pnode.lo, hi=pnode.hi,
                var=idx, root_only=root_only, cols=(idx,),
            )
        if pnode.word is not None and pnode.is_wildcard:
            key = word_key(pnode.word)
            return Plan(
                "IndexLookup", self.locator(self.hash_dht, key),
                dht=self.hash_dht, key=key, var=idx, root_only=root_only, cols=(idx,),
            )
        if pnode.is_wildcard:
            return Plan(
                "IndexLookup", self.query_peer, dht=self.hash_dht, key="*",
                var=idx, root_only=root_only, cols=(idx,),
            )
        key = tag_key(pnode.name)
        lookup = Plan(
            "IndexLookup", self.locator(self.hash_dht, key),
            dht=self.hash_dht, key=key, var=idx, root_only=root_only, cols=(idx,),
        )
        if pnode.word is None:
            return lookup
        wkey = word_key(pnode.word)
        word_lookup = Plan(
            "IndexLookup", self.locator(self.hash_dht, wkey),
            dht=self.hash_dht, key=wkey, var=idx, cols=(idx,),
        )
        return Plan("Intersect", self.query_peer, var=idx, cols=(idx,),
                    kids=[lookup, word_lookup])

    def fragment_plan(self, pattern: TreePattern, fragment: list[int]) -> Plan:
        frag_set = set(fragment)
        root_idx = next(
            idx for idx in fragment
            if (pattern.parent_edge(idx) is None
                or pattern.parent_edge(idx)[0] not in frag_set)
        )
        acc = self.leaf_for(pattern, root_idx)
        queue = [root_idx]
        while queue:
            cur = queue.pop(0)
            for child, axis in pattern.children(cur):
                if child not in frag_set:
                    continue
                right = self.leaf_for(pattern, child)
                acc = Plan(
                    "StructJoin", self.query_peer, axis=axis,
                    parent_var=cur, child_var=child,
                    cols=acc.cols + right.cols, kids=[acc, right],
                )
                queue.append(child)
        return acc

    def build(self, dec: Decomposition, with_recompose: bool) -> Plan:
        """The logical plan with the placer's naive sites and Ship edges."""
        pattern = dec.pattern
        unit_plans = [self.fragment_plan(pattern, frag) for frag in dec.hash_fragments]
        unit_plans += [self.leaf_for(pattern, idx) for idx in dec.range_nodes]

        unit_of = dec.unit_of
        acc = unit_plans[unit_of[0]]
        merged = {unit_of[0]}
        for p, c, axis in dec.joins:
            other = unit_of[c] if unit_of[p] in merged else unit_of[p]
            acc = Plan(
                "StructJoin", self.query_peer, axis=axis,
                parent_var=p, child_var=c,
                cols=acc.cols + unit_plans[other].cols, kids=[acc, unit_plans[other]],
            )
            merged.add(other)

        if with_recompose:
            acc = Plan(
                "Recompose", self.query_peer,
                ret_vars=tuple(pattern.return_nodes), cols=acc.cols, kids=[acc],
            )
        return _pin_root(_reship(acc), self.query_peer)


# -- cost estimation -----------------------------------------------------------


def range_stat(stats: dict[str, int], tag: str, lo: int, hi: int) -> int:
    total = 0
    if tag == "*":
        prefixes = [k.split("=", 1)[0] + "=" for k in stats if k.startswith("v:")]
        tags = sorted({p[2:-1] for p in prefixes})
    else:
        tags = [tag]
    for t in tags:
        lo_key = value_key(t, max(lo, -INT_WINDOW))
        hi_key = value_key(t, min(hi, INT_WINDOW))
        for key, count in stats.items():
            if key.startswith(f"v:{t}=") and lo_key <= key <= hi_key:
                total += count
    return total


def annotate(plan: Plan, stats: dict[str, int]) -> None:
    """Fill est_rows/est_bytes bottom-up from posting statistics.

    A child-axis join emits at most one row per child-side row (a node has
    one parent), so that estimate is a sound bound; descendant joins get a
    flat ancestor-multiplicity fudge.  est_bytes matches the shipped wire
    format exactly for exact row estimates.
    """
    for kid in plan.kids:
        annotate(kid, stats)
    if plan.op == "IndexLookup":
        if plan.key == "*":
            rows = sum(c for k, c in stats.items() if k.startswith("t:"))
        else:
            rows = stats.get(plan.key, 0)
        plan.est_rows = rows
    elif plan.op == "RangeLookup":
        plan.est_rows = range_stat(stats, plan.tag, plan.lo, plan.hi)
    elif plan.op == "Intersect":
        plan.est_rows = min(k.est_rows for k in plan.kids)
    elif plan.op == "StructJoin":
        child_side = next(
            (k for k in plan.kids if plan.child_var in k.cols), plan.kids[0]
        )
        bound = min(k.est_rows for k in plan.kids)
        rows = child_side.est_rows
        if plan.axis != CHILD:
            rows = int(rows * DESC_FANOUT) + 1
        plan.est_rows = rows if bound else 0
    else:  # Ship and Recompose pass rows through
        plan.est_rows = plan.kids[0].est_rows
    if plan.op == "Recompose":
        plan.est_bytes = plan.est_rows * PAYLOAD_ESTIMATE
    else:
        ncols = max(1, len(plan.cols))
        plan.est_bytes = (
            _WIRE_HEADER + 2 * ncols + plan.est_rows * POSTING_SIZE * ncols
        )


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


@dataclass
class Rule:
    name: str
    match: Callable[[Plan, Plan | None], bool]
    transform: Callable[[Plan], Plan]


def _origin(plan: Plan) -> Plan:
    return plan.kids[0] if plan.op == "Ship" else plan


def _match_push_join(plan: Plan, parent: Plan | None) -> bool:
    if plan.op not in ("StructJoin", "Intersect") or len(plan.kids) != 2:
        return False
    a, b = (_origin(k) for k in plan.kids)
    if a.est_bytes == b.est_bytes:
        return False
    larger = a if a.est_bytes > b.est_bytes else b
    return larger.site != plan.site


def _transform_push_join(plan: Plan) -> Plan:
    a, b = (_origin(k).clone() for k in plan.kids)
    new = replace(plan, kids=[])
    new.site = (a if a.est_bytes > b.est_bytes else b).site

    def locate(kid: Plan) -> Plan:
        if kid.site != new.site:
            return Plan("Ship", new.site, kids=[kid], cols=kid.cols)
        return kid

    new.kids = [locate(a), locate(b)]
    return new


def _match_ship_chain(plan: Plan, parent: Plan | None) -> bool:
    return plan.op == "Ship" and plan.kids[0].op == "Ship"


def _transform_ship_chain(plan: Plan) -> Plan:
    inner = plan.kids[0]
    return Plan("Ship", plan.site, kids=[inner.kids[0].clone()], cols=plan.cols)


def _lookup_signature(plan: Plan):
    if plan.op not in ("IndexLookup", "RangeLookup"):
        return None
    return (plan.op, plan.dht, plan.key, plan.tag, plan.lo, plan.hi,
            plan.var, plan.root_only)


def _match_fuse_lookups(plan: Plan, parent: Plan | None) -> bool:
    if plan.op != "Intersect" or len(plan.kids) != 2:
        return False
    a, b = (_origin(k) for k in plan.kids)
    sig_a, sig_b = _lookup_signature(a), _lookup_signature(b)
    return sig_a is not None and sig_a == sig_b


def _transform_fuse_lookups(plan: Plan) -> Plan:
    kept = _origin(plan.kids[0]).clone()
    if kept.site == plan.site:
        return kept
    return Plan("Ship", plan.site, kids=[kept], cols=kept.cols)


def _match_dead_op(plan: Plan, parent: Plan | None) -> bool:
    if plan.op == "Ship" and plan.kids[0].site == plan.site:
        return True
    if plan.op == "Intersect" and len(plan.kids) == 1:
        return True
    return False


def _transform_dead_op(plan: Plan) -> Plan:
    return plan.kids[0].clone()


def default_rules() -> list[Rule]:
    return [
        Rule("push-join-to-larger-input", _match_push_join, _transform_push_join),
        Rule("fuse-duplicate-lookups", _match_fuse_lookups, _transform_fuse_lookups),
        Rule("collapse-ship-chain", _match_ship_chain, _transform_ship_chain),
        Rule("drop-dead-operator", _match_dead_op, _transform_dead_op),
    ]


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

    No backend calls it: ``place`` returns the same plan for a rewritten
    input as for the original.  It stays, with ``Rule``, the four rules,
    ``plan_size`` and ``Plan.clone``, only for its unit tests and because
    the benchmark traces ``planner.rewrite``; all of it goes when that
    trace target is retired.
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
    node = replace(plan, kids=[_strip_transport(k) for k in plan.kids])
    return node


def _reship(plan: Plan) -> Plan:
    """Insert Ship edges so every operator's inputs sit at its site."""
    kids = []
    for kid in plan.kids:
        kid = _reship(kid)
        if kid.site != plan.site:
            kid = Plan("Ship", plan.site, kids=[kid], cols=kid.cols)
        kids.append(kid)
    return replace(plan, kids=kids)


def _place_greedy(plan: Plan, query_peer: PeerId) -> Plan:
    kids = [_place_greedy(k, query_peer) for k in plan.kids]
    node = replace(plan, kids=kids)
    if node.op in ("StructJoin", "Intersect"):
        a, b = kids
        if a.est_bytes == b.est_bytes:
            node.site = query_peer
        else:
            node.site = a.site if a.est_bytes > b.est_bytes else b.site
    elif node.op == "Recompose":
        node.site = query_peer
    elif not node.is_leaf():
        node.site = kids[0].site if kids else query_peer
    return node


def _place_naive(plan: Plan, query_peer: PeerId) -> Plan:
    kids = [_place_naive(k, query_peer) for k in plan.kids]
    node = replace(plan, kids=kids)
    if not node.is_leaf():
        node.site = query_peer
    return node


def _pin_root(plan: Plan, query_peer: PeerId) -> Plan:
    if plan.site == query_peer:
        return plan
    return Plan("Ship", query_peer, kids=[plan], cols=plan.cols)


def place(
    plan: Plan, posting_stats: dict[str, int], query_peer: PeerId
) -> Plan:
    """Pin each join at its largest input's site; never worse than naive.

    Leaf sites (key owners) are preserved; Recompose and the final result
    are pinned at the query peer.  The greedy placement's estimate is
    compared against the naive all-to-query-peer placement and the cheaper
    plan wins, so the result's estimated cost is <= the naive plan's.
    """
    logical = _strip_transport(plan)
    annotate(logical, posting_stats)

    greedy = _pin_root(_reship(_place_greedy(logical, query_peer)), query_peer)
    annotate(greedy, posting_stats)
    naive = _pin_root(_reship(_place_naive(logical, query_peer)), query_peer)
    annotate(naive, posting_stats)
    return greedy if plan_cost(greedy) <= plan_cost(naive) else naive


# -- execution ---------------------------------------------------------------------


@dataclass
class Dataset:
    cols: tuple[int, ...]
    rows: list[tuple[StructuralId, ...]]
    site: PeerId


def encode_dataset(ds: Dataset) -> bytes:
    """Column count (1 byte below 0xFF, else 0xFF and 4 more bytes), row
    count, column ids, then each row's postings."""
    ncols = len(ds.cols)
    head = struct.pack(">B", ncols) if ncols < 0xFF else struct.pack(">BI", 0xFF, ncols)
    head += struct.pack(">I", len(ds.rows))
    head += b"".join(struct.pack(">H", c) for c in ds.cols)
    body = b"".join(
        encode_posting(sid) for row in ds.rows for sid in row
    )
    return head + body


def decode_dataset(payload: bytes, site: PeerId) -> Dataset:
    ncols, off = payload[0], 1
    if ncols == 0xFF:
        (ncols,) = struct.unpack_from(">I", payload, off)
        off += 4
    (nrows,) = struct.unpack_from(">I", payload, off)
    off += 4
    cols = struct.unpack_from(f">{ncols}H", payload, off) if ncols else ()
    off += 2 * ncols
    rows = []
    for _ in range(nrows):
        row = tuple(
            decode_posting(payload[off + i * 32 : off + (i + 1) * 32])
            for i in range(ncols)
        )
        off += 32 * ncols
        rows.append(row)
    return Dataset(tuple(cols), rows, site)


class ExecutionContext:
    """Runtime the executor needs: overlays, index, and document homes."""

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
        self._fetches: dict[int, str] = {}
        self._next_req = 0
        self.dht.register_handler(TAG_DATASET, self._on_dataset)
        self.dht.register_handler(TAG_FETCH, self._on_fetch)
        self.dht.register_handler(TAG_FETCH_RESP, self._on_fetch_resp)

    def _on_dataset(self, net: Network, env: Envelope) -> None:
        self._inbox.append(env.payload[1:])

    def _on_fetch(self, net: Network, env: Envelope) -> None:
        req, origin, doc_id, start = struct.unpack_from(">IQQQ", env.payload, 1)
        doc, _home = self.documents[doc_id]
        label = doc.node_by_start(start).label  # the request carries the start only
        payload = serialize_node(doc, label).encode("utf-8")
        net.send(env.to_peer, origin, bytes([TAG_FETCH_RESP])
                 + struct.pack(">I", req) + pack_bytes(payload))

    def _on_fetch_resp(self, net: Network, env: Envelope) -> None:
        (req,) = struct.unpack_from(">I", env.payload, 1)
        raw, _ = unpack_bytes(env.payload, 5)
        self._fetches[req] = raw.decode("utf-8")

    def fetch_subtree(self, via: PeerId, sid: StructuralId) -> str:
        doc, home = self.documents[sid.doc_id]
        if home == via:
            return serialize_node(doc, sid)
        self._next_req += 1
        req = self._next_req
        self.net.send(
            via, home,
            bytes([TAG_FETCH])
            + struct.pack(">IQQQ", req, via, sid.doc_id, sid.start),
        )
        self.net.run_until_quiescent(self.dht.tick_budget)
        return self._fetches.pop(req)

    def ship(self, ds: Dataset, to: PeerId) -> Dataset:
        if ds.site == to:
            return ds
        payload = bytes([TAG_DATASET]) + encode_dataset(ds)
        self.net.send(ds.site, to, payload)
        self.net.run_until_quiescent(self.dht.tick_budget)
        return decode_dataset(self._inbox.pop(), to)


def execute(
    plan: Plan, ctx: ExecutionContext
) -> tuple[Dataset | list[Resource], NetworkStats]:
    """Interpret the plan over the simulation; returns (result, stats delta)."""
    for node, _, _ in _positions(plan):
        if node.site not in ctx.net.peers:
            raise PlanSiteUnreachable(f"peer {node.site} is not alive")
    before = ctx.net.stats.copy()
    result = _run(plan, ctx)
    delta = ctx.net.stats.delta_since(before)
    return result, delta


def _run(plan: Plan, ctx: ExecutionContext):
    if plan.op == "IndexLookup":
        return _run_index_lookup(plan, ctx)
    if plan.op == "RangeLookup":
        return _run_range_lookup(plan, ctx)
    if plan.op == "Ship":
        ds = _run(plan.kids[0], ctx)
        return ctx.ship(ds, plan.site)
    if plan.op == "Intersect":
        left = _run(plan.kids[0], ctx)
        right = _run(plan.kids[1], ctx)
        shared = set(r[0] for r in right.rows)
        rows = sorted(set(r for r in left.rows if r[0] in shared))
        return Dataset(left.cols, rows, plan.site)
    if plan.op == "StructJoin":
        return _run_join(plan, ctx)
    if plan.op == "Recompose":
        ds = _run(plan.kids[0], ctx)
        return _run_recompose(plan, ds, ctx)
    raise ValueError(f"unknown operator {plan.op}")


def _leaf_filter(plan: Plan, sids: list[StructuralId]) -> list[StructuralId]:
    if plan.root_only:
        sids = [s for s in sids if s.depth == 1]
    return sorted(set(sids))


def _run_index_lookup(plan: Plan, ctx: ExecutionContext) -> Dataset:
    if plan.key == "*":
        sids = ctx.index.lookup_all(plan.site)
    else:
        values = ctx.dht.get(plan.dht, plan.site, plan.key)
        sids = [decode_posting(v) for v in values]
    rows = [(sid,) for sid in _leaf_filter(plan, sids)]
    return Dataset((plan.var,), rows, plan.site)


def _run_range_lookup(plan: Plan, ctx: ExecutionContext) -> Dataset:
    if plan.tag == "*":
        pool: set[StructuralId] = set()
        for tag in ctx.index.known_tags(plan.site):
            pool.update(
                ctx.index.lookup_value_range(tag, plan.lo, plan.hi, plan.site)
            )
        sids = sorted(pool)
    else:
        sids = ctx.index.lookup_value_range(plan.tag, plan.lo, plan.hi, plan.site)
    rows = [(sid,) for sid in _leaf_filter(plan, sids)]
    return Dataset((plan.var,), rows, plan.site)


def _run_join(plan: Plan, ctx: ExecutionContext) -> Dataset:
    left = _run(plan.kids[0], ctx)
    right = _run(plan.kids[1], ctx)
    if plan.parent_var in left.cols:
        p_ds, c_ds = left, right
    else:
        p_ds, c_ds = right, left
    pairs = stack_join(
        plan.axis, p_ds.rows, p_ds.cols.index(plan.parent_var),
        c_ds.rows, c_ds.cols.index(plan.child_var),
    )
    if p_ds is left:
        out_rows = [prow + crow for prow, crow in pairs]
    else:
        out_rows = [crow + prow for prow, crow in pairs]
    out_rows.sort()
    return Dataset(left.cols + right.cols, out_rows, plan.site)


def _run_recompose(
    plan: Plan, ds: Dataset, ctx: ExecutionContext
) -> list[Resource]:
    slots = [ds.cols.index(var) for var in plan.ret_vars]
    return recompose(
        (row[i] for row in ds.rows for i in slots),
        lambda sid: ctx.fetch_subtree(plan.site, sid),
    )


def dataset_to_bindings(pattern: TreePattern, ds: Dataset) -> list[Binding]:
    slot = {var: i for i, var in enumerate(ds.cols)}
    n = len(pattern.nodes)
    rows = [tuple(row[slot[i]] for i in range(n)) for row in ds.rows]
    return sort_bindings(pattern, rows)
