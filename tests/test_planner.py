import random

import pytest

from twigstore import planner
from twigstore.document import parse_document
from twigstore.errors import PlanSiteUnreachable, UnsupportedWildcardRoot
from twigstore.pattern import parse_pattern
from twigstore.planner import (
    ExecutionContext,
    Plan,
    PlanBuilder,
    Rule,
    decompose,
    execute,
    place,
    plan_cost,
    plan_size,
    plan_to_xml,
    rewrite,
)
from twigstore.twigjoin import eval_naive

from helpers import (
    dataset_to_bindings,
    index_corpus,
    make_cluster,
    random_corpus,
    random_pattern,
    skew_cluster,
)


# -- decomposition -------------------------------------------------------------


def test_decompose_capability_split():
    pattern = parse_pattern('//paper[/year in 2000..2005][/title="xml"]!')
    dec = decompose(pattern)
    assert dec.unit_of == {0: 0, 1: 1, 2: 0}  # paper and title stay together
    assert dec.joins == [(0, 1, "child")]


def test_decompose_no_range_single_fragment():
    dec = decompose(parse_pattern("//sec[/title]!"))
    assert dec.unit_of == {0: 0, 1: 0}
    assert dec.joins == []


def test_decompose_range_node_splits_fragments():
    # b sits below the range node, so it forms its own hash unit
    dec = decompose(parse_pattern("//a[/y in 1..5[/b]]!"))
    assert dec.unit_of == {0: 0, 1: 1, 2: 2}
    assert dec.joins == [(0, 1, "child"), (1, 2, "child")]


def test_decompose_all_wildcard_propagates():
    with pytest.raises(UnsupportedWildcardRoot):
        decompose(parse_pattern("//*//*!"))


def test_decompose_units_randomized():
    rng = random.Random(0xD5)
    multi = 0
    for _ in range(1000):
        pattern = random_pattern(rng, max_nodes=7)
        if pattern.all_wildcard:
            continue
        dec = decompose(pattern)
        nodes, unit_of = pattern.nodes, dec.unit_of
        parent = {c: p for p, c, _ in pattern.edges}
        assert sorted(unit_of) == [n.idx for n in nodes]
        for idx, unit in unit_of.items():
            # a unit's top node is its own unit and its parent lies outside;
            # every other member's parent is in the unit, so it is connected
            if idx == unit:
                assert idx == 0 or unit_of[parent[idx]] != unit, pattern
            else:
                assert unit_of[parent[idx]] == unit, pattern
        for node in nodes:
            members = [idx for idx, unit in unit_of.items()
                       if unit == unit_of[node.idx]]
            if node.has_range:
                assert members == [node.idx], pattern
        for p, c, _ in pattern.edges:  # hash units are maximal
            if not (nodes[p].has_range or nodes[c].has_range):
                assert unit_of[p] == unit_of[c], pattern
        assert dec.joins == [
            edge for edge in pattern.edges if unit_of[edge[0]] != unit_of[edge[1]]
        ]
        attached = {unit_of[0]}
        for p, c, _ in dec.joins:
            assert unit_of[p] in attached, pattern
            attached.add(unit_of[c])
        assert attached == set(unit_of.values())
        multi += len(dec.joins) >= 2
    assert multi >= 20


# plan_to_xml of PlanBuilder.build on make_cluster()'s four peers, query
# peer 1, with Recompose
BUILD_GOLDENS = {
    # two cut edges: two range children under one hash unit
    "//paper[/year in 2000..2005][/month in 1..12]/title!": (
        '<Recompose site="1" ret="3">'
        '<StructJoin site="1" axis="child" parent="0" child="2">'
        '<StructJoin site="1" axis="child" parent="0" child="1">'
        '<StructJoin site="1" axis="child" parent="0" child="3">'
        '<Ship site="1"><IndexLookup site="4" key="t:paper" var="0"/></Ship>'
        '<Ship site="1"><IndexLookup site="4" key="t:title" var="3"/></Ship>'
        "</StructJoin>"
        '<Ship site="1">'
        '<RangeLookup site="3" tag="year" lo="2000" hi="2005" var="1"/>'
        "</Ship>"
        "</StructJoin>"
        '<Ship site="1">'
        '<RangeLookup site="3" tag="month" lo="1" hi="12" var="2"/>'
        "</Ship>"
        "</StructJoin>"
        "</Recompose>"
    ),
    # three cut edges; note hangs below the year range node
    '//lib[/paper[/year in 2000..2005[/note]]/title="dht"]//page in 1..50!': (
        '<Recompose site="1" ret="5">'
        '<StructJoin site="1" axis="descendant" parent="0" child="5">'
        '<StructJoin site="1" axis="child" parent="2" child="3">'
        '<StructJoin site="1" axis="child" parent="1" child="2">'
        '<StructJoin site="1" axis="child" parent="1" child="4">'
        '<StructJoin site="1" axis="child" parent="0" child="1">'
        '<Ship site="1"><IndexLookup site="4" key="t:lib" var="0"/></Ship>'
        '<Ship site="1"><IndexLookup site="4" key="t:paper" var="1"/></Ship>'
        "</StructJoin>"
        '<Intersect site="1" var="4">'
        '<Ship site="1"><IndexLookup site="4" key="t:title" var="4"/></Ship>'
        '<IndexLookup site="1" key="w:dht" var="4"/>'
        "</Intersect>"
        "</StructJoin>"
        '<Ship site="1">'
        '<RangeLookup site="3" tag="year" lo="2000" hi="2005" var="2"/>'
        "</Ship>"
        "</StructJoin>"
        '<Ship site="1"><IndexLookup site="2" key="t:note" var="3"/></Ship>'
        "</StructJoin>"
        '<Ship site="1">'
        '<RangeLookup site="3" tag="page" lo="1" hi="50" var="5"/>'
        "</Ship>"
        "</StructJoin>"
        "</Recompose>"
    ),
    # a range-predicated root
    "//year in 2000..2005[/note]!": (
        '<Recompose site="1" ret="0">'
        '<StructJoin site="1" axis="child" parent="0" child="1">'
        '<Ship site="1">'
        '<RangeLookup site="3" tag="year" lo="2000" hi="2005" var="0"/>'
        "</Ship>"
        '<Ship site="1"><IndexLookup site="2" key="t:note" var="1"/></Ship>'
        "</StructJoin>"
        "</Recompose>"
    ),
    # a range node with a hash child
    "//paper[/year in 2000..2005[/@src]]/title!": (
        '<Recompose site="1" ret="3">'
        '<StructJoin site="1" axis="child" parent="1" child="2">'
        '<StructJoin site="1" axis="child" parent="0" child="1">'
        '<StructJoin site="1" axis="child" parent="0" child="3">'
        '<Ship site="1"><IndexLookup site="4" key="t:paper" var="0"/></Ship>'
        '<Ship site="1"><IndexLookup site="4" key="t:title" var="3"/></Ship>'
        "</StructJoin>"
        '<Ship site="1">'
        '<RangeLookup site="3" tag="year" lo="2000" hi="2005" var="1"/>'
        "</Ship>"
        "</StructJoin>"
        '<Ship site="1"><IndexLookup site="4" key="t:@src" var="2"/></Ship>'
        "</StructJoin>"
        "</Recompose>"
    ),
    # one hash unit, joined breadth-first: title before ref's child note
    "//paper[/ref/note][/title]!": (
        '<Recompose site="1" ret="0">'
        '<StructJoin site="1" axis="child" parent="1" child="2">'
        '<StructJoin site="1" axis="child" parent="0" child="3">'
        '<StructJoin site="1" axis="child" parent="0" child="1">'
        '<Ship site="1"><IndexLookup site="4" key="t:paper" var="0"/></Ship>'
        '<Ship site="1"><IndexLookup site="4" key="t:ref" var="1"/></Ship>'
        "</StructJoin>"
        '<Ship site="1"><IndexLookup site="4" key="t:title" var="3"/></Ship>'
        "</StructJoin>"
        '<Ship site="1"><IndexLookup site="2" key="t:note" var="2"/></Ship>'
        "</StructJoin>"
        "</Recompose>"
    ),
    # a wildcard with a word looks up the word alone
    '//paper[/*="dht"]!': (
        '<Recompose site="1" ret="0">'
        '<StructJoin site="1" axis="child" parent="0" child="1">'
        '<Ship site="1"><IndexLookup site="4" key="t:paper" var="0"/></Ship>'
        '<IndexLookup site="1" key="w:dht" var="1"/>'
        "</StructJoin>"
        "</Recompose>"
    ),
}


@pytest.mark.parametrize("text", list(BUILD_GOLDENS))
def test_build_golden_patterns(text):
    net, dht, index = make_cluster()
    plan = PlanBuilder(dht, 1).build(decompose(parse_pattern(text)), True)
    assert plan_to_xml(plan) == BUILD_GOLDENS[text]


# -- plan fixtures ----------------------------------------------------------------


def two_leaf_join(stats, site_a=2, site_b=3, join_site=3):
    """StructJoin at ``join_site`` over leaves pinned at peers a and b."""
    big = Plan("IndexLookup", site_a, key="t:big", var=0, cols=(0,))
    small = Plan("IndexLookup", site_b, key="t:small", var=1, cols=(1,))

    def locate(leaf):
        if leaf.site == join_site:
            return leaf
        return Plan("Ship", join_site, kids=[leaf], cols=leaf.cols)

    join = Plan(
        "StructJoin", join_site, axis="child", parent_var=0, child_var=1,
        cols=(0, 1),
    )
    join.kids = [locate(big), locate(small)]
    planner.annotate(join, stats)
    return join


STATS = {"t:big": 1000, "t:small": 10}


def test_rewrite_empty_rules_is_identity():
    plan = two_leaf_join(STATS)
    out = rewrite(plan, [], 5, STATS)
    assert plan_to_xml(out) == plan_to_xml(plan)


def _drop_self_ship():
    """A rule for the engine's own tests: a Ship to the site its input
    already sits at moves nothing, so it goes."""
    return Rule(
        "drop-self-ship",
        lambda node, parent: node.op == "Ship" and node.kids[0].site == node.site,
        lambda node: node.kids[0].clone(),
    )


def test_rewrite_reaches_fixpoint():
    # each input gets a self Ship; the big one's sits on a real Ship, so the
    # engine needs a pass per self Ship and then finds nothing to apply
    plan = two_leaf_join(STATS)
    plan.kids = [Plan("Ship", kid.site, kids=[kid], cols=kid.cols) for kid in plan.kids]
    once = rewrite(plan, [_drop_self_ship()], 8, STATS)
    twice = rewrite(once, [_drop_self_ship()], 8, STATS)
    assert plan_to_xml(twice) == plan_to_xml(once) == plan_to_xml(two_leaf_join(STATS))


# -- placement -----------------------------------------------------------------------


def test_place_join_at_largest_input():
    plan = two_leaf_join(STATS, join_site=1)
    placed = place(plan, STATS, query_peer=1)
    xml = plan_to_xml(placed)
    # join runs at the big side (peer 2), result ships to the query peer
    assert '<StructJoin site="2"' in xml
    assert xml.startswith('<Ship site="1">')


def test_place_all_local_means_no_ships():
    stats = {"t:big": 7, "t:small": 3}
    plan = two_leaf_join(stats, site_a=1, site_b=1, join_site=1)
    placed = place(plan, stats, query_peer=1)
    assert "<Ship" not in plan_to_xml(placed)


def test_place_tie_goes_to_query_peer():
    stats = {"t:big": 10, "t:small": 10}
    plan = two_leaf_join(stats, site_a=2, site_b=3, join_site=2)
    placed = place(plan, stats, query_peer=1)
    assert '<StructJoin site="1"' in plan_to_xml(placed)


def test_place_never_beats_naive_estimate():
    # near-equal inputs: shipping the join output would overshoot naive, so
    # placement keeps the plan it was given, the all-to-query-peer one
    stats = {"t:big": 100, "t:small": 99}
    plan = two_leaf_join(stats, join_site=1)
    placed = place(plan, stats, query_peer=1)
    naive_cost = (100 + 99) * 32 + 2 * 8  # both lists shipped, framed
    assert plan_cost(placed) <= naive_cost
    assert '<StructJoin site="1"' in plan_to_xml(placed)


def test_plan_xml_golden():
    plan = two_leaf_join(STATS)
    assert plan_to_xml(plan) == (
        '<StructJoin site="3" axis="child" parent="0" child="1">'
        '<Ship site="3"><IndexLookup site="2" key="t:big" var="0"/></Ship>'
        '<IndexLookup site="3" key="t:small" var="1"/>'
        "</StructJoin>"
    )


def test_plan_xml_golden_recompose_and_range():
    leaf = Plan(
        "RangeLookup", 2, tag="year", lo=2000, hi=2005, var=1,
        root_only=True, cols=(1,),
    )
    rec = Plan("Recompose", 1, ret_vars=(0, 1), cols=(1,),
               kids=[Plan("Ship", 1, kids=[leaf], cols=(1,))])
    assert plan_to_xml(rec) == (
        '<Recompose site="1" ret="0,1">'
        '<Ship site="1">'
        '<RangeLookup site="2" tag="year" lo="2000" hi="2005"'
        ' var="1" rootonly="1"/>'
        "</Ship>"
        "</Recompose>"
    )


def test_rewrite_nonterminating_rule_cut_by_max_passes():
    grow = Rule(
        "wrap-in-at-forever",
        lambda node, parent: True,
        lambda node: Plan("At", node.site, kids=[node.clone()], cols=node.cols),
    )
    leaf = Plan("IndexLookup", 2, key="t:a", var=0, cols=(0,))
    out = rewrite(leaf, [grow], 3, {"t:a": 5})
    # the rule never lowers cost and never shrinks the plan, so it is
    # refused outright; a cost-lowering-but-endless rule is bounded instead
    assert plan_to_xml(out) == plan_to_xml(leaf)

    toggle = Rule(
        "reship-forever",
        lambda node, parent: node.op == "Ship",
        lambda node: Plan("Ship", node.site, kids=[node.clone()], cols=node.cols),
    )
    ship = Plan("Ship", 3, kids=[leaf.clone()], cols=(0,))
    out = rewrite(ship, [toggle], 4, {"t:a": 5})
    assert plan_size(out) >= 1  # terminated despite the pathological rule


def test_build_golden_word_range_and_recompose():
    # leaves sit at their key owners (t:paper and t:title on peer 4, w:dht
    # on peer 1, the year range on peer 3); every other operator sits at
    # the query peer, with a Ship wherever an input lives elsewhere
    net, dht, index = make_cluster()
    builder = PlanBuilder(dht, 1)
    pattern = parse_pattern('//paper[/year in 2000..2005][/title="dht"]!')
    plan = builder.build(decompose(pattern), with_recompose=True)
    assert plan_to_xml(plan) == (
        '<Recompose site="1" ret="0">'
        '<StructJoin site="1" axis="child" parent="0" child="1">'
        '<StructJoin site="1" axis="child" parent="0" child="2">'
        '<Ship site="1"><IndexLookup site="4" key="t:paper" var="0"/></Ship>'
        '<Intersect site="1" var="2">'
        '<Ship site="1"><IndexLookup site="4" key="t:title" var="2"/></Ship>'
        '<IndexLookup site="1" key="w:dht" var="2"/>'
        "</Intersect>"
        "</StructJoin>"
        '<Ship site="1">'
        '<RangeLookup site="3" tag="year" lo="2000" hi="2005" var="1"/>'
        "</Ship>"
        "</StructJoin>"
        "</Recompose>"
    )
    # without Recompose a root that sits elsewhere ships to the query peer
    plan = builder.build(decompose(parse_pattern("//paper!")), with_recompose=False)
    assert plan_to_xml(plan) == (
        '<Ship site="1"><IndexLookup site="4" key="t:paper" var="0"/></Ship>'
    )


def _place_annotating_each_candidate(plan, stats, query_peer):
    """The placement with both candidates annotated from scratch: the greedy
    placement against the input, pinned at the query peer."""
    pinned = planner._pin_root(plan.clone(), query_peer)
    planner.annotate(pinned, stats)
    logical = planner._strip_transport(plan)
    planner.annotate(logical, stats)
    greedy = planner._pin_root(
        planner._reship(planner._place_greedy(logical, query_peer)), query_peer
    )
    planner.annotate(greedy, stats)
    return greedy if plan_cost(greedy) <= plan_cost(pinned) else pinned


def _estimates(plan):
    return [(node.op, node.est_rows, node.est_bytes)
            for node, _, _ in planner._positions(plan)]


def test_place_output_carries_fresh_estimates_randomized():
    # place annotates the plan it is given and copies those estimates into
    # the greedy placement; each Ship it adds takes its input's estimates,
    # which must be what annotate would give it
    rng = random.Random(0xA7)
    compared = 0
    for trial in range(80):
        peers = (1, 3, 4, 8)[trial % 4]
        net, dht, index = make_cluster(peers)
        index_corpus(index, random_corpus(rng, max_docs=6, max_nodes=30),
                     list(range(1, peers + 1)))
        query_peer = rng.randint(1, peers)
        builder = PlanBuilder(dht, query_peer)
        for _ in range(3):
            pattern = random_pattern(rng)
            if pattern.all_wildcard:
                continue
            for with_recompose in (False, True):
                plan = builder.build(decompose(pattern), with_recompose)
                placed = place(plan, index.stats, query_peer)
                fresh = placed.clone()
                planner.annotate(fresh, index.stats)
                assert _estimates(placed) == _estimates(fresh), pattern
                reference = _place_annotating_each_candidate(
                    plan, index.stats, query_peer
                )
                assert plan_to_xml(placed) == plan_to_xml(reference), pattern
                compared += 1
    assert compared >= 400


def _scramble(plan, rng, peers, query_peer):
    """``plan``'s operators with every non-leaf site but Recompose's drawn at
    random and some outputs shipped to a random peer or their own, then
    Ship edges inserted wherever an input sits elsewhere."""

    def resite(node):
        kids = [resite(kid) for kid in node.kids]
        if node.is_leaf():
            site = node.site
        elif node.op == "Recompose":
            site = query_peer
        else:
            site = rng.choice(peers)
        node = node.copy(kids, site)
        while node.op != "Recompose" and rng.random() < 0.3:
            to = rng.choice((node.site, rng.choice(peers)))
            node = Plan("Ship", to, kids=[node], cols=node.cols)
        return node

    return planner._reship(resite(planner._strip_transport(plan)))


def _answer(result):
    if isinstance(result, list):
        return [(r.resource_id, r.payload) for r in result]
    return sorted(result.rows)


def test_place_never_costs_more_than_a_scrambled_input_randomized():
    # place need not be given the built plan: whatever sites and Ships its
    # input has, it returns a plan rooted at the query peer, with each
    # operator's inputs at its site, that costs no more than that input
    # pinned at the query peer, and answers as the built plan does
    rng = random.Random(0x5C)
    outcomes = {"greedy": 0, "input": 0}
    for trial in range(60):
        peers = (1, 3, 4, 8)[trial % 4]
        members = list(range(1, peers + 1))
        net, dht, index = make_cluster(peers)
        docs = random_corpus(rng, max_docs=6, max_nodes=30)
        ctx = ExecutionContext(index, index_corpus(index, docs, members))
        query_peer = rng.choice(members)
        builder = PlanBuilder(dht, query_peer)
        for _ in range(3):
            pattern = random_pattern(rng)
            if pattern.all_wildcard:
                continue
            for with_recompose in (False, True):
                built = builder.build(decompose(pattern), with_recompose)
                scrambled = _scramble(built, rng, members, query_peer)
                pinned = planner._pin_root(scrambled.clone(), query_peer)
                planner.annotate(pinned, index.stats)
                placed = place(scrambled, index.stats, query_peer)
                assert placed.site == query_peer, pattern
                assert plan_cost(placed) <= plan_cost(pinned), pattern
                for node, _, _ in planner._positions(placed):
                    if node.op != "Ship":
                        assert all(kid.site == node.site for kid in node.kids), pattern
                want, _ = execute(built, ctx)
                got, _ = execute(placed, ctx)
                assert _answer(got) == _answer(want), pattern
                same = plan_to_xml(placed) == plan_to_xml(pinned)
                outcomes["input" if same else "greedy"] += 1
    assert min(outcomes.values()) >= 20, outcomes


# -- execution ------------------------------------------------------------------------


def pipeline(store_docs, pattern_text, query_peer=1, with_recompose=False):
    net, dht, index = make_cluster()
    docs = [parse_document(text, i + 1) for i, text in enumerate(store_docs)]
    homes = index_corpus(index, docs, [1, 2, 3, 4])
    ctx = ExecutionContext(index, homes)
    pattern = parse_pattern(pattern_text)
    builder = PlanBuilder(dht, query_peer)
    plan = builder.build(decompose(pattern), with_recompose=with_recompose)
    plan = place(plan, index.stats, query_peer)
    result, delta = execute(plan, ctx)
    return pattern, docs, result, delta, net


D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"


def test_execute_returns_serialized_resource():
    _, _, result, delta, _ = pipeline([D1], "//sec!", with_recompose=True)
    assert [(r.resource_id, r.payload) for r in result] == [
        ("1#2", "<sec><title>dht</title><par>xml</par></sec>")
    ]


def test_execute_bindings_match_naive():
    pattern, docs, result, _, _ = pipeline(
        [D1, "<lib><paper><year>2003</year></paper></lib>"],
        "//paper[/year in 2000..2005]!",
    )
    assert dataset_to_bindings(pattern, result) == eval_naive(pattern, docs)


def test_execute_twice_same_results():
    net, dht, index = make_cluster()
    docs = [parse_document(D1, 1)]
    homes = index_corpus(index, docs, [1, 2, 3, 4])
    ctx = ExecutionContext(index, homes)
    pattern = parse_pattern("//sec!")
    builder = PlanBuilder(dht, 1)
    plan = place(builder.build(decompose(pattern), False), index.stats, 1)
    first, _ = execute(plan, ctx)
    second, _ = execute(plan, ctx)
    assert first.rows == second.rows


def test_unreachable_site():
    net, dht, index = make_cluster()
    ctx = ExecutionContext(index, {})
    plan = Plan("IndexLookup", 99, key="t:x", var=0, cols=(0,))
    with pytest.raises(PlanSiteUnreachable):
        execute(plan, ctx)


def test_plan_copy_keeps_every_field():
    # place copies nodes with Plan.copy; a field it forgot would vanish
    plan = Plan("StructJoin", 3, kids=[Plan("IndexLookup", 1)], key="t:a",
                tag="a", lo=1, hi=2, var=4, axis="child", parent_var=5,
                child_var=6, ret_vars=(7,), root_only=True, cols=(4, 8),
                est_rows=9, est_bytes=10)
    defaults = Plan("X", 0)
    fields = [name for name in Plan.__slots__ if name != "kids"]
    for name in fields:
        assert getattr(plan, name) != getattr(defaults, name), name
    kids = [Plan("Ship", 2)]
    for copy, site in ((plan.copy(kids), 3), (plan.copy(kids, 8), 8)):
        assert copy.kids is kids
        for name in fields:
            want = site if name == "site" else getattr(plan, name)
            assert getattr(copy, name) == want, name


def test_dataset_wire_round_trip():
    from twigstore.document import StructuralId
    from twigstore.planner import Dataset, decode_dataset, encode_dataset

    rows = [
        (StructuralId(1, 2, 9, 2), StructuralId(1, 3, 5, 3)),
        (StructuralId(4, 1, 8, 1), StructuralId(4, 2, 3, 2)),
    ]
    ds = Dataset((0, 2), rows, site=3)
    raw = encode_dataset(ds)
    assert len(raw) == 5 + 2 * 2 + 2 * 2 * 32
    back = decode_dataset(raw, site=7)
    assert back.cols == (0, 2) and back.rows == rows and back.site == 7


def test_dataset_column_count_widens_only_from_0xff():
    from twigstore.document import StructuralId
    from twigstore.planner import Dataset, decode_dataset, encode_dataset

    sid = StructuralId(1, 2, 3, 1)
    for ncols, head in ((254, 5), (255, 9), (256, 9), (300, 9)):
        ds = Dataset(tuple(range(ncols)), [(sid,) * ncols] * 2, site=3)
        raw = encode_dataset(ds)
        assert len(raw) == head + 2 * ncols + 2 * ncols * 32
        back = decode_dataset(raw, site=5)
        assert back.cols == ds.cols and back.rows == ds.rows and back.site == 5
    # below 0xFF the count keeps its one byte
    assert encode_dataset(Dataset((7,), [], site=1))[:5] == b"\x01\x00\x00\x00\x00"


@pytest.mark.parametrize("ncols", [0, 1, 3, 300])
@pytest.mark.parametrize("nrows", [0, 1, 4])
def test_dataset_round_trip_keeps_the_wire_bytes(ncols, nrows):
    # 300 columns take the widened column count; the reference encoder packs
    # the header field by field and each posting on its own
    from twigstore.document import StructuralId
    from twigstore.indexing import encode_posting
    from twigstore.planner import Dataset, decode_dataset, encode_dataset

    rng = random.Random(ncols * 10 + nrows)
    field = lambda: rng.choice([rng.randrange(4), rng.randrange(2**64)])
    cols = tuple(rng.randrange(2**16) for _ in range(ncols))
    rows = [tuple(StructuralId(field(), field(), field(), field())
                  for _ in range(ncols)) for _ in range(nrows)]
    count = bytes([ncols]) if ncols < 0xFF else b"\xff" + ncols.to_bytes(4, "big")
    want = (count + nrows.to_bytes(4, "big")
            + b"".join(c.to_bytes(2, "big") for c in cols)
            + b"".join(encode_posting(sid) for row in rows for sid in row))
    raw = encode_dataset(Dataset(cols, rows, site=3))
    assert raw == want
    assert decode_dataset(raw, site=7) == Dataset(cols, rows, site=7)


def test_estimated_bytes_match_the_shipped_dataset():
    # annotate prices a dataset as the wire carries it: the Ship's tag byte,
    # the column count (one byte below 0xFF, else five), the row count, the
    # column ids and the postings
    from twigstore.document import StructuralId
    from twigstore.planner import TAG_DATASET, Dataset, annotate, encode_dataset

    sid = StructuralId(1, 2, 3, 1)
    for ncols in (1, 2, 254, 255, 256, 300):
        for nrows in (0, 1, 3):
            leaf = Plan("IndexLookup", 2, key="t:a", var=0,
                        cols=tuple(range(ncols)))
            annotate(leaf, {"t:a": nrows})
            ds = Dataset(leaf.cols, [(sid,) * ncols] * nrows, site=2)
            wire = bytes([TAG_DATASET]) + encode_dataset(ds)
            assert leaf.est_bytes == len(wire), (ncols, nrows)


def test_skew_workload_placed_beats_naive():
    net, index, ctx, builder, pattern, _, doc = skew_cluster(200, 8)
    dec = decompose(pattern)
    naive_plan = builder.build(dec, False)
    placed_plan = place(naive_plan, index.stats, 1)
    naive_result, naive_delta = execute(naive_plan, ctx)
    placed_result, placed_delta = execute(placed_plan, ctx)
    want = eval_naive(pattern, [doc])
    assert want
    assert dataset_to_bindings(pattern, naive_result) == want
    assert dataset_to_bindings(pattern, placed_result) == want
    assert placed_delta.bytes_sent < naive_delta.bytes_sent
    # estimates and measurements agree within a factor of two on posting plans
    est = plan_cost(placed_plan)
    assert est / 2 <= placed_delta.bytes_sent <= est * 2


def test_semantics_preserved_through_pipeline_randomized():
    rng = random.Random(41)
    for trial in range(20):
        docs = random_corpus(rng, max_docs=4, max_nodes=20)
        net, dht, index = make_cluster()
        homes = index_corpus(index, docs, [1, 2, 3, 4])
        ctx = ExecutionContext(index, homes)
        builder = PlanBuilder(dht, 1)
        pattern = random_pattern(rng)
        naive_bindings = eval_naive(pattern, docs)
        plan = builder.build(decompose(pattern), False)
        placed = place(plan, index.stats, 1)
        for candidate in (plan, placed):
            result, _ = execute(candidate, ctx)
            assert dataset_to_bindings(pattern, result) == naive_bindings
