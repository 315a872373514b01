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
    decompose,
    default_rules,
    execute,
    place,
    plan_cost,
    plan_size,
    plan_to_xml,
    rewrite,
)
from twigstore.twigjoin import eval_naive

from helpers import (
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
    assert dec.hash_fragments == [[0, 2]]  # paper and title stay together
    assert dec.range_nodes == [1]
    assert dec.joins == [(0, 1, "child")]
    kinds = [kind for kind, _ in dec.subqueries]
    assert kinds == ["hash", "range"]


def test_decompose_no_range_single_fragment():
    dec = decompose(parse_pattern("//sec[/title]!"))
    assert dec.hash_fragments == [[0, 1]]
    assert dec.range_nodes == []
    assert dec.joins == []


def test_decompose_range_node_splits_fragments():
    # b sits below the range node, so it forms its own hash fragment
    dec = decompose(parse_pattern("//a[/y in 1..5[/b]]!"))
    assert dec.hash_fragments == [[0], [2]]
    assert dec.range_nodes == [1]
    assert dec.joins == [(0, 1, "child"), (1, 2, "child")]


def test_decompose_all_wildcard_propagates():
    with pytest.raises(UnsupportedWildcardRoot):
        decompose(parse_pattern("//*//*!"))


# -- plan fixtures ----------------------------------------------------------------


def two_leaf_join(stats, site_a=2, site_b=3, join_site=3):
    """StructJoin at ``join_site`` over leaves pinned at peers a and b."""
    big = Plan("IndexLookup", site_a, dht=0, key="t:big", var=0, cols=(0,))
    small = Plan("IndexLookup", site_b, dht=0, key="t:small", var=1, cols=(1,))

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


def test_push_join_moves_small_side():
    plan = two_leaf_join(STATS)  # join at small side; ships the 1000-list
    assert plan_cost(plan) == 32000 + 8  # 1000 postings plus the wire frame
    out = rewrite(plan, default_rules(), 8, STATS)
    assert plan_cost(out) == 320 + 8  # only the 10-posting list moves
    xml = plan_to_xml(out)
    assert '<StructJoin site="2"' in xml
    assert xml.count("<Ship") == 1


def test_rewrite_reaches_fixpoint():
    plan = two_leaf_join(STATS)
    once = rewrite(plan, default_rules(), 8, STATS)
    twice = rewrite(once, default_rules(), 8, STATS)
    assert plan_to_xml(twice) == plan_to_xml(once)


def test_collapse_ship_chain():
    leaf = Plan("IndexLookup", 2, dht=0, key="t:a", var=0, cols=(0,))
    inner = Plan("Ship", 3, kids=[leaf], cols=(0,))
    outer = Plan("Ship", 4, kids=[inner], cols=(0,))
    out = rewrite(outer, default_rules(), 4, {"t:a": 5})
    assert plan_to_xml(out) == (
        '<Ship site="4"><IndexLookup site="2" dht="0" key="t:a" var="0"/></Ship>'
    )


def test_fuse_duplicate_lookups():
    a = Plan("IndexLookup", 2, dht=0, key="t:a", var=0, cols=(0,))
    b = Plan("IndexLookup", 2, dht=0, key="t:a", var=0, cols=(0,))
    node = Plan("Intersect", 2, var=0, cols=(0,), kids=[a, b])
    out = rewrite(node, default_rules(), 4, {"t:a": 5})
    assert plan_to_xml(out) == '<IndexLookup site="2" dht="0" key="t:a" var="0"/>'


def test_drop_self_ship():
    leaf = Plan("IndexLookup", 2, dht=0, key="t:a", var=0, cols=(0,))
    ship = Plan("Ship", 2, kids=[leaf], cols=(0,))
    out = rewrite(ship, default_rules(), 4, {"t:a": 5})
    assert plan_to_xml(out) == '<IndexLookup site="2" dht="0" key="t:a" var="0"/>'


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
    # placement falls back to the all-to-query-peer plan
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
        '<Ship site="3"><IndexLookup site="2" dht="0" key="t:big" var="0"/></Ship>'
        '<IndexLookup site="3" dht="0" key="t:small" var="1"/>'
        "</StructJoin>"
    )


def test_plan_xml_golden_recompose_and_range():
    leaf = Plan(
        "RangeLookup", 2, dht=1, tag="year", lo=2000, hi=2005, var=1,
        root_only=True, cols=(1,),
    )
    rec = Plan("Recompose", 1, ret_vars=(0, 1), cols=(1,),
               kids=[Plan("Ship", 1, kids=[leaf], cols=(1,))])
    assert plan_to_xml(rec) == (
        '<Recompose site="1" ret="0,1">'
        '<Ship site="1">'
        '<RangeLookup site="2" dht="1" tag="year" lo="2000" hi="2005"'
        ' var="1" rootonly="1"/>'
        "</Ship>"
        "</Recompose>"
    )


def test_rewrite_nonterminating_rule_cut_by_max_passes():
    from twigstore.planner import Rule

    grow = Rule(
        "wrap-in-at-forever",
        lambda node, parent: True,
        lambda node: Plan("At", node.site, kids=[node.clone()], cols=node.cols),
    )
    leaf = Plan("IndexLookup", 2, dht=0, key="t:a", var=0, cols=(0,))
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
    builder = PlanBuilder(
        0, 1, lambda dht_id, key: dht.overlays[dht_id].owner_of(key), 1
    )
    pattern = parse_pattern('//paper[/year in 2000..2005][/title="dht"]!')
    plan = builder.build(decompose(pattern), with_recompose=True)
    assert plan_to_xml(plan) == (
        '<Recompose site="1" ret="0">'
        '<StructJoin site="1" axis="child" parent="0" child="1">'
        '<StructJoin site="1" axis="child" parent="0" child="2">'
        '<Ship site="1"><IndexLookup site="4" dht="0" key="t:paper" var="0"/></Ship>'
        '<Intersect site="1" var="2">'
        '<Ship site="1"><IndexLookup site="4" dht="0" key="t:title" var="2"/></Ship>'
        '<IndexLookup site="1" dht="0" key="w:dht" var="2"/>'
        "</Intersect>"
        "</StructJoin>"
        '<Ship site="1">'
        '<RangeLookup site="3" dht="1" tag="year" lo="2000" hi="2005" var="1"/>'
        "</Ship>"
        "</StructJoin>"
        "</Recompose>"
    )
    # without Recompose a root that sits elsewhere ships to the query peer
    plan = builder.build(decompose(parse_pattern("//paper!")), with_recompose=False)
    assert plan_to_xml(plan) == (
        '<Ship site="1"><IndexLookup site="4" dht="0" key="t:paper" var="0"/></Ship>'
    )


def test_place_discards_what_rewrite_changes_randomized():
    # Store.build_plan places the built plan without rewriting it first,
    # because placement gives the same plan either way
    rng = random.Random(0x9E)
    compared = 0
    for trial in range(80):
        peers = (1, 3, 4, 8)[trial % 4]
        net, dht, index = make_cluster(peers)
        index_corpus(index, random_corpus(rng, max_docs=6, max_nodes=30),
                     list(range(1, peers + 1)))
        query_peer = rng.randint(1, peers)
        builder = PlanBuilder(
            0, 1, lambda dht_id, key: dht.overlays[dht_id].owner_of(key), query_peer
        )
        for _ in range(3):
            pattern = random_pattern(rng)
            if pattern.all_wildcard:
                continue
            for with_recompose in (False, True):
                plan = builder.build(decompose(pattern), with_recompose)
                rewritten = rewrite(plan, default_rules(), 16, index.stats)
                assert plan_to_xml(place(rewritten, index.stats, query_peer)) == (
                    plan_to_xml(place(plan, index.stats, query_peer))
                ), pattern
                compared += 1
    assert compared >= 400


# -- execution ------------------------------------------------------------------------


def pipeline(store_docs, pattern_text, query_peer=1, with_recompose=False):
    net, dht, index = make_cluster()
    docs = [parse_document(text, i + 1) for i, text in enumerate(store_docs)]
    homes = index_corpus(index, docs, [1, 2, 3, 4])
    ctx = ExecutionContext(index, homes)
    pattern = parse_pattern(pattern_text)
    builder = PlanBuilder(
        0, 1, lambda dht_id, key: dht.overlays[dht_id].owner_of(key), query_peer
    )
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
    assert planner.dataset_to_bindings(pattern, result) == eval_naive(pattern, docs)


def test_execute_twice_same_results():
    net, dht, index = make_cluster()
    docs = [parse_document(D1, 1)]
    homes = index_corpus(index, docs, [1, 2, 3, 4])
    ctx = ExecutionContext(index, homes)
    pattern = parse_pattern("//sec!")
    builder = PlanBuilder(
        0, 1, lambda dht_id, key: dht.overlays[dht_id].owner_of(key), 1
    )
    plan = place(builder.build(decompose(pattern), False), index.stats, 1)
    first, _ = execute(plan, ctx)
    second, _ = execute(plan, ctx)
    assert first.rows == second.rows


def test_unreachable_site():
    net, dht, index = make_cluster()
    ctx = ExecutionContext(index, {})
    plan = Plan("IndexLookup", 99, dht=0, key="t:x", var=0, cols=(0,))
    with pytest.raises(PlanSiteUnreachable):
        execute(plan, ctx)


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


def test_skew_workload_placed_beats_naive():
    net, index, ctx, builder, pattern, _, doc = skew_cluster(200, 8)
    dec = decompose(pattern)
    naive_plan = builder.build(dec, False)
    placed_plan = place(naive_plan, index.stats, 1)
    naive_result, naive_delta = execute(naive_plan, ctx)
    placed_result, placed_delta = execute(placed_plan, ctx)
    want = eval_naive(pattern, [doc])
    assert want
    assert planner.dataset_to_bindings(pattern, naive_result) == want
    assert planner.dataset_to_bindings(pattern, placed_result) == want
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
        builder = PlanBuilder(
            0, 1, lambda dht_id, key: dht.overlays[dht_id].owner_of(key), 1
        )
        pattern = random_pattern(rng)
        naive_bindings = eval_naive(pattern, docs)
        plan = builder.build(decompose(pattern), False)
        rewritten = rewrite(plan, default_rules(), 16, index.stats)
        placed = place(rewritten, index.stats, 1)
        for candidate in (plan, rewritten, placed):
            result, _ = execute(candidate, ctx)
            assert planner.dataset_to_bindings(pattern, result) == naive_bindings
