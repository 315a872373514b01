import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from twigstore.document import StructuralId, parse_document
from twigstore.errors import UnsupportedWildcardRoot
from twigstore.pattern import CHILD, DESCENDANT, parse_pattern
from twigstore.twigjoin import (
    QueryCache,
    axis_holds,
    eval_distributed,
    eval_naive,
    stack_join,
)

from helpers import (
    index_corpus,
    make_cluster,
    random_corpus,
    random_document_text,
    random_pattern,
)

D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"


def test_naive_single_node():
    doc = parse_document(D1, 1)
    out = eval_naive(parse_pattern("//sec!"), [doc])
    assert out == [(StructuralId(1, 2, 9, 2),)]


def test_naive_child_axis_is_strict():
    doc = parse_document(D1, 1)
    assert eval_naive(parse_pattern("//par[/title]!"), [doc]) == []


def test_naive_word_predicate():
    doc = parse_document(D1, 1)
    out = eval_naive(parse_pattern('//sec[/title="dht"]!'), [doc])
    assert len(out) == 1
    assert out[0][0] == StructuralId(1, 2, 9, 2)


def test_naive_root_axis():
    doc = parse_document(D1, 1)
    assert eval_naive(parse_pattern("/sec!"), [doc]) == []
    assert len(eval_naive(parse_pattern("/doc!"), [doc])) == 1


@given(
    seed=st.integers(0, 10**6),
    axis=st.sampled_from([CHILD, DESCENDANT]),
    data=st.data(),
)
def test_stack_join_matches_nested_loop(seed, axis, data):
    rng = random.Random(seed)
    docs = [parse_document(random_document_text(rng, 25), d) for d in (1, 2, 3)]
    labels = st.sampled_from([node.label for doc in docs for node in doc.nodes])
    p_labels = data.draw(st.lists(labels, max_size=30))
    # children reuse parent labels, as in //*//a: a node is not its own ancestor
    c_labels = data.draw(st.lists(labels, max_size=30)) + p_labels[::2]
    # the marker column repeats, so equal rows occur and must all be kept
    parents = [(i % 2, lb) for i, lb in enumerate(p_labels)]
    children = [(lb, i % 2) for i, lb in enumerate(c_labels)]
    got = stack_join(axis, parents, 1, children, 0)
    want = [
        (prow, crow)
        for prow in parents
        for crow in children
        if axis_holds(axis, prow[1], crow[0])
    ]
    assert Counter(got) == Counter(want)


def cluster_with(docs, peer_count=4, shortcut=False):
    net, dht, index = make_cluster(peer_count, shortcut=shortcut)
    peers = list(range(1, peer_count + 1))
    index_corpus(index, docs, peers)
    return net, dht, index


def test_distributed_matches_naive_on_example():
    docs = [parse_document(D1, 1)]
    net, dht, index = cluster_with(docs)
    pattern = parse_pattern("//sec!")
    assert eval_distributed(pattern, 1, index) == eval_naive(pattern, docs)


def test_cache_hit_issues_no_traffic():
    docs = [parse_document(D1, 1)]
    net, dht, index = cluster_with(docs)
    cache = QueryCache()
    pattern = parse_pattern('//sec[/title="dht"]!')
    first = eval_distributed(pattern, 2, index, cache)
    before = net.stats.messages_sent
    second = eval_distributed(pattern, 2, index, cache)
    assert net.stats.messages_sent == before
    assert second == first
    assert cache.hits == 1


def test_index_write_invalidates_cache():
    docs = [parse_document(D1, 1)]
    net, dht, index = cluster_with(docs)
    cache = QueryCache()
    pattern = parse_pattern("//par!")
    assert len(eval_distributed(pattern, 1, index, cache)) == 1
    index.index_document(parse_document(D1, 2), 2)
    before = net.stats.messages_sent
    out = eval_distributed(pattern, 1, index, cache)
    assert len(out) == 2
    assert net.stats.messages_sent > before  # re-executed, not served from cache


def test_cache_hit_equals_fresh_evaluation():
    rng = random.Random(3)
    docs = random_corpus(rng, max_docs=5, max_nodes=20)
    net, dht, index = cluster_with(docs)
    cache = QueryCache()
    for _ in range(30):
        pattern = random_pattern(rng)
        cached = eval_distributed(pattern, 1, index, cache)
        fresh = eval_distributed(pattern, 2, index)  # no cache
        assert cached == fresh


def test_all_wildcard_raises():
    docs = [parse_document(D1, 1)]
    net, dht, index = cluster_with(docs)
    with pytest.raises(UnsupportedWildcardRoot):
        eval_distributed(parse_pattern("//*//*!"), 1, index)


def test_wildcard_interior_node():
    docs = [parse_document(D1, 1)]
    net, dht, index = cluster_with(docs)
    pattern = parse_pattern("//doc//*[/title]!")
    assert eval_distributed(pattern, 1, index) == eval_naive(pattern, docs)


@pytest.mark.parametrize("trial_seed", range(8))
def test_oracle_equivalence_randomized(trial_seed):
    rng = random.Random(1000 + trial_seed)
    docs = random_corpus(rng, max_docs=6, max_nodes=30)
    net, dht, index = cluster_with(docs)
    for _ in range(25):
        pattern = random_pattern(rng)
        assert eval_distributed(pattern, 1, index) == eval_naive(pattern, docs), (
            f"pattern {pattern} diverged"
        )


def test_results_independent_of_peer_count():
    rng = random.Random(77)
    docs = random_corpus(rng, max_docs=5, max_nodes=24)
    patterns = [random_pattern(rng) for _ in range(12)]
    outputs = []
    for peer_count in (1, 4, 16):
        net, dht, index = cluster_with(docs, peer_count=peer_count)
        outputs.append([eval_distributed(p, 1, index) for p in patterns])
    assert outputs[0] == outputs[1] == outputs[2]
