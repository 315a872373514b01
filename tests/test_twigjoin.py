import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from twigstore.document import StructuralId, parse_document, serialize_document
from twigstore.errors import UnsupportedWildcardRoot
from twigstore.pattern import CHILD, DESCENDANT, canonical, parse_pattern
from twigstore.store import Store, StoreConfig
from twigstore.twigjoin import QueryCache, axis_holds, eval_local, eval_naive, stack_join

from helpers import (
    planner_bindings,
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


def store_with(docs, peer_count=4):
    store = Store(StoreConfig(backend="p2p", peer_count=peer_count))
    for doc in docs:
        store.store_resource(serialize_document(doc))
    return store


def test_distributed_matches_naive_on_example():
    store = store_with([parse_document(D1, 1)])
    pattern = parse_pattern("//sec!")
    want = eval_naive(pattern, list(store.documents.values()))
    assert planner_bindings(store, pattern) == want


def test_index_write_invalidates_cache():
    cache = QueryCache()
    fingerprint = canonical(parse_pattern("//par!"))
    bindings = [(StructuralId(1, 6, 8, 3),)]
    cache.store(fingerprint, 1, bindings)
    assert cache.lookup(fingerprint, 1) == bindings
    assert cache.lookup(fingerprint, 2) is None  # a later epoch
    assert (cache.hits, cache.misses) == (1, 1)


def test_word_predicate_matches_whole_words_in_any_case():
    # "xmldata" contains "xml" but not as a word
    store = store_with(
        [parse_document("<r><t>Big XML</t><t>xml-data</t><t>xmldata</t></r>", 1)]
    )
    docs = list(store.documents.values())
    pattern = parse_pattern('//t="xml"!')
    want = planner_bindings(store, pattern)
    assert [b[0].start for b in want] == [2, 5]
    assert eval_local(pattern, docs) == eval_naive(pattern, docs) == want


def test_all_wildcard_raises():
    store = store_with([parse_document(D1, 1)])
    with pytest.raises(UnsupportedWildcardRoot):
        planner_bindings(store, parse_pattern("//*//*!"))


def test_wildcard_interior_node():
    store = store_with([parse_document(D1, 1)])
    pattern = parse_pattern("//doc//*[/title]!")
    want = eval_naive(pattern, list(store.documents.values()))
    assert planner_bindings(store, pattern) == want


@pytest.mark.parametrize("trial_seed", range(8))
def test_oracle_equivalence_randomized(trial_seed):
    rng = random.Random(1000 + trial_seed)
    store = store_with(random_corpus(rng, max_docs=6, max_nodes=30))
    docs = list(store.documents.values())
    for _ in range(25):
        pattern = random_pattern(rng)
        assert planner_bindings(store, pattern) == eval_naive(pattern, docs), (
            f"pattern {pattern} diverged"
        )


def test_results_independent_of_peer_count():
    rng = random.Random(77)
    docs = random_corpus(rng, max_docs=5, max_nodes=24)
    patterns = [random_pattern(rng) for _ in range(12)]
    outputs = []
    for peer_count in (1, 4, 16):
        store = store_with(docs, peer_count=peer_count)
        outputs.append([planner_bindings(store, p) for p in patterns])
    assert outputs[0] == outputs[1] == outputs[2]


# tag names double as text, attribute values and predicate words, so a
# text node or an attribute value can look like a name or a word
LOCAL_TAGS = ["a", "b", "c"]
LOCAL_WORDS = ["a", "b", "xml", "dht"]
LOCAL_TEXTS = ["a", "b", "xml", "XML dht", "b-a", "7", " 1999 ", "-3", "0012"]


@st.composite
def local_element(draw, depth=1):
    """(XML text, own text) of a random element; a tail may repeat the
    text of the child it follows."""
    tag = draw(st.sampled_from(LOCAL_TAGS))
    attrs = draw(
        st.dictionaries(
            st.sampled_from(["id", "lang"]), st.sampled_from(LOCAL_TEXTS), max_size=2
        )
    )
    own = draw(st.sampled_from(["", *LOCAL_TEXTS]))
    body = own
    for _ in range(draw(st.integers(0, 3 if depth < 4 else 0))):
        child, child_text = draw(local_element(depth + 1))
        body += child + draw(st.sampled_from(["", child_text, *LOCAL_TEXTS]))
    head = tag + "".join(f' {k}="{v}"' for k, v in attrs.items())
    return f"<{head}>{body}</{tag}>", own


@st.composite
def local_pattern(draw, depth=1):
    axis = draw(st.sampled_from(["/", "//"]))
    name = draw(st.sampled_from([*LOCAL_TAGS, "*", "@id", "@lang"]))
    text = axis + name
    pred = draw(st.sampled_from(["", "", "word", "range"]))
    if pred == "word":
        text += '="%s"' % draw(st.sampled_from(LOCAL_WORDS))
    elif pred == "range":
        lo = draw(st.sampled_from([-5, 0, 8, 1990]))
        text += f" in {lo}..{lo + draw(st.integers(0, 12))}"
    for _ in range(draw(st.integers(0, 2 if depth < 3 else 0))):
        text += "[" + draw(local_pattern(depth + 1)) + "]"
    return text + draw(st.sampled_from(["", "!"]))


@given(
    texts=st.lists(local_element(), min_size=1, max_size=3),
    patterns=st.lists(local_pattern(), min_size=1, max_size=4),
)
def test_local_candidates_from_postings_match_naive(texts, patterns):
    docs = [parse_document(t, i) for i, (t, _) in enumerate(texts, start=1)]
    for text in patterns:
        pattern = parse_pattern(text)
        assert eval_local(pattern, docs) == eval_naive(pattern, docs), text
