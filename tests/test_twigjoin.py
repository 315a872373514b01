import random
from collections import Counter
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from twigstore import twigjoin
from twigstore.document import StructuralId, parse_document, serialize_document
from twigstore.errors import UnsupportedWildcardRoot
from twigstore.indexing import decode_postings, encode_postings
from twigstore.pattern import (
    CHILD,
    DESCENDANT,
    PNode,
    TreePattern,
    canonical,
    parse_pattern,
)
from twigstore.store import Store, StoreConfig
from twigstore.twigjoin import (
    QueryCache,
    axis_holds,
    eval_local,
    eval_naive,
    holistic_join,
    stack_join,
)

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
    # the marker column repeats, so equal rows occur and must all be kept;
    # the kernel takes each list in its join column's label order
    parents = sorted([(i % 2, lb) for i, lb in enumerate(p_labels)], key=itemgetter(1))
    children = sorted([(lb, i % 2) for i, lb in enumerate(c_labels)], key=itemgetter(0))
    got = stack_join(axis, parents, 1, children, 0)
    want = [
        (prow, crow)
        for prow in parents
        for crow in children
        if axis_holds(axis, prow[1], crow[0])
    ]
    assert Counter(got) == Counter(want)


# one to three rows on one side against up to 60 on the other, as picks
# into the label pools, so that the kernel skips over long stretches
_FEW = st.lists(st.integers(0, 999), min_size=1, max_size=3)
_MANY = st.lists(st.integers(0, 999), max_size=60)


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(
        st.integers(0, 10**6).map(lambda s: random_document_text(random.Random(s), 40)),
        min_size=1, max_size=3,
    ),
    axis=st.sampled_from([CHILD, DESCENDANT]),
    # a tag name takes its nodes, which nest in themselves; None takes all
    names=st.tuples(*[st.sampled_from([None, "a", "b"])] * 2),
    picks=st.one_of(st.tuples(_FEW, _MANY), st.tuples(_MANY, _FEW)),
)
@example(
    # the first sec and the inner sec end before the second par starts;
    # the outer sec, between them in label order, still contains it
    texts=["<doc><sec/><sec><sec><par/></sec><par/></sec></doc>"],
    axis=DESCENDANT, names=("sec", "par"), picks=([0, 1, 2], [1]),
)
@example(
    # the deepest open sec of the first par is its grandparent
    texts=["<doc><sec><x><par/></x></sec><sec><par/></sec></doc>"],
    axis=CHILD, names=("sec", "par"), picks=([0, 1], [0, 1]),
)
@example(
    # the first a ends before the b of document 1 starts, and so does the
    # a of document 2 by position, which must not be skipped with it
    texts=["<r><a/><x/><x/><x/><b/></r>", "<r><a><b/></a></r>"],
    axis=DESCENDANT, names=("a", "b"), picks=([0, 1], [0, 1]),
)
def test_stack_join_skips_match_nested_loop(texts, axis, names, picks):
    docs = [parse_document(text, d) for d, text in enumerate(texts, start=1)]

    def pool(name):
        return [n.label for doc in docs
                for n in (doc.nodes if name is None else doc.named(name))]

    p_pool, c_pool = pool(names[0]), pool(names[1])
    p_labels = [p_pool[k % len(p_pool)] for k in picks[0]] if p_pool else []
    c_labels = [c_pool[k % len(c_pool)] for k in picks[1]] if c_pool else []
    parents = sorted([(i % 2, lb) for i, lb in enumerate(p_labels)], key=itemgetter(1))
    children = sorted([(lb, i % 2) for i, lb in enumerate(c_labels)], key=itemgetter(0))
    got = stack_join(axis, parents, 1, children, 0)
    want = [
        (prow, crow)
        for prow in parents
        for crow in children
        if axis_holds(axis, prow[1], crow[0])
    ]
    assert Counter(got) == Counter(want)


def test_deep_path_joins_return_no_more_rows_than_the_answer_needs(monkeypatch):
    # 40 articles of 3 secs of 2 pars, in two documents; every 7th par
    # holds the word, so most article-sec pairs lead to no answer
    pars = iter(f"<par>{'w' if k % 7 == 0 else 'v'} x</par>" for k in range(240))
    articles = [
        "<article><title>t</title>"
        + "".join("<sec>" + next(pars) + next(pars) + "</sec>" for _ in range(3))
        + "</article>"
        for _ in range(40)
    ]
    docs = [
        parse_document("<dblp>" + "".join(articles[i : i + 20]) + "</dblp>", d)
        for d, i in ((1, 0), (2, 20))
    ]
    returned = []

    def counted(*args):
        pairs = stack_join(*args)
        returned.append(len(pairs))
        return pairs

    monkeypatch.setattr(twigjoin, "stack_join", counted)
    pattern = parse_pattern('//article/sec/par="w"!')
    bindings = eval_local(pattern, docs)
    assert len(bindings) == 35
    assert sum(returned) <= len(pattern.edges) * len(bindings)


def test_root_anchored_joins_return_no_more_rows_than_the_answer_needs(monkeypatch):
    # 40 articles in two documents; every 8th carries the venue, so most
    # of the articles under dblp lead to no answer
    articles = [
        f"<article><title>t{k}</title><venue>{'v' if k % 8 else 'w'}</venue>"
        "</article>"
        for k in range(40)
    ]
    docs = [
        parse_document("<dblp>" + "".join(articles[i : i + 20]) + "</dblp>", d)
        for d, i in ((1, 0), (2, 20))
    ]
    returned = []

    def counted(*args):
        pairs = stack_join(*args)
        returned.append(len(pairs))
        return pairs

    monkeypatch.setattr(twigjoin, "stack_join", counted)
    pattern = parse_pattern('/dblp/article[/venue="w"]/title!')
    bindings = eval_local(pattern, docs)
    assert len(bindings) == 5
    assert sum(returned) <= len(pattern.edges) * len(bindings)


# pattern shapes for holistic_join, as edge lists (parent, child); over the
# 4-node path and the node whose child has two children, the fold can start
# at the root, an interior node or a leaf
_SHAPES = [
    [(0, 1)],
    [(0, 1), (1, 2)],
    [(0, 1), (0, 2)],
    [(0, 1), (1, 2), (2, 3)],
    [(0, 1), (1, 2), (1, 3)],
]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    axes=st.lists(st.sampled_from([CHILD, DESCENDANT]), min_size=3, max_size=3),
    shape=st.sampled_from(_SHAPES),
    wire=st.booleans(),
    data=st.data(),
)
def test_joins_match_nested_loop_on_multi_document_labels(
    seed, axes, shape, wire, data
):
    rng = random.Random(seed)
    docs = [parse_document(random_document_text(rng, 20), d) for d in (2, 1, 3)]
    pool = [node.label for doc in docs for node in doc.nodes]
    if wire:  # labels as a lookup or a shipped dataset delivers them
        decoded = decode_postings(encode_postings(pool))
        assert decoded == pool and all(type(lb) is StructuralId for lb in decoded)
        pool = decoded
    labels = st.sampled_from(pool)
    # duplicate labels give duplicate parent rows, which must all be kept;
    # the decoded copies are equal labels but not the same objects
    cands = [data.draw(st.lists(labels, max_size=12)) for _ in range(len(shape) + 1)]
    cands[0] += decode_postings(encode_postings(cands[0][::2]))
    edges = [(p, c, axis) for (p, c), axis in zip(shape, axes)]
    pattern = TreePattern(nodes=[PNode(i, "*") for i in range(len(cands))],
                          edges=edges)

    # both joins take one-label rows in label order
    rows = [[(lb,) for lb in sorted(c)] for c in cands]
    got = stack_join(axes[0], rows[0], 0, rows[1], 0)
    want = [((p,), (c,)) for p in cands[0] for c in cands[1]
            if axis_holds(axes[0], p, c)]
    assert Counter(got) == Counter(want)

    want = [b for b in product(*cands)
            if all(axis_holds(axis, b[p], b[c]) for p, c, axis in edges)]
    assert Counter(holistic_join(pattern, rows)) == Counter(want)


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


def test_planner_join_sorts_rows_it_reads_on_a_later_column():
    # the (a, b) rows are in a's order, so the b column reads b1, b2, b1
    # (the inner a holds b1 too); joining c to b must sort them by b first
    doc = parse_document("<r><a><a><b><c/></b></a><b><c/></b></a></r>", 1)
    store = store_with([doc])
    docs = list(store.documents.values())
    for text in ("//a//b/c!", "//a[//b/c]!"):
        pattern = parse_pattern(text)
        want = eval_naive(pattern, docs)
        assert len(want) == 3
        assert planner_bindings(store, pattern) == want, text


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
LOCAL_WORDS = ["a", "b", "xml", "dht", "straße", "ﬁle"]
# the last three fold case or hold non-ASCII letters: the word postings
# must make the same words as the oracle's per-text split
LOCAL_TEXTS = [
    "a", "b", "xml", "XML dht", "b-a", "7", " 1999 ", "-3", "0012",
    "Straße", "ﬁle", "Xml XML",
]


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
# two integer text children in one range (own text plus a tail), and a
# word held by two text children, must each bind their element once
@example(
    texts=[("<a>7<b>Xml XML</b>0012<c>8</c>Xml XML<b>ﬁle</b>xml<c>Straße</c></a>",
            "7")],
    patterns=["//a in 0..12!", "//* in 7..12!", "//a[/b in 0..12]!",
              '//a="xml"!', '//*="xml"', '//a[/*="ﬁle"]!', '//*="straße"!'],
)
def test_local_candidates_from_postings_match_naive(texts, patterns):
    docs = [parse_document(t, i) for i, (t, _) in enumerate(texts, start=1)]
    for text in patterns:
        pattern = parse_pattern(text)
        assert eval_local(pattern, docs) == eval_naive(pattern, docs), text


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(local_element(), min_size=1, max_size=3),
    patterns=st.lists(local_pattern(), min_size=1, max_size=4),
)
# sec nests in sec: the cached skip index of the secs must keep the outer
# sec findable after the inner one ends, cold and warm
@example(
    texts=[("<lib><sec><sec><par>x</par></sec><par>x</par><par>y</par></sec>"
            "<sec><par>x</par></sec></lib>", "")],
    patterns=['//sec//par="x"!', "//sec/par!", '/lib//sec[/par="y"]//par!', "//*/par!"],
)
# the join of the few pars leaves the bound rows in par order, so the
# inner s comes before the outer one; the join to t reads the s column
# from the parent side and must sort them first
@example(
    texts=[("<r><s><s><p>x</p><t/><t/></s><p>x</p><t/><t/></s></r>", "")],
    patterns=['//s[/p="x"]/t!'],
)
# the same after a child-side join: joining g to s leaves the inner g
# before the outer one, and the join to t reads the g column
@example(
    texts=[("<r><g><g><s><p>x</p></s><s/><t/><t/></g>"
            "<s><p>x</p></s><s/><t/><t/></g></r>", "")],
    patterns=['//g[/s/p="x"]/t!', '/r/g[/s/p="x"]/t!'],
)
# the join of the pars leaves the inner s, inside a g inside the outer s,
# before the outer one; the join to g reads the s column from the child
# side and must sort them first
@example(
    texts=[("<r><g><s><g><s><p>x</p></s></g><p>x</p></s><s/></g></r>", "")],
    patterns=['//g/s/p="x"!'],
)
def test_warm_document_rows_answer_as_cold_ones(texts, patterns):
    # one centralized store answers each pattern twice: the first time
    # builds the rows and skip indexes its names need, the second reuses them
    store = Store(StoreConfig(backend="centralized"))
    for text, _ in texts:
        store.store_resource(text)
    docs = list(store.documents.values())
    for text in patterns:
        pattern = parse_pattern(text)
        want = eval_naive(pattern, docs)
        labels = sorted({b[i] for b in want for i in pattern.return_nodes})
        for _ in range(2):
            assert eval_local(pattern, docs) == want, text
            if not pattern.all_wildcard:
                got = store.query(text).resources
                assert [r.root_label for r in got] == labels, text
