import random

from hypothesis import given, settings, strategies as st

from twigstore.document import ELEMENT, ATTRIBUTE, StructuralId, parse_document
from twigstore.indexing import (
    POSTING_SIZE,
    decode_posting,
    encode_int,
    encode_posting,
    key_count,
    range_count,
    value_bounds,
    value_key,
)

from helpers import INT_HI, INT_LO, TAGS, index_corpus, make_cluster, random_corpus

D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"


def test_posting_wire_format():
    sid = StructuralId(3, 14, 15, 9)
    raw = encode_posting(sid)
    assert len(raw) == POSTING_SIZE
    assert raw == bytes.fromhex(
        "0000000000000003000000000000000e000000000000000f0000000000000009"
    )
    assert decode_posting(raw) == sid


def test_int_encoding_preserves_order():
    values = [-1000, -3, 0, 5, 77, 10**6]
    encoded = [encode_int(v) for v in values]
    assert encoded == sorted(encoded)


def test_index_document_counts_and_lookups():
    net, dht, index = make_cluster()
    doc = parse_document(D1, 1)
    assert index.index_document(doc, 1) == 6  # 4 tags + 2 words
    assert index.lookup_tag("par", 2) == [StructuralId(1, 6, 8, 3)]
    assert index.lookup_tag("nosuch", 2) == []
    assert index.lookup_word("dht", 3) == [StructuralId(1, 3, 5, 3)]


def test_value_posting_for_integer_content():
    net, dht, index = make_cluster()
    doc = parse_document("<y><year>2003</year></y>", 1)
    count = index.index_document(doc, 1)
    assert count == 2 + 1 + 1  # y, year tags; word "2003"; one value posting
    assert index.lookup_value_range("year", 2000, 2005, 2) == [
        StructuralId(1, 2, 4, 2)
    ]
    assert index.lookup_value_range("year", 2003, 2003, 2) == [
        StructuralId(1, 2, 4, 2)
    ]
    assert index.lookup_value_range("year", 2004, 2010, 2) == []


def test_empty_elements_publish_no_words():
    net, dht, index = make_cluster()
    doc = parse_document("<a><b/><c/></a>", 1)
    assert index.index_document(doc, 1) == 3
    assert index.known_tags(1) == ["a", "b", "c"]


def test_same_doc_indexed_under_two_ids():
    net, dht, index = make_cluster()
    index.index_document(parse_document(D1, 1), 1)
    index.index_document(parse_document(D1, 2), 2)
    postings = index.lookup_tag("par", 1)
    assert [p.doc_id for p in postings] == [1, 2]


def test_word_postings_point_to_enclosing_element():
    net, dht, index = make_cluster()
    docs = random_corpus(random.Random(5), max_docs=4, max_nodes=20)
    index_corpus(index, docs, [1, 2, 3, 4])
    by_label = {}
    for doc in docs:
        for node in doc.nodes:
            by_label[node.label] = node
    for word in ("xml", "dht", "web", "data", "peer", "query"):
        for sid in index.lookup_word(word, 1):
            assert by_label[sid].kind == ELEMENT


def test_index_completeness_against_traversal():
    rng = random.Random(11)
    net, dht, index = make_cluster()
    docs = random_corpus(rng, max_docs=5, max_nodes=25)
    index_corpus(index, docs, [1, 2, 3, 4])
    tags = set()
    expected: dict[str, set] = {}
    for doc in docs:
        for node in doc.nodes:
            if node.kind in (ELEMENT, ATTRIBUTE):
                tags.add(node.name)
                expected.setdefault(node.name, set()).add(node.label)
    for tag in tags:
        got = index.lookup_tag(tag, 2)
        assert set(got) == expected[tag]
        assert got == sorted(got)
    assert sorted(tags) == index.known_tags(3)


def test_value_round_trip_exact_bounds():
    net, dht, index = make_cluster()
    xml = "<r><n>1999</n><n>2003</n><n>2007</n></r>"
    index.index_document(parse_document(xml, 1), 1)
    in_range = index.lookup_value_range("n", 2000, 2005, 1)
    assert [p.start for p in in_range] == [5]
    assert index.lookup_value_range("n", 1999, 1999, 1) == [StructuralId(1, 2, 4, 2)]
    assert index.lookup_value_range("n", 2010, 2020, 1) == []


_BOUNDS = st.one_of(
    st.integers(INT_LO - 3, INT_HI + 3),
    st.sampled_from([-(10**19), -(10**18) - 1, -(10**18), 0,
                     10**18, 10**18 + 1, 10**19]),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    peers=st.sampled_from([1, 3, 4, 8]),
    ranges=st.lists(
        st.tuples(st.sampled_from(TAGS + ["*"]), _BOUNDS, _BOUNDS), max_size=6
    ),
)
def test_estimates_count_and_lookups_return_the_published_postings(seed, peers, ranges):
    net, dht, index = make_cluster(peers)
    members = list(range(1, peers + 1))
    index_corpus(index, random_corpus(random.Random(seed)), members)
    # what the overlays hold, read straight from every peer's store
    stored: dict[str, list[StructuralId]] = {}
    for dht_id in (0, 1):
        for state in dht.overlays[dht_id].members.values():
            for key, values in state.store.items():
                if key[:2] in ("t:", "w:", "v:"):
                    stored.setdefault(key, []).extend(map(decode_posting, values))
    stats = index.stats
    via = members[seed % peers]

    def check(got, want):
        assert got == sorted(set(got))
        assert set(got) == set(want)

    for key in stored:
        if not key.startswith("v:"):
            assert key_count(stats, key) == len(stored[key]), key
            check(index.lookup(key, via), stored[key])
    tag_postings = [sid for key, sids in stored.items() if key.startswith("t:")
                    for sid in sids]
    assert key_count(stats, "*") == len(tag_postings)
    check(index.lookup("*", via), tag_postings)
    assert index.lookup("t:nosuch", via) == []

    for tag, lo, hi in ranges:
        lo, hi = min(lo, hi), max(lo, hi)
        want = [
            sid
            for key, sids in stored.items()
            if key.startswith("v:")
            and tag in ("*", key[2 : key.index("=")])
            and lo <= int(key[key.index("=") + 1 :]) - 10**19 <= hi
            for sid in sids
        ]
        assert range_count(stats, tag, lo, hi) == len(want), (tag, lo, hi)
        check(index.lookup_value_range(tag, lo, hi, via), want)


def test_value_bounds_clip_to_the_window():
    edge = 10**18
    assert value_bounds("n", 1999, 2003) == (value_key("n", 1999), value_key("n", 2004))
    assert value_bounds("n", -(10**19), 10**19) == (
        value_key("n", -edge), value_key("n", edge + 1)
    )
    assert value_bounds("n", edge, edge + 7) == (
        value_key("n", edge), value_key("n", edge + 1)
    )
    for lo, hi in ((edge + 1, edge + 5), (10**19, 10**19 + 5), (-(10**19), -edge - 1)):
        assert value_bounds("n", lo, hi) is None
