import random

from twigstore.document import ELEMENT, ATTRIBUTE, StructuralId, parse_document
from twigstore.indexing import (
    POSTING_SIZE,
    decode_posting,
    encode_int,
    encode_posting,
)

from helpers import index_corpus, make_cluster, random_corpus

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
