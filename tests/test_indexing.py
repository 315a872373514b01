import random
import struct

from hypothesis import given, settings, strategies as st

from twigstore.document import ELEMENT, ATTRIBUTE, TEXT, StructuralId, parse_document
from twigstore.indexing import (
    POSTING_SIZE,
    decode_postings,
    encode_int,
    encode_posting,
    encode_postings,
    key_count,
    range_count,
    tag_key,
    value_bounds,
    value_key,
    value_tags,
    word_key,
)
from twigstore.pattern import PNode
from twigstore.twigjoin import _predicates_hold

from helpers import (
    INT_HI, INT_LO, TAGS, WORDS, index_corpus, make_cluster, random_corpus,
    random_document_text,
)

D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"


def _unpack_posting(raw):
    """One posting read as the wire format says, independent of the codec
    under test: four unsigned 64-bit fields, big-endian, in label order."""
    return StructuralId(*struct.unpack(">QQQQ", raw))


def _split(values):
    """Stored values split into their 32-byte records: a publication
    stores each key's postings of one document as one value."""
    return [value[i : i + POSTING_SIZE]
            for value in values for i in range(0, len(value), POSTING_SIZE)]


def test_posting_wire_format():
    sid = StructuralId(3, 14, 15, 9)
    raw = encode_posting(sid)
    assert len(raw) == POSTING_SIZE
    assert raw == bytes.fromhex(
        "0000000000000003000000000000000e000000000000000f0000000000000009"
    )
    assert _unpack_posting(raw) == sid
    assert decode_postings(raw) == [sid]


def test_posting_lists_encode_and_decode_in_one_call():
    sids = [StructuralId(2**64 - 1, 2**32, 2**33, 7), StructuralId(1, 2, 3, 1)]
    raw = encode_postings(iter(sids))
    assert raw == b"".join(map(encode_posting, sids))
    assert decode_postings(raw) == sids
    assert encode_postings([]) == b"" and decode_postings(b"") == []


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
    assert index.known_tags() == ["a", "b", "c"]


def test_a_word_in_two_text_children_is_published_once():
    net, dht, index = make_cluster()
    doc = parse_document("<lib><p>dht xml <b>bold</b> more dht</p></lib>", 1)
    # lib, p and b tags; dht, xml and more under p; bold under b
    assert index.index_document(doc, 1) == 7
    p = StructuralId(1, 2, 8, 2)
    stored = dht.hash.members[dht.hash.owner_of("w:dht")]["w:dht"]
    assert stored == [encode_posting(p)]
    assert index.stats["w:dht"] == 1
    assert [node.label for node in doc.with_word(None, "dht")] == [p]


def test_an_integer_in_two_text_children_is_published_once():
    net, dht, index = make_cluster(4)
    doc = parse_document("<r><n>12<b/>12</n></r>", 1)
    # r, n and b tags; the word 12 and the value 12 under n
    assert index.index_document(doc, 1) == 5
    n = StructuralId(1, 2, 7, 2)
    key = value_key("n", 12)
    assert dht.range.members[dht.range.owner_of(key)][key] == [encode_posting(n)]
    assert index.stats[key] == 1
    assert [node.label for node in doc.in_range("n", 0, 20)] == [n]


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
    assert sorted(tags) == index.known_tags()


def test_both_backends_index_each_node_under_its_terms():
    """A node's published keys are its tag key plus the keys of its
    ``terms``, and the centralized word and range lookups find it exactly
    where the oracle's full text check holds, on mixed-content documents."""
    rng = random.Random(32)
    net, dht, index = make_cluster(1)
    for doc_id in range(1, 81):
        doc = parse_document(random_document_text(rng), doc_id)
        published: dict[StructuralId, list[str]] = {}

        def put(ov, via, items):
            for key, run in items:
                for sid in decode_postings(run):
                    published.setdefault(sid, []).append(key)

        index.index_document(doc, 1, put)
        for node in doc.nodes:
            if node.kind == TEXT:
                continue
            words, values = doc.terms(node)
            want = [tag_key(node.name), *map(word_key, words),
                    *(value_key(node.name, v) for v in values)]
            assert sorted(published.pop(node.label)) == sorted(want)
            pnode = PNode(0, node.name)
            for word in WORDS:
                pnode.word = word
                hit = node in doc.with_word(node.name, word)
                assert hit == _predicates_hold(doc, node, pnode), (node.label, word)
            pnode.word = None
            for value in range(INT_LO, INT_HI + 1):
                pnode.lo = pnode.hi = value
                hit = node in doc.in_range(node.name, value, value)
                assert hit == _predicates_hold(doc, node, pnode), (node.label, value)
        assert not published  # no text node is published


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
    for ov in (dht.hash, dht.range):
        for peer_store in ov.members.values():
            for key, values in peer_store.items():
                if key[:2] in ("t:", "w:", "v:"):
                    stored.setdefault(key, []).extend(
                        map(_unpack_posting, _split(values)))
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


# -- lookups return postings in label order -----------------------------------

# labels whose order differs from the order of their low 32 bits
_WIDE = [
    StructuralId(2**32 + 1, 2**33, 2**33 + 9, 2),
    StructuralId(1, 2**32 + 7, 2**32 + 8, 3),
    StructuralId(2**32, 5, 6, 1),
    StructuralId(255, 2**40, 2**40, 4),
    StructuralId(2**64 - 1, 1, 2, 1),
    StructuralId(1, 2**32 + 7, 2**32 + 8, 2),
]


def _stored(ov, key):
    """Every encoded posting the overlay holds under ``key``, on any peer."""
    return [v for peer_store in ov.members.values()
            for v in _split(peer_store.get(key, []))]


def _label_order(records):
    return sorted(set(map(_unpack_posting, records)))


def _owner_and_other(ov, key):
    owner = ov.owner_of(key)
    return owner, next(p for p in ov.members if p != owner)


def test_lookups_return_distinct_postings_in_label_order():
    net, dht, index = make_cluster(4)
    # two text children of <p> hold "xml", which is published once for it;
    # the duplicates come from the puts below
    doc = parse_document("<r><p>xml <b/> xml</p><n>7</n></r>", 2**32 + 3)
    index.index_document(doc, 1)
    wkey, vkey = word_key("xml"), value_key("n", 7)
    assert len(_stored(dht.hash, wkey)) == 1
    for key in (tag_key("p"), wkey):
        dht.put(dht.hash, 2, [(key, encode_posting(sid)) for sid in _WIDE * 2])
    dht.put(dht.range, 3, [(vkey, encode_posting(sid)) for sid in _WIDE[::-1]])

    def read(ov, key, lookup):
        owner, other = _owner_and_other(ov, key)
        want = _label_order(_stored(ov, key))
        before = net.stats.messages_sent
        assert lookup(owner) == want  # read locally
        assert net.stats.messages_sent == before
        assert lookup(other) == want  # read through a remote request
        assert net.stats.messages_sent > before
        return want

    for key in (tag_key("p"), wkey):
        got = read(dht.hash, key, lambda via: index.lookup(key, via))
        assert len(got) == len(_WIDE) + 1
    want = read(dht.range, vkey,
                lambda via: index.lookup_value_range("n", 0, 10, via))
    for via in (1, 2, 3, 4):
        assert index.lookup_value_range("*", 0, 10, via) == want
    everything = [v for t in ("b", "n", "p", "r")
                  for v in _stored(dht.hash, tag_key(t))]
    for via in (1, 2, 3, 4):
        assert index.lookup_all(via) == _label_order(everything)


_FIELD = st.one_of(st.integers(0, 3), st.integers(2**32 - 2, 2**32 + 2),
                   st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(sids=st.lists(st.builds(StructuralId, _FIELD, _FIELD, _FIELD, _FIELD),
                     max_size=40),
       peers=st.sampled_from([1, 3]))
def test_byte_order_is_label_order(sids, peers):
    net, dht, index = make_cluster(peers)
    key = tag_key("x")
    dht.put(dht.hash, 1, [(key, encode_posting(sid)) for sid in sids + sids[:3]])
    for via in range(1, peers + 1):
        assert index.lookup(key, via) == sorted(set(sids))


def test_value_tags_lists_the_tags_with_value_postings():
    stats = {"t:a": 3, "v:year=1": 2, "v:year=2": 1, "v:n=3": 1, "w:x": 1}
    assert value_tags(stats) == ["n", "year"]
    assert value_tags({"t:a": 1}) == []
