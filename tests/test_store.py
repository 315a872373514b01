import errno
import os
import random
import stat
import struct
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from twigstore import planner, twigjoin
from twigstore import store as store_module
from twigstore.cli import main as cli_main
from twigstore.errors import (
    CorruptSnapshot,
    IoFailure,
    MalformedInput,
    MalformedXml,
    NotFound,
    PatternSyntaxError,
    UnseedablePattern,
)
from twigstore.document import Document, serialize_node, split_words
from twigstore.netsim import Network
from twigstore.overlay import REQUEST_BODY, DhtService
from twigstore.rdfstore import (
    ConjunctiveQuery,
    Triple,
    TriplePattern,
    parse_query_text,
)
from twigstore.store import MAX_PEERS, P2P, Store, StoreConfig, restore, snapshot

from helpers import (
    TAGS,
    WORDS,
    random_document_text,
    random_pattern_text,
    deflated,
    plain_snapshot,
    write_snapshot,
)

D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"


def config(backend="p2p", tmp_path=None, granularity=("par",), peers=4):
    return StoreConfig(
        backend=backend,
        peer_count=peers,
        resource_granularity=set(granularity),
        snapshot_path=str(tmp_path / "s.snap") if tmp_path else "s.snap",
    )


@pytest.fixture(params=["centralized", "p2p"])
def any_store(request, tmp_path):
    return Store(config(request.param, tmp_path))


def test_store_resource_ids(any_store):
    assert any_store.store_resource(D1) == ["1#1", "1#6"]
    assert any_store.store_resource(D1) == ["2#1", "2#6"]


def test_store_malformed(any_store):
    with pytest.raises(MalformedXml):
        any_store.store_resource("<a><b></a>")


def test_get_resource(any_store):
    any_store.store_resource(D1)
    resource = any_store.get_resource("1#6")
    assert resource.payload == "<par>xml</par>"
    with pytest.raises(NotFound):
        any_store.get_resource("9#9")


def test_get_resource_single_probe(any_store):
    for _ in range(5):
        any_store.store_resource(D1)
    before = any_store.probe_count
    any_store.get_resource("3#6")
    assert any_store.probe_count - before == 1


def test_query_before_store_is_empty(any_store):
    assert any_store.query("//sec!").resources == []


def test_all_wildcard_rejected_by_both_backends(any_store):
    from twigstore.errors import UnsupportedWildcardRoot

    any_store.store_resource(D1)
    with pytest.raises(UnsupportedWildcardRoot):
        any_store.query("//*!")


def test_query_returns_resources(any_store):
    any_store.store_resource(D1)
    result = any_store.query('//sec[/title="dht"]!')
    assert [(r.resource_id, r.payload) for r in result.resources] == [
        ("1#2", "<sec><title>dht</title><par>xml</par></sec>")
    ]
    if any_store.config.backend == P2P:
        assert result.stats.bytes_sent > 0
    else:
        assert result.stats.bytes_sent == 0


@pytest.mark.parametrize("text", [
    '<x:a xmlns:x="urn:u"><x:b>t</x:b></x:a>',
    '<a xmlns="urn:u"><b>t</b></a>',
    '<a xml:lang="en"><b>t</b></a>',
])
def test_namespaced_document_refused(tmp_path, any_store, text):
    with pytest.raises(MalformedXml):
        any_store.store_resource(text)
    assert any_store.store_resource(D1) == ["1#1", "1#6"]
    path = str(tmp_path / "x.snap")
    snapshot(any_store, path)
    assert restore(path).get_resource("1#6").payload == "<par>xml</par>"


# names the XML parser accepts: a leading "_", a middle dot, a decomposed
# accent (a combining mark), a spacing vowel sign, ideographs
QUERYABLE_NAMES = ["_x", "x\u00b7y", "cafe\u0301", "\u0915\u093f", "a.b-c",
                   "\u65e5\u672c", "_"]


@pytest.mark.parametrize("name", QUERYABLE_NAMES)
def test_every_ingested_name_can_be_queried(any_store, name):
    any_store.store_resource(f'<r {name}="v"><{name}>t</{name}></r>')
    got = any_store.query(f"//{name}!").resources
    assert [r.payload for r in got] == [f"<{name}>t</{name}>"]
    got = any_store.query(f"//r[/@{name}]!").resources
    assert [r.payload for r in got] == [f'<r {name}="v"><{name}>t</{name}></r>']


@pytest.mark.parametrize("word", ["x-y", "a_b", "xml.", "\u0130stanbul"])
def test_word_predicate_that_is_no_indexed_word_refused(any_store, word):
    any_store.store_resource(f"<r><t>{word}</t></r>")
    with pytest.raises(PatternSyntaxError):
        any_store.query(f'//t="{word}"!')
    # each word the text splits into finds it
    for part in split_words(word):
        got = any_store.query(f'//t="{part}"!').resources
        assert [r.payload for r in got] == [f"<t>{word}</t>"]


def test_character_references_survive_snapshot(tmp_path, any_store):
    (rid,) = any_store.store_resource(
        "<a><b>x&#13;y</b><c a='p&#13;q&#9;r'/></a>"
    )
    payload = '<a><b>x&#13;y</b><c a="p&#13;q&#9;r"/></a>'
    assert any_store.get_resource(rid).payload == payload
    path = str(tmp_path / "x.snap")
    snapshot(any_store, path)
    again = restore(path)
    assert again.get_resource(rid).payload == payload
    assert [r.payload for r in again.query("//b!").resources] == [
        r.payload for r in any_store.query("//b!").resources
    ] == ["<b>x&#13;y</b>"]


def test_backend_transparency_randomized(tmp_path):
    rng = random.Random(13)
    for round_no in range(6):
        central = Store(config("centralized", tmp_path, granularity=()))
        p2p = Store(config("p2p", tmp_path, granularity=()))
        for _ in range(rng.randint(1, 5)):
            text = random_document_text(rng, 22)
            assert central.store_resource(text) == p2p.store_resource(text)
        for _ in range(8):
            pattern = random_pattern_text(rng)
            a = central.query(pattern)
            b = p2p.query(pattern)
            assert [(r.resource_id, r.payload) for r in a.resources] == [
                (r.resource_id, r.payload) for r in b.resources
            ], pattern


def test_posting_count_matches_centralized_traversal(tmp_path):
    # the p2p backend publishes exactly the postings a traversal counts
    from twigstore.document import ATTRIBUTE, ELEMENT, TEXT, parse_document
    from twigstore.document import parse_int_content, split_words

    text = "<r><a id=\"x\">xml data</a><b>2001</b><b/></r>"
    doc = parse_document(text, 1)
    expected = 0
    for node in doc.nodes:
        if node.kind in (ELEMENT, ATTRIBUTE):
            expected += 1
        elif node.kind == TEXT:
            expected += len(set(split_words(node.name_or_value)))
            if parse_int_content(node.name_or_value) is not None:
                expected += 1
    store = Store(config("p2p", tmp_path))
    store.store_resource(text)
    assert sum(store.index.stats.values()) == expected


# mixed content: an element's text follows a child holding the same word
# or integer, yet in label order the element's word and value postings
# come before the child's
MIXED_DOCS = (
    "<r><a><b>foo</b>foo<c>7</c>7</a><a>x<b>foo 7</b>foo</a></r>",
    "<r><b>foo</b><a>foo<b>foo</b></a></r>",
)
MIXED_QUERIES = ('//a="foo"!', '//*="foo"!', '//a[/b="foo"]!', "//* in 5..9!",
                 '//r[//b="foo"]//a!')


@pytest.mark.parametrize("peers", [1, 8])
def test_mixed_content_postings_are_stored_as_sorted_runs(tmp_path, peers):
    central = Store(config("centralized", tmp_path, granularity=()))
    p2p = Store(config("p2p", tmp_path, granularity=(), peers=peers))
    for text in MIXED_DOCS:
        assert central.store_resource(text) == p2p.store_resource(text)
    for q in MIXED_QUERIES:
        want = [(r.resource_id, r.payload) for r in central.query(q).resources]
        assert want, q
        assert [(r.resource_id, r.payload) for r in p2p.query(q).resources] == want, q
    # every posting key holds one run per document, its postings sorted
    # and distinct, and the runs rise by doc id
    for ov in (p2p.dht.hash, p2p.dht.range):
        for peer_store in ov.members.values():
            for key, runs in peer_store.items():
                if key[:2] not in ("t:", "w:", "v:"):
                    continue
                docs = []
                for run in runs:
                    records = [run[i : i + 32] for i in range(0, len(run), 32)]
                    assert records == sorted(set(records)), key
                    assert len({r[:8] for r in records}) == 1, key
                    docs.append(records[0][:8])
                assert docs == sorted(set(docs)), key


def test_rdf_both_backends(tmp_path):
    query = parse_query_text("SELECT ?x ?y\n?x type Doc\n?x author ?y\n")
    results = []
    for backend in ("centralized", "p2p"):
        store = Store(config(backend, tmp_path))
        store.rdf_load([Triple("a", "type", "Doc"), Triple("a", "author", "b"),
                        Triple("b", "type", "Page")])
        results.append(store.rdf_query(query))
    assert results[0] == results[1] == [("a", "b")]


@pytest.mark.parametrize(
    "patterns, projection",
    [
        ([("?s", "?p", "?o")], ["?s"]),
        ([("?s", "knows", "b"), ("?x", "?p", "?o")], ["?s", "?x"]),
    ],
)
def test_rdf_pattern_without_constant_refused_by_both_backends(
    any_store, patterns, projection
):
    any_store.rdf_load([Triple("a", "knows", "b"), Triple("b", "knows", "c")])
    before = any_store.stats_report()
    query = ConjunctiveQuery([TriplePattern(*p) for p in patterns], projection)
    with pytest.raises(UnseedablePattern):
        any_store.rdf_query(query)
    text = "SELECT " + " ".join(projection) + "\n"
    text += "".join(" ".join(p) + "\n" for p in patterns)
    with pytest.raises(UnseedablePattern):
        parse_query_text(text)
    assert any_store.stats_report() == before  # refused before any get


@pytest.mark.parametrize(
    "bad", [Triple("a\tb", "knows", "c"), Triple("a", "kn\nows", "c"), Triple("a", "knows", "")]
)
def test_rdf_load_refuses_separators_and_empty_fields(tmp_path, any_store, bad):
    # a tab or a newline inside a field, or an empty field, would not survive
    # the tab-separated triple text the p2p index and the snapshot hold
    before = any_store.stats_report()
    with pytest.raises(MalformedInput):
        any_store.rdf_load([Triple("x", "knows", "y"), bad])
    assert any_store.triples == []
    assert any_store.stats_report() == before
    assert any_store.rdf_query(parse_query_text("SELECT ?s\n?s knows ?o\n")) == []
    path = str(tmp_path / "x.snap")
    snapshot(any_store, path)
    assert restore(path).triples == []


def test_backends_agree_beyond_the_integer_window(tmp_path):
    # 10^19 is outside the +-10^18 window, and 5,000 digits exceed the
    # 4,300 digits int() accepts: neither text counts as an integer
    cases = [
        ("<r><c>10000000000000000000</c></r>", "//c in 0..99999999999999999999!"),
        ("<r><c>" + "7" * 5000 + "</c></r>", "//c in 0..9!"),
        ("<r><c>-" + "0" * 5000 + "12</c></r>", "//c in -20..0!"),
    ]
    for text, pattern in cases:
        answers = []
        for backend in ("centralized", "p2p"):
            store = Store(config(backend, tmp_path))
            assert store.store_resource(text) == ["1#1"]
            answers.append([r.resource_id for r in store.query(pattern).resources])
        assert answers[0] == answers[1], (text[:40], pattern)
    assert answers[0] == ["1#2"]  # leading zeros do not count as digits

    # query bounds beyond the window match nothing, on both backends; the
    # in-window values give every range estimate value keys to count
    big, edge = 10**19, 10**18
    text = f"<r><c>{edge}</c><c>{-edge}</c><c>7</c><c>{big}</c></r>"
    cases = [
        (f"//c in {big}..{big + 5}!", []),
        (f"//c in {-(big + 5)}..{-big}!", []),
        (f"//* in {big}..{big + 5}!", []),
        (f"//r[/c in {big}..{big + 5}]!", []),
        (f"//c in {edge}..{edge}!", ["1#2"]),
        (f"//c in {-edge}..{-edge}!", ["1#5"]),
        (f"//c in {edge + 1}..{edge + 5}!", []),
        (f"//c in {-(edge + 5)}..{-(edge + 1)}!", []),
        (f"//c in {-(edge + 1)}..{edge + 1}!", ["1#2", "1#5", "1#8"]),
        (f"//* in {edge}..{big}!", ["1#2"]),
    ]
    stores = [Store(config(backend, tmp_path)) for backend in ("centralized", "p2p")]
    for store in stores:
        assert store.store_resource(text) == ["1#1"]
    for pattern, want in cases:
        for store in stores:
            got = [r.resource_id for r in store.query(pattern).resources]
            assert got == want, (store.config.backend, pattern)


_ARTICLES = [
    '<dblp><article key="a{0}"><title>xml {0}</title><author>ann</author>'
    '<year>{1}</year><venue>vldb</venue><sec><par>peer data</par></sec>'
    '</article></dblp>'.format(i, year)
    for i, year in ((1, 1994), (2, 1997), (3, 1999), (4, 2003))
]


def test_wildcard_range_scans_only_tags_with_value_postings(tmp_path):
    # nine catalog tags (dblp, article, @key, title, author, year, venue,
    # sec, par); only year holds integer content, so "*" scans one tag
    stores = [Store(config(backend, tmp_path, granularity=("article",)))
              for backend in ("centralized", "p2p")]
    for store in stores:
        for text in _ARTICLES:
            store.store_resource(text)
    p2p = stores[1]
    scans = []
    get_range = p2p.dht.get_range
    p2p.dht.get_range = lambda *args: scans.append(args[1]) or get_range(*args)
    for pattern, want in (
        ("//* in 1995..1999!", ["2#10", "3#10"]),
        ("//article[/* in 1990..1998]/title!", ["1#4", "2#4"]),
        ("//* in 2010..2020!", []),
    ):
        scans.clear()
        answers = [[(r.resource_id, r.payload) for r in store.query(pattern).resources]
                   for store in stores]
        assert answers[0] == answers[1], pattern
        assert [rid for rid, _ in answers[1]] == want, pattern
        assert len(scans) == 1 and scans[0].startswith("v:year="), (pattern, scans)


@pytest.mark.parametrize("remote_homes", [0, 1, 2, 3])
def test_recomposition_fetches_once_per_remote_home(tmp_path, remote_homes):
    # homes go round robin from peer 1, the query peer: document i lives on
    # peer i; the hits sit in document 1 and in ``remote_homes`` others,
    # three per document
    texts = [
        "<d><hit>a</hit><hit>b<hit>c</hit></hit></d>"
        if i <= 1 + remote_homes else "<d><miss/></d>"
        for i in range(1, 5)
    ]
    stores = [Store(config(backend, tmp_path, granularity=(), peers=4))
              for backend in ("centralized", "p2p")]
    for store in stores:
        for text in texts:
            store.store_resource(text)
    p2p = stores[1]
    assert p2p.query_peer == 1
    sent = []
    send = p2p.net.send
    p2p.net.send = lambda a, b, payload: sent.append((b, payload)) or send(a, b, payload)
    answers = [[(r.resource_id, r.payload) for r in store.query("//hit!").resources]
               for store in stores]
    assert answers[0] == answers[1]
    assert len(answers[1]) == 3 * (1 + remote_homes)
    # one fetch request per remote home, each answered by one values
    # envelope (0x03) carrying its request id back to the query peer
    fetch_ids = [payload[1:5] for _, payload in sent if payload[0] == planner.TAG_FETCH]
    answers_back = [
        payload for to, payload in sent
        if to == p2p.query_peer and payload[0] == 0x03 and payload[1:5] in fetch_ids
    ]
    assert len(fetch_ids) == len(answers_back) == remote_homes


RESOURCE_DOCS = [
    '<lib><paper id="p1"><year>2003</year><title>dht xml</title></paper></lib>',
    "<lib><paper><title>twig</title></paper><paper><year>1999</year><par>x</par></paper></lib>",
    "<paper><sec><par>x</par><par>y <b>z</b></par></sec></paper>",
]
# no resource: malformed ids, a zero-padded doc id or start, the @id
# attribute and the year element (outside the granularity) of document
# 1, and a doc id past the last
NO_RESOURCE = ["", "abc", "1#", "#1", "01#1", "1#01", "1#3", "1#4", "4#1"]
# each get's (messages, bytes) on p2p, the store's ids then NO_RESOURCE: a
# fetch from a remote home is a 29-byte request and an answer of 9 bytes
# and the payload; document 1 lives on the query peer, and an id that is
# not stored sends nothing
REMOTE_GETS = [(2, 127), (2, 72), (2, 82), (2, 50), (2, 97), (2, 50), (2, 59)]
GET_DELTAS = {
    1: [(0, 0)] * 18,
    4: [(0, 0)] * 2 + REMOTE_GETS + [(0, 0)] * 9,
    8: [(0, 0)] * 2 + REMOTE_GETS + [(0, 0)] * 9,
}


@pytest.mark.parametrize("peers", [1, 4, 8])
def test_one_resource_map_serves_both_backends(tmp_path, peers):
    stores = [Store(config(backend, tmp_path, granularity=("paper", "par"), peers=peers))
              for backend in ("centralized", "p2p")]
    ids = [[rid for text in RESOURCE_DOCS for rid in store.store_resource(text)]
           for store in stores]
    assert ids[0] == ids[1]
    ids = ids[0]
    assert len(ids) == 9

    def gets(store):
        """Each id's resource fields, or NotFound, and the get's stats delta."""
        out = []
        for rid in ids + NO_RESOURCE:
            before = store.stats.copy()
            try:
                res = store.get_resource(rid)
                got = (res.resource_id, res.doc_id, res.root_label, res.payload)
            except NotFound:
                got = None
            delta = store.stats.delta_since(before)
            out.append((got, (delta.messages_sent, delta.bytes_sent)))
        return out

    central, p2p = gets(stores[0]), gets(stores[1])
    assert [got for got, _ in central] == [got for got, _ in p2p]
    for rid, (got, _) in zip(ids, central):
        doc_id, start = map(int, rid.split("#"))
        assert got[:2] == (rid, doc_id) and got[2][:2] == (doc_id, start)
        assert got[3] == serialize_node(stores[0].documents[doc_id], got[2])
    assert [got for got, _ in central[len(ids):]] == [None] * len(NO_RESOURCE)
    assert [delta for _, delta in central] == [(0, 0)] * len(central)
    assert [delta for _, delta in p2p] == GET_DELTAS[peers]
    for store, before in zip(stores, (central, p2p)):
        snapshot(store, str(tmp_path / "s.snap"))
        assert gets(restore(str(tmp_path / "s.snap"))) == before

    # every Recompose fetch asks the home of each document it names
    p2p_store = stores[1]
    fetched = []
    send = p2p_store.net.send

    def spy(frm, to, payload):
        if payload[0] == planner.TAG_FETCH:
            body = payload[REQUEST_BODY:]
            fetched.extend((to, doc_id) for doc_id, _ in struct.iter_unpack(">QQ", body))
        send(frm, to, payload)

    p2p_store.net.send = spy
    for query in ("//par!", "//paper!"):
        want = [(r.resource_id, r.payload) for r in stores[0].query(query).resources]
        assert [(r.resource_id, r.payload) for r in p2p_store.query(query).resources] == want
    assert all(to == p2p_store.home_of(doc_id) for to, doc_id in fetched)
    assert {doc_id for _, doc_id in fetched} == (set() if peers == 1 else {2, 3})


@pytest.mark.parametrize("peers", [4, 8])
def test_a_get_is_charged_its_payload(tmp_path, peers):
    # a get fetches its payload from its document's home, as Recompose
    # does: a request and its answer, which carries at least the payload,
    # from a remote home; nothing from the query peer's own, and nothing
    # for an id that is not stored.  Homes go round robin from peer 1, the
    # query peer, so document 1's two resources are local and the seven of
    # documents 2 and 3 are not
    store = Store(config("p2p", tmp_path, granularity=("paper", "par"), peers=peers))
    ids = [rid for text in RESOURCE_DOCS for rid in store.store_resource(text)]
    local = 0
    for rid in ids + NO_RESOURCE:
        before = store.stats.copy()
        try:
            res = store.get_resource(rid)
        except NotFound:
            res = None
        delta = store.stats.delta_since(before)
        cost = (delta.messages_sent, delta.bytes_sent)
        if res is None or store.home_of(res.doc_id) == store.query_peer:
            local += res is not None
            assert cost == (0, 0), rid
        else:
            assert cost[0] == 2 and cost[1] >= len(res.payload.encode("utf-8")), rid
    assert local == 2


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the range overlay's boundaries are set by joins "
    "alone, and every 'v:' key sorts between b'`' and b'\\x80', so on 8 peers "
    "all value postings land on peer 6",
)
def test_value_postings_spread_over_range_peers(tmp_path):
    store = Store(config("p2p", tmp_path, granularity=(), peers=8))
    for year in range(1900, 2030, 3):
        store.store_resource(f"<paper><year>{year}</year></paper>")
    holders = [
        pid for pid, peer_store in store.dht.range.members.items()
        if any(key.startswith("v:") for key in peer_store)
    ]
    assert len(holders) >= 2, holders


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: both backends join every binding of sibling "
    "predicates before projecting onto the return nodes, so k predicates "
    "'[/b]' over three b children make 3 + 9 + ... + 3**k rows for one answer",
)
def test_sibling_predicates_do_not_multiply_join_rows(tmp_path, monkeypatch):
    rows = {}
    real_join = twigjoin.stack_join

    def counting_join(*args):
        pairs = real_join(*args)
        rows[backend] += len(pairs)
        return pairs

    monkeypatch.setattr(twigjoin, "stack_join", counting_join)
    monkeypatch.setattr(planner, "stack_join", counting_join)
    for backend in ("centralized", "p2p"):
        store = Store(config(backend, tmp_path, granularity=()))
        store.store_resource("<a><b>x</b><b>x</b><b>x</b></a>")
        rows[backend] = 0
        assert len(store.query("//a" + "[/b]" * 8 + "!").resources) == 1
    assert max(rows.values()) <= 100, rows


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: both backends join every binding of a descendant "
    "chain before projecting onto the return node, so '//a//a//a//a' over 40 "
    "nested a elements makes 102,050 rows for 37 answers",
)
def test_descendant_chains_do_not_multiply_join_rows(tmp_path, monkeypatch):
    rows = {}
    real_join = twigjoin.stack_join

    def counting_join(*args):
        pairs = real_join(*args)
        rows[backend] += len(pairs)
        return pairs

    monkeypatch.setattr(twigjoin, "stack_join", counting_join)
    monkeypatch.setattr(planner, "stack_join", counting_join)
    for backend in ("centralized", "p2p"):
        store = Store(config(backend, tmp_path, granularity=()))
        store.store_resource("<a>" * 40 + "</a>" * 40)
        rows[backend] = 0
        assert len(store.query("//a//a//a//a!").resources) == 37
    # three descendant joins of at most 40 * 39 / 2 = 780 pairs each
    assert max(rows.values()) <= 3 * 780, rows


def test_documents_nested_thousands_deep(tmp_path):
    # expat parses any depth, and labels and text come from its events
    depth = 5000
    text = "<a>" * depth + "x" + "</a>" * depth

    def answers(store):
        return [[(r.resource_id, r.payload) for r in store.query(q).resources]
                for q in ('/a!', '//a[/a="x"]!')]

    for backend in ("centralized", "p2p"):
        store = Store(config(backend, tmp_path, granularity=()))
        assert store.store_resource(text) == ["1#1"]
        got = answers(store)
        assert got == [[("1#1", text)], [(f"1#{depth - 1}", "<a><a>x</a></a>")]]
        assert store.get_resource("1#1").payload == text
        path = str(tmp_path / f"{backend}.snap")
        snapshot(store, path)
        again = restore(path)
        assert answers(again) == got
        assert again.get_resource("1#1").payload == text


# a nested predicate, a child step and a sibling predicate each add one
# node to a pattern
_OVERSIZED_PATTERNS = [
    "//a" + "[/a" * 600 + "]" * 600 + "!",
    "//a" + "/a" * 600 + "!",
    "//a" + "[/a]" * 600 + "!",
]


@pytest.mark.parametrize("text", _OVERSIZED_PATTERNS, ids=["nested", "chain", "siblings"])
def test_patterns_of_too_many_nodes_are_refused_alike(tmp_path, text):
    for backend in ("centralized", "p2p"):
        store = Store(config(backend, tmp_path, granularity=()))
        store.store_resource("<a>" * 5 + "x" + "</a>" * 5)
        with pytest.raises(PatternSyntaxError, match="at most 200 nodes"):
            store.query(text)


def test_patterns_of_the_most_nodes_answer_alike(tmp_path):
    depth = 250
    text = "<a>" * depth + "x" + "</a>" * depth
    patterns = ["//a" + "[/a" * 199 + "]" * 199 + "!", "//a" + "/a" * 199 + "!",
                "//a" + "[/a]" * 199 + "!"]
    got = {}
    for backend in ("centralized", "p2p"):
        store = Store(config(backend, tmp_path, granularity=()))
        store.store_resource(text)
        got[backend] = [[r.resource_id for r in store.query(q).resources]
                        for q in patterns]
    assert got["p2p"] == got["centralized"]
    assert [len(ids) for ids in got["p2p"]] == [depth - 199, depth - 199, depth - 1]


def test_index_keys_longer_than_64_kib(tmp_path):
    # the word posting key "w:" + 70,000 letters exceeds a 16-bit length
    word = "a" * 70_000
    text = f"<r><t>{word}</t></r>"
    for backend in ("centralized", "p2p"):
        store = Store(config(backend, tmp_path, granularity=()))
        assert store.store_resource(text) == ["1#1"]
        result = store.query(f'//t="{word}"!')
        assert [(r.resource_id, r.payload) for r in result.resources] == [
            ("1#2", f"<t>{word}</t>")
        ], backend


def test_snapshot_round_trip(tmp_path, any_store):
    ids = any_store.store_resource(D1)
    ids += any_store.store_resource("<lib><par>two</par><par>3</par></lib>")
    any_store.rdf_load([Triple("a", "type", "Doc")])
    path = str(tmp_path / "x.snap")
    snapshot(any_store, path)
    again = restore(path)
    assert again.config.backend == any_store.config.backend
    q = '//sec!'
    assert [(r.resource_id, r.payload) for r in again.query(q).resources] == [
        (r.resource_id, r.payload) for r in any_store.query(q).resources
    ]
    assert again.get_resource("1#6").payload == "<par>xml</par>"
    assert len(ids) == 5
    for rid in ids:
        original, restored = any_store.get_resource(rid), again.get_resource(rid)
        assert restored.payload == original.payload
        assert restored.root_label == original.root_label
    assert again.rdf_query(parse_query_text("SELECT ?x\n?x type Doc\n")) == [("a",)]


def test_word_and_value_postings_are_built_on_first_use(tmp_path, monkeypatch):
    builds = []

    def counted(doc, real=Document.postings):
        builds.append(doc.doc_id)
        return real(doc)

    monkeypatch.setattr(Document, "postings", counted)
    p2p = Store(config("p2p", tmp_path))
    central = Store(config("centralized", tmp_path))
    for store in (p2p, central):
        store.store_resource(D1)
        store.store_resource("<lib><par>two xml</par><par>3</par></lib>")
    # a p2p ingest publishes each document's postings once; a
    # centralized ingest builds none
    assert builds == [1, 2]
    p2p.query('//par="xml"!')
    p2p.query("//par in 1..5!")
    p2p_path, path = str(tmp_path / "p.snap"), str(tmp_path / "x.snap")
    snapshot(p2p, p2p_path)
    p2p_again = restore(p2p_path)
    assert builds == [1, 2, 1, 2]  # a p2p restore publishes them again
    # and no p2p document keeps an index or rows, queried or not
    assert all(d._index is None and d._rows == {}
               for store in (p2p, p2p_again) for d in store.documents.values())
    snapshot(central, path)
    again = restore(path)
    docs = list(again.documents.values())
    # a centralized restore builds none either
    assert builds == [1, 2, 1, 2]
    assert all(d._index is None for d in [*central.documents.values(), *docs])
    # the first query builds each document's index, once
    builds.clear()
    again.query('//sec[/title="dht"]/par!')
    assert sorted(builds) == [1, 2]
    kept = [d._index for d in docs]
    assert None not in kept
    assert len(again.query('//par="two"!').resources) == 1
    assert len(again.query("//par in 1..5!").resources) == 1
    # another word and a range lookup reuse it
    assert sorted(builds) == [1, 2]
    assert all(d._index is index for d, index in zip(docs, kept))
    # and a range lookup first builds it as well
    fresh = restore(path)
    assert len(fresh.query("//par in 1..5!").resources) == 1
    assert sorted(builds) == [1, 1, 2, 2]
    assert all(d._index is not None for d in fresh.documents.values())


def _records(blob: bytes) -> list[tuple[bytes, bytes]]:
    """The tag and payload of each record of the snapshot file ``blob``."""
    off, end, records = blob.index(b"\n") + 1, len(blob) - 8, []
    while off < end:
        (length,) = struct.unpack_from(">Q", blob, off + 4)
        records.append((blob[off : off + 4], blob[off + 12 : off + 12 + length]))
        off += 12 + length
    assert off == end
    return records


def test_snapshot_records_in_order(tmp_path, any_store):
    any_store.store_resource(D1)
    any_store.store_resource(D1)
    any_store.rdf_load([Triple("a", "type", "Doc"), Triple("a", "author", "b")])
    path = tmp_path / "x.snap"
    snapshot(any_store, str(path))
    blob = path.read_bytes()
    assert blob.startswith(b"TWIGSNAP5\n")
    # all documents share one DOC record, and all triples one TRPL record,
    # one per line; the plain rendering holds one DOC record per document
    records = _records(blob)
    assert [tag for tag, _ in records] == [b"CONF", b"DOC\x00", b"TRPL", b"NSTA"]
    plain = plain_snapshot(blob)
    assert [tag for tag, _ in _records(plain)] == [
        b"CONF", b"DOC\x00", b"DOC\x00", b"TRPL", b"NSTA"]
    assert b"a\ttype\tDoc\na\tauthor\tb" in plain
    # each entry of the DOC record is its doc id, its text's byte length
    # and the text
    docs = zlib.decompress(records[1][1][8:])
    assert docs == b"".join(struct.pack(">QQ", i, len(D1)) + D1.encode() for i in (1, 2))


def _write_snapshot(path, records) -> None:
    """A ``TWIGSNAP5`` file of ``records``, each a tag and its content,
    deflated as ``snapshot`` deflates it, under its valid crc32."""
    write_snapshot(path, [(tag, deflated(content)) for tag, content in records])


def _entry(doc_id: int, text: bytes, size: int | None = None) -> bytes:
    """One entry of a DOC record; ``size`` overrides the length."""
    return struct.pack(">QQ", doc_id, len(text) if size is None else size) + text


def test_snapshot_bytes_do_not_depend_on_the_snapshot_path(tmp_path, any_store):
    blobs = []
    for name in ("a.snap", "a/much/longer/path/b.snap"):
        cfg = config(any_store.config.backend, tmp_path)
        cfg.snapshot_path = str(tmp_path / name)
        store = Store(cfg)
        store.store_resource(D1)
        store.query("//par!")
        path = tmp_path / f"{len(blobs)}.snap"
        snapshot(store, str(path))
        blobs.append(path.read_bytes())
        assert restore(str(path)).config.snapshot_path == str(path)
    assert blobs[0] == blobs[1]


def test_restore_renders_a_stored_text_as_ingest_does(tmp_path, any_store):
    # snapshot stores each document's canonical text, but a DOC record of
    # well-formed, non-canonical XML must restore to the payloads that
    # ingesting the same text gives, never to the stored text as it is
    text = ("<doc>\n  <sec id='s1'>\n    <title>dht</title>\n    <!-- note -->\n"
            "    <par>xml</par>\n    <b></b>\n  </sec>\n</doc>\n")
    ids = any_store.store_resource(text)
    conf = any_store.config.to_text().encode()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"DOC\x00", _entry(1, text.encode()))])
    again = restore(str(path))
    payloads = [any_store.get_resource(rid).payload for rid in ids]
    assert [again.get_resource(rid).payload for rid in ids] == payloads
    assert payloads[0] == ('<doc><sec id="s1"><title>dht</title><par>xml</par><b/></sec>'
                           "</doc>")
    assert again.query("//par!").resources[0].payload == "<par>xml</par>"


def test_restore_adopts_its_file_over_a_recorded_path(tmp_path, any_store):
    # a CONF record may name a path, as files written before the path was
    # left out did; the store lives in the file it was read from
    any_store.store_resource(D1)
    config = any_store.config
    conf = StoreConfig(config.backend, config.peer_count,
                       config.resource_granularity, "elsewhere.snap").to_text()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf.encode()), (b"DOC\x00", _entry(1, D1.encode()))])
    again = restore(str(path))
    assert again.config.snapshot_path == str(path)
    assert again.get_resource("1#6").payload == "<par>xml</par>"


def test_restore_ignores_a_recorded_seed(tmp_path, any_store):
    # a CONF record may hold a seed= line, as files written while the
    # config had a seed field did
    any_store.store_resource(D1)
    conf = any_store.config.to_text() + "seed=7\n"
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf.encode()), (b"DOC\x00", _entry(1, D1.encode()))])
    again = restore(str(path))
    assert again.get_resource("1#6").payload == "<par>xml</par>"
    fresh = tmp_path / "y.snap"
    snapshot(again, str(fresh))
    blob = plain_snapshot(fresh.read_bytes())
    (length,) = struct.unpack_from(">Q", blob, 14)
    assert blob[10:14] == b"CONF"
    assert "seed=" not in blob[22 : 22 + length].decode()


@pytest.mark.parametrize("doc_ids", [(1, 1), (2, 1), (0,), (1, 3, 3)])
def test_restore_refuses_doc_ids_that_do_not_rise(tmp_path, any_store, doc_ids):
    # snapshot writes doc ids from 1 up in rising order; a repeated id would
    # replace a document whose postings stay published
    conf = any_store.config.to_text().encode()
    texts = ["<a><b>x</b><b>y</b></a>", "<z><q>w</q></z>", D1]
    docs = b"".join(_entry(i, t.encode()) for i, t in zip(doc_ids, texts))
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"DOC\x00", docs)])
    with pytest.raises(CorruptSnapshot,
                       match=f"DOC record of doc id {doc_ids[-1]}: doc id does not rise"):
        restore(str(path))


@pytest.mark.parametrize("report", [b"1 x 3 4\ntotal 3 4\n", b"1 2 3\ntotal 3 4\n"])
def test_restore_refuses_stats_lines_that_are_not_edges(tmp_path, any_store, report):
    # an edge line of the NSTA record is four integers: from, to, messages, bytes
    conf = any_store.config.to_text().encode()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"NSTA", report)])
    with pytest.raises(CorruptSnapshot, match="NSTA"):
        restore(str(path))


@pytest.mark.parametrize("report", [
    b"1 2 3 4\n",  # no total line
    b"",
    b"1 2 3 4\ntotal 3 5\n",  # a total the edges do not sum to
    b"1 2 3 4\n2 1 1 1\ntotal 3 4\n",
    b"total 0 0\n1 2 3 4\n",  # the total is not the last line
])
def test_restore_refuses_a_stats_total_that_is_missing_or_wrong(tmp_path, any_store, report):
    # a restored store's report must be the one saved, total line included
    conf = any_store.config.to_text().encode()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"NSTA", report)])
    with pytest.raises(CorruptSnapshot, match="NSTA"):
        restore(str(path))


@pytest.mark.parametrize("report, line", [
    (b"1 2 3 4\n1 2 3 4\ntotal 6 8\n", "1 2 3 4"),  # an edge written twice
    (b"1 2 -3 4\n2 1 4 4\ntotal 1 8\n", "1 2 -3 4"),  # a negative count
    (b"1 2 3 -4\n2 1 4 8\ntotal 7 4\n", "1 2 3 -4"),
    (b"1 2 0 0\n2 1 4 8\ntotal 4 8\n", "1 2 0 0"),  # an edge no message used
    (b"2 2 3 4\ntotal 3 4\n", "2 2 3 4"),  # bytes on a self edge
    (b"1 5 3 4\ntotal 3 4\n", "1 5 3 4"),  # peers outside 1..peer_count
    (b"0 1 3 4\ntotal 3 4\n", "0 1 3 4"),
], ids=["repeated", "negative-messages", "negative-bytes", "no-messages",
        "self-edge-bytes", "peer-above", "peer-zero"])
def test_restore_refuses_stats_edges_no_run_could_record(tmp_path, any_store, report, line):
    # each total adds up, so only the edge line itself gives the fault away;
    # the simulator records an edge once, on its first delivery, and charges
    # a self edge 0 bytes
    conf = any_store.config.to_text().encode()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"NSTA", report)])
    with pytest.raises(CorruptSnapshot, match=f"NSTA line '{line}'"):
        restore(str(path))


def test_restore_refuses_stats_edges_for_a_centralized_store(tmp_path):
    # a centralized store has no peers, so no edge line can be its own
    conf = config("centralized", tmp_path).to_text().encode()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"NSTA", b"1 2 3 4\ntotal 3 4\n")])
    with pytest.raises(CorruptSnapshot, match="NSTA line '1 2 3 4'"):
        restore(str(path))


def test_restore_keeps_a_self_edge_that_cost_no_bytes(tmp_path):
    # a peer's sends to itself are counted as messages of 0 bytes
    conf = config("p2p", tmp_path).to_text().encode()
    report = "1 1 2 0\n1 4 3 4\ntotal 5 4\n"
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"NSTA", report.encode())])
    assert restore(str(path)).stats_report() == report


def test_restore_refuses_a_second_stats_record(tmp_path, any_store):
    # snapshot writes one NSTA record; a second would silently replace it
    conf = any_store.config.to_text().encode()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"NSTA", b"total 0 0\n"),
                           (b"NSTA", b"total 0 0\n")])
    with pytest.raises(CorruptSnapshot, match="second NSTA record"):
        restore(str(path))


@pytest.mark.parametrize("tag", [b"TRPL", b"CONF"])
def test_restore_refuses_a_second_triples_or_config_record(tmp_path, any_store, tag):
    # snapshot writes each record once: a second TRPL record would restore
    # its triples twice, and a second CONF record, even a copy of the
    # first, is no config the store was saved with
    content = {b"CONF": any_store.config.to_text().encode(), b"TRPL": b"a\ttype\tDoc"}
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", content[b"CONF"]), (b"TRPL", content[b"TRPL"]),
                           (tag, content[tag])])
    with pytest.raises(CorruptSnapshot, match=f"^second {tag.decode()} record$"):
        restore(str(path))


@pytest.mark.parametrize("tag, payload", [
    (b"CONF", b"backend=ring\n"),
    (b"CONF", b"peer_count\n"),
    (b"DOC\x00", _entry(1, b"<a><b></a>")),
    (b"DOC\x00", _entry(1, b" \n")),
    (b"DOC\x00", _entry(1, b'<x:a xmlns:x="urn:u"/>')),
    (b"TRPL", b"a\tb\tc\na\tb\n"),
], ids=["conf-backend", "conf-line", "doc-malformed", "doc-blank", "doc-namespaced",
        "trpl-line"])
def test_restore_refuses_bad_record_content_as_corrupt(tmp_path, any_store, tag, payload):
    # the checksum holds, so the file is as it was written: an error must
    # say that the snapshot is at fault, and name the record
    conf = [] if tag == b"CONF" else [(b"CONF", any_store.config.to_text().encode())]
    path = tmp_path / "x.snap"
    _write_snapshot(path, [*conf, (tag, payload)])
    name = "DOC record of doc id 1: " if tag == b"DOC\x00" else tag.decode() + " record"
    with pytest.raises(CorruptSnapshot, match=name):
        restore(str(path))


def test_restore_refuses_version_1(tmp_path, any_store):
    any_store.store_resource(D1)
    path = tmp_path / "x.snap"
    snapshot(any_store, str(path))
    path.write_bytes(b"TWIGSNAP1\n" + path.read_bytes()[len(b"TWIGSNAP5\n") :])
    with pytest.raises(CorruptSnapshot, match="TWIGSNAP1"):
        restore(str(path))


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_restore_refuses_a_retired_layout_by_its_magic(tmp_path, version):
    # only TWIGSNAP5 is read; a retired magic is refused before any
    # checksum is read, so a crc32 that holds, a wrong trailer and none at
    # all are refused alike, while any other magic is no snapshot at all
    store = Store(config("p2p", tmp_path))
    store.store_resource(D1)
    path = tmp_path / "x.snap"
    snapshot(store, str(path))
    blob = path.read_bytes()
    magic = b"TWIGSNAP%d\n" % version
    body = magic + blob[len(magic) : -8]
    refusal = f"^TWIGSNAP{version} snapshots are no longer read; re-ingest the documents$"
    for trailer in (struct.pack(">Q", zlib.crc32(body)), bytes(8), b""):
        path.write_bytes(body + trailer)
        with pytest.raises(CorruptSnapshot, match=refusal):
            restore(str(path))
    other = b"TWIGSNAP%d\n" % (version + 5)
    path.write_bytes(other + blob[len(other) :])
    with pytest.raises(CorruptSnapshot, match="^bad magic or truncated file$"):
        restore(str(path))


@pytest.mark.parametrize("backend", ["centralized", "p2p"])
def test_every_layout_restores_the_same_store(tmp_path, backend):
    # TWIGSNAP5 is the one layout restore reads: the exact-costs corpus,
    # triples and queries, saved and restored, give the same stats,
    # per-peer stores, answers and RDF rows as the store that was saved
    from test_exact_costs import DOCS, PEERS, QUERIES, RDF_QUERY, TRIPLES

    store = Store(StoreConfig(backend=backend, peer_count=PEERS,
                              resource_granularity={"article"}))
    for text in DOCS:
        store.store_resource(text)
    store.rdf_load(TRIPLES)
    for text in QUERIES.values():
        store.query(text)
    path = tmp_path / "v5.snap"
    snapshot(store, str(path))
    rdf = parse_query_text(RDF_QUERY)
    assert path.read_bytes().startswith(b"TWIGSNAP5\n")
    again = restore(str(path))
    assert {i: d.nodes for i, d in again.documents.items()} == {
        i: d.nodes for i, d in store.documents.items()
    }
    assert again.triples == store.triples
    assert again.stats_report() == store.stats_report()
    if backend == P2P:
        assert _overlay_stores(again) == _overlay_stores(store)
    for text in QUERIES.values():
        assert [(r.resource_id, r.payload) for r in again.query(text).resources] == [
            (r.resource_id, r.payload) for r in store.query(text).resources
        ], text
    assert again.rdf_query(rdf) == store.rdf_query(rdf)
    # the same queries leave the same traffic, and the next save of either
    # store is the same file
    assert again.stats_report() == store.stats_report()
    snapshot(again, str(path))
    snapshot(store, str(tmp_path / "reference.snap"))
    assert path.read_bytes() == (tmp_path / "reference.snap").read_bytes()


_DOC_CONTENT = _entry(1, D1.encode())
_DOC_STREAM = zlib.compress(_DOC_CONTENT, 1)


@pytest.mark.parametrize("packed, fault", [
    (b"\x00\x01", "payload too short for its length"),
    (struct.pack(">Q", len(_DOC_CONTENT)) + _DOC_CONTENT, "bad deflate stream"),
    (struct.pack(">Q", len(_DOC_CONTENT)) + _DOC_STREAM[:-6], "deflate stream ends early"),
    (struct.pack(">Q", len(_DOC_CONTENT)) + _DOC_STREAM + b"\x00",
     "bytes after the end of its deflate stream"),
    (struct.pack(">Q", len(_DOC_CONTENT) - 1) + _DOC_STREAM,
     f"inflates to more than its recorded {len(_DOC_CONTENT) - 1} bytes"),
    (struct.pack(">Q", len(_DOC_CONTENT) + 1) + _DOC_STREAM,
     f"inflates to {len(_DOC_CONTENT)} bytes, not its recorded {len(_DOC_CONTENT) + 1}"),
    (struct.pack(">Q", sys.maxsize + 1) + _DOC_STREAM,
     f"recorded length {sys.maxsize + 1} is more than"),
], ids=["short", "not-deflate", "truncated", "trailing-bytes", "length-below",
        "length-above", "length-beyond-maxsize"])
def test_restore_and_stats_refuse_a_bad_deflated_record(tmp_path, capsys, packed, fault):
    # the crc32 holds, so each file reaches the record loop; neither a
    # zlib.error nor an OverflowError may get out, and the CLI's error
    # names the record
    cfg = config("p2p", tmp_path)
    cfg.snapshot_path = str(tmp_path / "x.snap")
    (tmp_path / "store.cfg").write_text(cfg.to_text(), encoding="utf-8")
    write_snapshot(tmp_path / "x.snap", [(b"CONF", deflated(cfg.to_text().encode())),
                                         (b"DOC\x00", packed)])
    with pytest.raises(CorruptSnapshot) as exc:
        restore(cfg.snapshot_path)
    assert str(exc.value).startswith(f"DOC record 2: {fault}")
    assert cli_main(["stats", "--config", str(tmp_path / "store.cfg")]) == 1
    assert capsys.readouterr().err.startswith(f"error: DOC record 2: {fault}")


def test_restore_inflates_no_further_than_one_byte_past_the_recorded_length(
        tmp_path, monkeypatch):
    # 1 MiB of zeros deflates to about 1 KiB; a record that says 10 bytes
    # is refused once an 11th byte comes out
    inflated = []
    real = zlib.decompressobj

    class Counting:
        def __init__(self):
            self.inner = real()

        def decompress(self, data, max_length=0):
            out = self.inner.decompress(data, max_length)
            inflated.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self.inner, name)

    monkeypatch.setattr(zlib, "decompressobj", Counting)
    conf = config("p2p", tmp_path).to_text().encode()
    path = tmp_path / "x.snap"
    stream = zlib.compress(_entry(1, bytes(1 << 20)), 1)
    write_snapshot(path, [(b"CONF", deflated(conf)),
                          (b"DOC\x00", struct.pack(">Q", 10) + stream)])
    with pytest.raises(CorruptSnapshot, match="DOC record 2: inflates to more than"):
        restore(str(path))
    assert inflated == [len(conf), 11]


@pytest.mark.parametrize("docs, fault", [
    ([_entry(1, b"<a/>") + _entry(2, b"")[:5]],
     "DOC record of doc id after 1: entry header of 5 bytes, not 16"),
    ([_entry(1, b"<a/>")[:12]], "DOC record of doc id after 0: entry header of 12 bytes"),
    ([_entry(1, b"<a/>") + _entry(2, b"<b/>", 9)],
     "DOC record of doc id 2: text of 9 bytes runs past the record's end, 4 bytes on"),
    ([_entry(1, b"<a/>") + _entry(1, b"<b/>")],
     "DOC record of doc id 1: doc id does not rise above 1"),
    ([_entry(3, b"<a/>") + _entry(2, b"<b/>")],
     "DOC record of doc id 2: doc id does not rise above 3"),
    ([_entry(1, b"<a/>") + _entry(2, b"<a>caf\xe9</a>")],
     "DOC record of doc id 2: text is not UTF-8"),
    ([_entry(1, b"<a/>") + _entry(2, b"<lib><paper></lib>")],
     "DOC record of doc id 2: mismatched tag"),
    ([_entry(1, b"<a/>"), _entry(2, b"<b/>")],
     "DOC record of doc id after 1: a second DOC record"),
    ([_entry(1, b"<a/>"), b""], "DOC record of doc id after 1: a second DOC record"),
], ids=["header-cut", "first-header-cut", "text-past-end", "id-repeated", "id-falls",
        "not-utf8", "malformed", "second-record", "second-record-empty"])
def test_restore_and_stats_refuse_a_bad_doc_entry(tmp_path, capsys, docs, fault):
    # each entry of the DOC record is checked on its own, and a fault
    # names the doc id it was found at
    cfg = config("p2p", tmp_path)
    cfg.snapshot_path = str(tmp_path / "x.snap")
    (tmp_path / "store.cfg").write_text(cfg.to_text(), encoding="utf-8")
    _write_snapshot(tmp_path / "x.snap",
                    [(b"CONF", cfg.to_text().encode())] + [(b"DOC\x00", doc) for doc in docs])
    with pytest.raises(CorruptSnapshot) as exc:
        restore(cfg.snapshot_path)
    assert str(exc.value).startswith(fault)
    assert cli_main(["stats", "--config", str(tmp_path / "store.cfg")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {fault}")


def test_many_small_documents_share_one_deflate_stream(tmp_path):
    # a fresh stream per small document never sees the tags and words of
    # the ones before it; as one stream, 40 one-element documents take at
    # most three quarters of the bytes that a stream per entry does
    store = Store(config("p2p", tmp_path))
    for i in range(40):
        store.store_resource(f"<message kind='notice'>peer {i} joined the overlay</message>")
    path = tmp_path / "x.snap"
    snapshot(store, str(path))
    blob = path.read_bytes()
    assert blob.startswith(b"TWIGSNAP5\n")
    stream = dict(_records(blob))[b"DOC\x00"][8:]
    entries = list(store_module._doc_entries(zlib.decompress(stream)))
    assert len(entries) == 40
    one_each = sum(len(zlib.compress(_entry(i, bytes(text)), 1)) for i, text in entries)
    assert 4 * len(stream) <= 3 * one_each


def test_restore_truncated_file(tmp_path, any_store):
    any_store.store_resource(D1)
    path = str(tmp_path / "x.snap")
    snapshot(any_store, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptSnapshot):
        restore(path)


def test_restore_bitflip(tmp_path, any_store):
    any_store.store_resource(D1)
    path = str(tmp_path / "x.snap")
    snapshot(any_store, path)
    good = Path(path).read_bytes()
    blob = bytearray(good)
    blob[len(blob) // 2] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CorruptSnapshot):
        restore(path)
    # CRC-32 catches every single-bit error: flip bit i % 8 of byte i, for
    # every byte of the file, trailer and magic included
    for i in range(len(good)):
        blob = bytearray(good)
        blob[i] ^= 1 << (i % 8)
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshot):
            restore(path)


def test_failed_snapshot_write_keeps_the_last_good_file(tmp_path, any_store, monkeypatch):
    # a write that fails part way, as on a full disk, must leave the last
    # snapshot whole: the CLI keeps all of its state there
    any_store.store_resource(D1)
    path = tmp_path / "snaps" / "x.snap"
    path.parent.mkdir()
    snapshot(any_store, str(path))
    good = path.read_bytes()
    any_store.store_resource("<doc><par>late</par></doc>")

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = open

    def open_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(store_module, "open", open_full_disk, raising=False)
    with pytest.raises(IoFailure, match="No space"):
        snapshot(any_store, str(path))
    monkeypatch.undo()
    assert [p.name for p in path.parent.iterdir()] == ["x.snap"]
    assert path.read_bytes() == good
    again = restore(str(path))
    assert sorted(again.documents) == [1]
    assert again.get_resource("1#6").payload == "<par>xml</par>"


def test_snapshot_fsyncs_the_file_before_the_rename_and_the_directory_after(
        tmp_path, any_store, monkeypatch):
    # the rename may reach the disk only after the bytes it publishes, and
    # is itself durable only once the directory holding it is synced
    any_store.store_resource(D1)
    path = tmp_path / "x.snap"
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    snapshot(any_store, str(path))
    assert calls == ["fsync file", "replace", "fsync dir"]
    monkeypatch.undo()
    assert sorted(restore(str(path)).documents) == [1]


def test_failed_snapshot_fsync_keeps_the_last_good_file(tmp_path, any_store, monkeypatch):
    any_store.store_resource(D1)
    path = tmp_path / "snaps" / "x.snap"
    path.parent.mkdir()
    snapshot(any_store, str(path))
    good = path.read_bytes()
    any_store.store_resource("<doc><par>late</par></doc>")

    def fsync(fd):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(IoFailure, match="Input/output"):
        snapshot(any_store, str(path))
    monkeypatch.undo()
    assert [p.name for p in path.parent.iterdir()] == ["x.snap"]
    assert path.read_bytes() == good


def test_restored_p2p_store_reproduces_stats(tmp_path):
    store = Store(config("p2p", tmp_path))
    store.store_resource(D1)
    store.store_resource("<lib><paper><year>2003</year></paper></lib>")
    path = str(tmp_path / "x.snap")
    snapshot(store, path)
    again = restore(path)
    assert again.stats.report() == store.stats.report()
    d_original = store.query("//paper[/year in 2000..2005]!").stats.report()
    d_restored = again.query("//paper[/year in 2000..2005]!").stats.report()
    assert d_original == d_restored


def _overlay_stores(store):
    """Every per-peer store, with key order and value order."""
    return {
        (overlay.kind, peer): [(key, list(values)) for key, values in peer_store.items()]
        for overlay in (store.dht.hash, store.dht.range)
        for peer, peer_store in overlay.members.items()
    }


@pytest.mark.parametrize("peers", [1, 8, 32])
def test_restore_places_postings_without_messages(tmp_path, monkeypatch, peers):
    store = Store(config("p2p", tmp_path, granularity=("paper",), peers=peers))
    for i in range(12):
        store.store_resource(
            f"<lib><paper id=\"p{i}\"><year>{1990 + i % 5}</year>"
            f"<title>dht xml t{i % 3}</title></paper><par>{i}</par></lib>"
        )
    store.rdf_load([Triple(f"p{i}", "cites", f"p{i // 2}") for i in range(10)])
    store.query("//paper[/year in 1991..1993]/title!")
    path = str(tmp_path / "x.snap")
    snapshot(store, path)

    sends = []
    real_send = Network.send
    monkeypatch.setattr(
        Network, "send", lambda net, *args: sends.append(args) or real_send(net, *args)
    )
    again = restore(path)
    assert sends == []
    monkeypatch.undo()

    assert _overlay_stores(again) == _overlay_stores(store)
    assert again.index.stats == store.index.stats
    assert again.stats_report() == store.stats_report()

    # both stores go on identically: same ids, answers and traffic
    new_doc = "<lib><paper><year>1992</year><title>late dht</title></paper></lib>"
    assert again.store_resource(new_doc) == store.store_resource(new_doc)
    for q in ("//paper[/year in 1991..1993]/title!", '//paper[/title="dht"]!'):
        a, b = store.query(q), again.query(q)
        assert [(r.resource_id, r.payload) for r in a.resources] == [
            (r.resource_id, r.payload) for r in b.resources
        ]
        assert a.stats.report() == b.stats.report()
    rdf = parse_query_text("SELECT ?x\n?x cites p2\n")
    assert store.rdf_query(rdf) == again.rdf_query(rdf) == [("p4",), ("p5",)]
    assert again.stats_report() == store.stats_report()
    assert _overlay_stores(again) == _overlay_stores(store)


def test_single_peer_p2p_store(tmp_path):
    store = Store(config("p2p", tmp_path, peers=1))
    store.store_resource(D1)
    assert store.get_resource("1#6").payload == "<par>xml</par>"
    result = store.query('//sec[/title="dht"]!')
    assert [r.resource_id for r in result.resources] == ["1#2"]
    assert result.stats.bytes_sent == 0  # one peer: everything is local


@pytest.mark.parametrize("overlays", ["0:hash", "300:hash", "-1:hash,1:range"])
def test_legacy_overlays_line_is_ignored(tmp_path, overlays):
    # configs and snapshots written while the overlay layout was a config
    # field hold an overlays= line; every p2p store runs both overlays now
    doc = "<lib><paper><year>2003</year></paper><paper><year>1999</year></paper></lib>"
    query = "//paper[/year in 2000..2005]!"
    central = Store(config("centralized", tmp_path))
    central.store_resource(doc)
    expected = [(r.resource_id, r.payload) for r in central.query(query).resources]
    assert expected == [("1#2", "<paper><year>2003</year></paper>")]

    text = f"backend=p2p\npeer_count=3\noverlays={overlays}\n"
    store = Store(StoreConfig.from_text(text))
    store.store_resource(doc)
    assert [(r.resource_id, r.payload) for r in store.query(query).resources] == expected
    assert "overlays" not in store.config.to_text()

    path = tmp_path / "legacy.snap"
    _write_snapshot(path, [(b"CONF", text.encode()), (b"DOC\x00", _entry(1, doc.encode()))])
    again = restore(str(path))
    assert [(r.resource_id, r.payload) for r in again.query(query).resources] == expected


# values that escaping has to carry through snapshot -> restore unchanged
_ROUND_TRIP_WORDS = WORDS + [
    "a & b", "x < y", "p > q", 'say "hi"', "it's", "tab\there", "two\nlines",
    "cr\rhere", "\r", "café", "naïve Ωmega", "日本語", "1995",
]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    layout=st.sampled_from([("centralized", 1), ("p2p", 1), ("p2p", 3), ("p2p", 8)]),
)
def test_snapshot_round_trip_property(tmp_path_factory, seed, layout):
    rng = random.Random(seed)
    backend, peers = layout
    granularity = rng.sample(TAGS, rng.randint(0, 2))
    tmp = tmp_path_factory.mktemp("roundtrip")
    store = Store(config(backend, tmp, granularity=granularity, peers=peers))
    ids = []
    for _ in range(rng.randint(1, 4)):
        ids += store.store_resource(random_document_text(rng, 20, _ROUND_TRIP_WORDS))
    path = str(tmp / "x.snap")
    snapshot(store, path)
    again = restore(path)
    assert again.stats_report() == store.stats_report()
    for rid in ids:
        assert again.get_resource(rid).payload == store.get_resource(rid).payload
    for _ in range(4):
        pattern = random_pattern_text(rng)
        assert [(r.resource_id, r.payload) for r in again.query(pattern).resources] == [
            (r.resource_id, r.payload) for r in store.query(pattern).resources
        ], pattern
    assert again.stats_report() == store.stats_report()


def test_config_round_trip_and_validation():
    cfg = StoreConfig.from_text(
        "backend=p2p\npeer_count=3\noverlays=0:hash,1:range\n"
        "resource_granularity=par,sec\nsnapshot_path=x.snap\nseed=5\n"
    )
    assert cfg.peer_count == 3
    assert StoreConfig.from_text(cfg.to_text()).to_text() == cfg.to_text()
    with pytest.raises(ValueError):
        StoreConfig.from_text("backend=weird\n")
    with pytest.raises(ValueError):
        StoreConfig.from_text("nonsense\n")
    with pytest.raises(ValueError):
        StoreConfig.from_text("backend=p2p\npeer_count=0\n")


def test_a_peer_count_above_the_cap_is_refused_before_any_peer_is_built(
        tmp_path, capsys, monkeypatch):
    # building a p2p store takes time quadratic in its peers, so a config,
    # or a snapshot whose checksum holds, that asks for a billion peers
    # would keep `store init` or `store stats` busy practically forever
    added = []
    monkeypatch.setattr(DhtService, "add_peer", lambda self, peer: added.append(peer))
    refusal = f"p2p backend needs peer_count in 1..{MAX_PEERS}"
    snap = tmp_path / "x.snap"
    huge = f"backend=p2p\npeer_count={10**9}\nsnapshot_path={snap}\n"
    assert StoreConfig.from_text(f"backend=p2p\npeer_count={MAX_PEERS}\n").peer_count == MAX_PEERS
    for count in (MAX_PEERS + 1, 10**9):
        with pytest.raises(MalformedInput, match=refusal):
            StoreConfig.from_text(f"backend=p2p\npeer_count={count}\n")
        with pytest.raises(MalformedInput, match=refusal):
            Store(StoreConfig(backend="p2p", peer_count=count))
    (tmp_path / "huge.cfg").write_text(huge, encoding="utf-8")
    assert cli_main(["init", "--config", str(tmp_path / "huge.cfg")]) == 1
    assert capsys.readouterr().err == f"error: {refusal}\n"

    _write_snapshot(snap, [(b"CONF", huge.encode())])
    with pytest.raises(CorruptSnapshot, match=f"^CONF record: {refusal}$"):
        restore(str(snap))
    cfg = config("p2p", tmp_path)
    cfg.snapshot_path = str(snap)
    (tmp_path / "store.cfg").write_text(cfg.to_text(), encoding="utf-8")
    assert cli_main(["stats", "--config", str(tmp_path / "store.cfg")]) == 1
    assert capsys.readouterr().err == f"error: CONF record: {refusal}\n"
    assert added == []


@pytest.mark.parametrize("names", [{"a,b"}, {" b"}, {"b\nc"}, {"b", ""}, {"a\tb"}, {"b "}])
def test_granularity_names_the_config_text_cannot_carry_are_refused(names, tmp_path, capsys):
    # to_text joins the names with "," and from_text strips and splits
    # them, so such a name restored as other names, or not at all
    with pytest.raises(MalformedInput, match="resource_granularity name"):
        Store(StoreConfig(resource_granularity=names))
    # a name with inner whitespace is the one a config file can hold
    cfg = tmp_path / "store.cfg"
    cfg.write_text(f"resource_granularity=a b\nsnapshot_path={tmp_path}/s.snap\n",
                   encoding="utf-8")
    assert cli_main(["init", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: resource_granularity name")
    assert not (tmp_path / "s.snap").exists()


@pytest.mark.parametrize("line", ["article, sec", " article ,sec ", "article,,sec,"])
def test_config_granularity_names_are_stripped(line):
    # a space after the comma once made the name " sec", which no element has
    cfg = StoreConfig.from_text(f"resource_granularity={line}\n")
    assert cfg.resource_granularity == {"article", "sec"}
    store = Store(cfg)
    ids = store.store_resource("<article><sec><par>x</par></sec><sec/></article>")
    assert ids == ["1#1", "1#2", "1#7"]
