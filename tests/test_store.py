import random
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from twigstore import planner
from twigstore.errors import (
    CorruptSnapshot,
    MalformedInput,
    MalformedXml,
    NotFound,
    UnseedablePattern,
)
from twigstore.netsim import Network
from twigstore.overlay import fnv1a64
from twigstore.rdfstore import (
    ConjunctiveQuery,
    Triple,
    TriplePattern,
    parse_query_text,
)
from twigstore.store import P2P, Store, StoreConfig, restore, snapshot

from helpers import TAGS, WORDS, random_document_text, random_pattern_text

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


@pytest.mark.xfail(
    strict=True,
    reason="known defect: every value key starts with 'v:', so the range "
    "overlay's midpoint splits of [0, 1) leave all value postings on one peer",
)
def test_value_postings_spread_over_range_peers(tmp_path):
    store = Store(config("p2p", tmp_path, granularity=(), peers=8))
    for year in range(1900, 2030, 3):
        store.store_resource(f"<paper><year>{year}</year></paper>")
    holders = [
        pid for pid, state in store.dht.range.members.items()
        if any(key.startswith("v:") for key in state.store)
    ]
    assert len(holders) >= 2, holders


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


def _record_tags(blob: bytes) -> list[bytes]:
    off, end, tags = blob.index(b"\n") + 1, len(blob) - 8, []
    while off < end:
        tags.append(blob[off : off + 4])
        (length,) = struct.unpack_from(">Q", blob, off + 4)
        off += 12 + length
    assert off == end
    return tags


def test_snapshot_records_in_order(tmp_path, any_store):
    any_store.store_resource(D1)
    any_store.store_resource(D1)
    any_store.rdf_load([Triple("a", "type", "Doc"), Triple("a", "author", "b")])
    path = tmp_path / "x.snap"
    snapshot(any_store, str(path))
    blob = path.read_bytes()
    assert blob.startswith(b"TWIGSNAP2\n")
    # all triples share one TRPL record, one per line
    assert _record_tags(blob) == [b"CONF", b"DOC\x00", b"DOC\x00", b"TRPL", b"NSTA"]
    assert b"a\ttype\tDoc\na\tauthor\tb" in blob


def test_restore_reads_one_triple_per_record(tmp_path, any_store):
    # files written before all triples shared one TRPL record
    triples = [Triple("a", "type", "Doc"), Triple("a", "author", "b")]
    any_store.store_resource(D1)
    any_store.rdf_load(triples)
    path = tmp_path / "x.snap"
    snapshot(any_store, str(path))
    blob = path.read_bytes()
    at = blob.index(b"TRPL")
    (length,) = struct.unpack_from(">Q", blob, at + 4)
    split = b"".join(
        b"TRPL" + struct.pack(">Q", len(raw)) + raw
        for raw in (t.text().encode("utf-8") for t in triples)
    )
    body = blob[:at] + split + blob[at + 12 + length : -8]
    path.write_bytes(body + struct.pack(">Q", fnv1a64(body)))
    again = restore(str(path))
    assert again.triples == triples
    query = parse_query_text("SELECT ?x ?y\n?x author ?y\n")
    assert again.rdf_query(query) == any_store.rdf_query(query) == [("a", "b")]


def _write_snapshot(path, records) -> None:
    body = b"TWIGSNAP2\n" + b"".join(
        tag + struct.pack(">Q", len(payload)) + payload for tag, payload in records
    )
    path.write_bytes(body + struct.pack(">Q", fnv1a64(body)))


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


def test_restore_adopts_its_file_over_a_recorded_path(tmp_path, any_store):
    # files written before the path was left out still name one in CONF
    any_store.store_resource(D1)
    conf = replace(any_store.config, snapshot_path="elsewhere.snap").to_text()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf.encode()),
                           (b"DOC\x00", struct.pack(">Q", 1) + D1.encode())])
    again = restore(str(path))
    assert again.config.snapshot_path == str(path)
    assert again.get_resource("1#6").payload == "<par>xml</par>"


def test_restore_ignores_a_recorded_seed(tmp_path, any_store):
    # files written while the config had a seed field hold a seed= line
    any_store.store_resource(D1)
    conf = any_store.config.to_text() + "seed=7\n"
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf.encode()),
                           (b"DOC\x00", struct.pack(">Q", 1) + D1.encode())])
    again = restore(str(path))
    assert again.get_resource("1#6").payload == "<par>xml</par>"
    fresh = tmp_path / "y.snap"
    snapshot(again, str(fresh))
    blob = fresh.read_bytes()
    (length,) = struct.unpack_from(">Q", blob, 14)
    assert blob[10:14] == b"CONF"
    assert "seed=" not in blob[22 : 22 + length].decode()


@pytest.mark.parametrize("doc_ids", [(1, 1), (2, 1), (0,), (1, 3, 3)])
def test_restore_refuses_doc_ids_that_do_not_rise(tmp_path, any_store, doc_ids):
    # snapshot writes doc ids from 1 up in rising order; a repeated id would
    # replace a document whose postings stay published
    conf = any_store.config.to_text().encode()
    texts = ["<a><b>x</b><b>y</b></a>", "<z><q>w</q></z>", D1]
    docs = [(b"DOC\x00", struct.pack(">Q", i) + t.encode()) for i, t in zip(doc_ids, texts)]
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), *docs])
    with pytest.raises(CorruptSnapshot, match="doc id"):
        restore(str(path))


@pytest.mark.parametrize("report", [b"1 x 3 4\ntotal 3 4\n", b"1 2 3\ntotal 3 4\n"])
def test_restore_refuses_stats_lines_that_are_not_edges(tmp_path, any_store, report):
    # an edge line of the NSTA record is four integers: from, to, messages, bytes
    conf = any_store.config.to_text().encode()
    path = tmp_path / "x.snap"
    _write_snapshot(path, [(b"CONF", conf), (b"NSTA", report)])
    with pytest.raises(CorruptSnapshot, match="NSTA"):
        restore(str(path))


def test_restore_refuses_version_1(tmp_path, any_store):
    any_store.store_resource(D1)
    path = tmp_path / "x.snap"
    snapshot(any_store, str(path))
    body = b"TWIGSNAP1\n" + path.read_bytes()[len(b"TWIGSNAP2\n") : -8]
    path.write_bytes(body + struct.pack(">Q", fnv1a64(body)))
    with pytest.raises(CorruptSnapshot, match="TWIGSNAP1"):
        restore(str(path))


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
    blob = bytearray(Path(path).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CorruptSnapshot):
        restore(path)


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
        (overlay.kind, peer): [(key, list(values)) for key, values in state.store.items()]
        for overlay in (store.dht.hash, store.dht.range)
        for peer, state in overlay.members.items()
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
    _write_snapshot(path, [(b"CONF", text.encode()),
                           (b"DOC\x00", struct.pack(">Q", 1) + doc.encode())])
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
