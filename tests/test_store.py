import random
import struct
from dataclasses import replace

import pytest

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

from helpers import random_document_text, random_pattern_text

D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"


def config(backend="p2p", tmp_path=None, granularity=("par",), peers=4):
    return StoreConfig(
        backend=backend,
        peer_count=peers,
        overlays=[(0, "hash"), (1, "range")],
        resource_granularity=set(granularity),
        snapshot_path=str(tmp_path / "s.snap") if tmp_path else "s.snap",
        seed=7,
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
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(CorruptSnapshot):
        restore(path)


def test_restore_bitflip(tmp_path, any_store):
    any_store.store_resource(D1)
    path = str(tmp_path / "x.snap")
    snapshot(any_store, path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))
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
        (dht_id, peer): [(key, list(values)) for key, values in state.store.items()]
        for dht_id, overlay in store.dht.overlays.items()
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


def test_p2p_without_range_overlay(tmp_path):
    from twigstore.errors import NotRangeCapable

    cfg = StoreConfig(
        backend="p2p", peer_count=3, overlays=[(0, "hash")],
        resource_granularity=set(), snapshot_path=str(tmp_path / "h.snap"), seed=1,
    )
    store = Store(cfg)
    store.store_resource("<lib><paper><year>2003</year></paper></lib>")
    assert [r.resource_id for r in store.query("//paper!").resources] == ["1#2"]
    with pytest.raises(NotRangeCapable):
        store.query("//paper[/year in 2000..2005]!")


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
        StoreConfig.from_text("backend=p2p\noverlays=0:range\n")
    with pytest.raises(ValueError):
        StoreConfig.from_text("nonsense\n")
    with pytest.raises(ValueError):
        StoreConfig.from_text("backend=p2p\npeer_count=0\n")
