"""Exact simulated costs per query form on a fixed DBLP-shaped corpus.

Every figure here is a count the simulator makes, so it repeats exactly on
any machine and interpreter.  A change that moves traffic edits these
values to their new exact figures in the same diff; a change that claims
to move none leaves them alone.

Per query the pins are messages and bytes, messages and bytes per wire tag
(the first payload byte, counted by wrapping ``Network.send`` and charged
as ``NetworkStats.record`` charges them: a message a peer sends itself
costs no bytes), and the sha256 of the answers and of the placed plan XML.
Ingest is pinned as messages and bytes per document, and every step, query
or ingest, by the sha256 of its envelopes (``envelopes_sha256``), so
reordering the items inside an envelope, or the requests of one read,
shows even where every count and answer stays.  Each backend's
snapshot of the whole corpus is pinned by the sha256 of its records'
contents, inflated and written in the ``TWIGSNAP3`` layout, which stores
them as they are; the deflated bytes depend on the zlib build.
"""

from __future__ import annotations

import hashlib
import struct
from collections import defaultdict

import pytest

from twigstore.netsim import Network
from twigstore.pattern import parse_pattern
from twigstore.planner import plan_to_xml
from twigstore.rdfstore import Triple, parse_query_text
from twigstore.store import Store, StoreConfig, restore, snapshot

from helpers import snapshot_in_layout

VENUES = ("vldb", "sigmod", "icde", "edbt")
SURNAMES = ("smith", "chen", "garcia", "kumar", "ito")
WORDS = ("xml", "peer", "twig", "join", "index", "query", "store", "dht")
ARTICLES, PER_DOC, PEERS = 24, 6, 8


def _words(seed: int, count: int) -> str:
    return " ".join(WORDS[(seed * 7 + j * 3) % len(WORDS)] for j in range(count))


def _article(i: int) -> str:
    secs = "".join(
        f"<sec><title>{_words(i + s, 2)}</title><par>{_words(i * 3 + s, 5)}</par></sec>"
        for s in range(1 + i % 2)
    )
    return (
        f'<article key="k{i}"><title>{_words(i, 3 + i % 3)}</title>'
        f"<author>ann {SURNAMES[i % len(SURNAMES)]}</author>"
        f"<year>{1995 + i * 3 % 11}</year><venue>{VENUES[i % len(VENUES)]}</venue>"
        f"{secs}</article>"
    )


DOCS = [
    "<dblp>" + "".join(_article(i) for i in range(first, first + PER_DOC)) + "</dblp>"
    for first in range(0, ARTICLES, PER_DOC)
]
TRIPLES = [
    t
    for i in range(ARTICLES)
    for t in (
        Triple(f"k{i}", "venue", VENUES[i % len(VENUES)]),
        Triple(f"k{i}", "cites", f"k{i * 5 % ARTICLES}"),
    )
]

QUERIES = {
    "range": "//article[/year in 1998..2001]/title!",
    "word": '//article[/title="twig"]/year!',
    "branch": '//article[/author="chen"][/year in 1995..2002]/title!',
    "deep": '//article/sec/par="dht"!',
    "root": '/dblp/article[/venue="icde"]/title!',
    "wildcard": '//article[/*="sigmod"]/title!',
}
RDF_QUERY = "SELECT ?a ?v\n?a cites k5\n?a venue ?v\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def envelopes_sha256(sent) -> str:
    """sha256 over ``(from, to, payload)`` envelopes in send order, each
    as the two peer ids and the payload length (8, 8 and 4 bytes,
    big-endian), then the payload."""
    digest = hashlib.sha256()
    for frm, to, payload in sent:
        digest.update(struct.pack(">QQI", frm, to, len(payload)) + payload)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def observed() -> dict[str, dict]:
    """Ingest the corpus into an 8-peer store, then run every query once;
    per step, its cost, its traffic per wire tag and what it returned, and
    per ingest step the digest of its envelopes."""
    per_tag: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    sent: list[tuple[int, int, bytes]] = []
    real_send = Network.send

    def send(net, frm, to, payload):
        sent.append((frm, to, payload))
        entry = per_tag[payload[0]]
        entry[0] += 1
        entry[1] += 0 if frm == to else len(payload)
        real_send(net, frm, to, payload)

    store = Store(StoreConfig(backend="p2p", peer_count=PEERS,
                              resource_granularity={"article"}))

    def measure(step) -> dict:
        per_tag.clear()
        sent.clear()
        before = store.stats.copy()
        result = step()
        d = store.stats.delta_since(before)
        tags = {tag: tuple(v) for tag, v in sorted(per_tag.items())}
        return {"cost": (d.messages_sent, d.bytes_sent), "tags": tags, "result": result}

    out = {}
    Network.send = send
    try:
        for n, text in enumerate(DOCS, 1):
            out[f"doc{n}"] = measure(lambda: len(store.store_resource(text)))
            out[f"doc{n}"]["envelopes"] = envelopes_sha256(sent)
        out["rdf_load"] = measure(lambda: store.rdf_load(TRIPLES))
        out["rdf_load"]["envelopes"] = envelopes_sha256(sent)
        for form, text in QUERIES.items():
            plan = store.build_plan(parse_pattern(text))
            step = measure(lambda: store.query(text).resources)
            answers = "\n".join(f"{r.resource_id}\t{r.payload}" for r in step["result"])
            step["result"] = (len(step["result"]), _sha256(answers))
            step["plan"] = _sha256(plan_to_xml(plan))
            step["envelopes"] = envelopes_sha256(sent)
            out[form] = step
        step = measure(lambda: store.rdf_query(parse_query_text(RDF_QUERY)))
        rows = step["result"]
        step["result"] = (len(rows), _sha256("\n".join("\t".join(r) for r in rows)))
        step["envelopes"] = envelopes_sha256(sent)
        out["rdf"] = step
    finally:
        Network.send = real_send
    return out


# wire tags: 0x01 hash put, 0x02 hash get, 0x03 values (every read's
# answer), 0x04 range put, 0x10 dataset ship, 0x11 subtree fetch
INGEST = {
    "doc1": {
        "cost": (12, 13145), "result": 7, "tags": {0x01: (11, 12752), 0x04: (1, 393)},
        "envelopes": "2cee9f569c3b20db958b6945de2d22345ac57921ce3d8a3cc2c632c9e9070382",
    },
    "doc2": {
        "cost": (11, 12232), "result": 7, "tags": {0x01: (10, 11839), 0x04: (1, 393)},
        "envelopes": "ada9c30cb14336be0939c83fa021cece9ad613d24265fbf2541863326a9f355d",
    },
    "doc3": {
        "cost": (12, 15421), "result": 7, "tags": {0x01: (11, 15028), 0x04: (1, 393)},
        "envelopes": "42916512bcd64090bdc45f7709911f9dc498411bca45feac507743efb16ad479",
    },
    "doc4": {
        "cost": (11, 10093), "result": 7, "tags": {0x01: (10, 9700), 0x04: (1, 393)},
        "envelopes": "da2c3799845b57d2fb5239ca5cdd1deb53c81790d85ef9296f6e877e8f9f738c",
    },
    "rdf_load": {
        "cost": (11, 7106), "result": 48, "tags": {0x01: (11, 7106)},
        "envelopes": "95fc77746ed312d37a01f704bdad3fcabd14aef869c814c934f3052c84223437",
    },
}

# result: (answer count, sha256 of "id<TAB>payload" lines in answer order)
QUERY_COSTS = {
    "range": {
        "cost": (9, 2304),
        "tags": {0x03: (3, 246), 0x10: (3, 1923), 0x11: (3, 135)},
        "result": (9, "0c42a7e71ed7f474c091954b476d18c3d383adc0a51a2d71ee6683c418d5456d"),
        "plan": "37b54b255f012bbbd113b462f480222786659ca069f0904d9301ca5eb623e914",
    },
    "word": {
        "cost": (9, 3078),
        "tags": {0x03: (3, 204), 0x10: (3, 2691), 0x11: (3, 183)},
        "result": (12, "c77b80b3895c173694e5d87a5bddd5ff7c0a58ca837631cb9142332c105bbf3f"),
        "plan": "a4b942d96b8b31c5a645f34fc39990ef34d5bd6c5e9380af926e15a8ed6ab92f",
    },
    "branch": {
        "cost": (9, 1932),
        "tags": {0x03: (2, 125), 0x10: (5, 1733), 0x11: (2, 74)},
        "result": (4, "51eb98e2170609bb8ee14b7de853d1ca33a12ee1c7064f4db0fc5eec88d7fe73"),
        "plan": "857adbf42feb65cfe06ed175a967d9c22f15dae702edf8fc29193ef6150ec200",
    },
    "deep": {
        "cost": (8, 3248),
        "tags": {0x03: (3, 647), 0x10: (2, 2306), 0x11: (3, 295)},
        "result": (21, "cab55155f19877eaea9a583ae6a6f3bced740c35e781aa668bcf598b3071c5f0"),
        "plan": "ee5fe6bc2e10aed711aef962b6935a9c40e9ac660ab331354831767b92d32649",
    },
    "root": {
        "cost": (10, 3335),
        "tags": {0x03: (3, 204), 0x10: (4, 3012), 0x11: (3, 119)},
        "result": (6, "008008eb644d4495dd275f8dcd655e697f322b61ab1f2471bd50e668bff2a8da"),
        "plan": "bf6b1243a049cc2496ac3d0a6a97dcc266d58159a8aee65fdb2a4da70f6d6648",
    },
    "wildcard": {
        "cost": (8, 2381),
        "tags": {0x03: (3, 164), 0x10: (2, 2114), 0x11: (3, 103)},
        "result": (6, "f82eb9921b8a00a35cf97af79b9770084dc16746520dc0cf010595c897a2546a"),
        "plan": "16edb6b18ee48dcddb454a5fb135cc01a6d7edfe74e5055d8bf794e91abb9b24",
    },
    "rdf": {
        "cost": (6, 541),
        "tags": {0x02: (4, 82), 0x03: (2, 459)},
        "result": (1, "425df16dec9baf93ff9c5367a93c269670f84d494017cb821ea1e858627bdf5b"),
    },
}


# sha256 of each query step's envelopes (``envelopes_sha256``), request ids
# included: the order of the requests inside a multi-peer read (range scans,
# subtree fetches, RDF gets) and the ids they carry show here even where
# every count and answer stays
QUERY_ENVELOPES = {
    "range": "08354574d91bdcd413082e5f768797598f69e3cc89072e21c63f506b4a2505f9",
    "word": "c53bbd4c42474714a60c505fdeb09c2e7dcce0f4570739cf83071d2f4885924f",
    "branch": "072fb716c5614df1b93b7d9d6888739a3bdae311b1c6d05f63470b4e924f6348",
    "deep": "94fc5260db84f242e84a077096fa97321e817101ae9af567f72c7b8be08a0718",
    "root": "0bad0ebc4290d46159f31d8e0c00513be33a622fb24697e665afb9d02bb0a8e3",
    "wildcard": "62c9b00902f3276c0465434f6fadbcee3f57f0303b6dde22444a6d0bc481d502",
    "rdf": "e206ae99410516f3f146accb9f1873ce6a8d02af634770b8293405d7cc856f34",
}


@pytest.mark.parametrize("step", sorted(INGEST))
def test_ingest_cost_per_document(observed, step):
    assert observed[step] == INGEST[step]


@pytest.mark.parametrize("form", list(QUERY_COSTS))
def test_query_cost_per_form(observed, form):
    assert observed[form] == {**QUERY_COSTS[form], "envelopes": QUERY_ENVELOPES[form]}


def test_traffic_per_tag_adds_up_to_the_stats(observed):
    # every envelope sent in a step is delivered and charged within it
    for name, step in observed.items():
        msgs = sum(m for m, _ in step["tags"].values())
        byts = sum(b for _, b in step["tags"].values())
        assert (msgs, byts) == step["cost"], name


# sha256 of each backend's snapshot after the corpus, the triples and one
# run of every query form, in the TWIGSNAP3 layout; the p2p file holds
# that traffic in its stats
SNAPSHOT_SHA256 = {
    "centralized": "0c9fed8d38391266d57be18ba0e994d5cd1980e1933385b85053dfeecbe74a9a",
    "p2p": "f2c093dbf1124cf4d4011760d00607c460fc39c90ae0c02e6d9d61a20cc58a0f",
}


@pytest.mark.parametrize("backend", sorted(SNAPSHOT_SHA256))
def test_snapshot_bytes(tmp_path, backend):
    store = Store(StoreConfig(backend=backend, peer_count=PEERS,
                              resource_granularity={"article"}))
    for text in DOCS:
        store.store_resource(text)
    store.rdf_load(TRIPLES)
    for text in QUERIES.values():
        store.query(text)
    path = tmp_path / "store.snap"
    snapshot(store, str(path))
    blob = path.read_bytes()
    plain = snapshot_in_layout(blob, b"TWIGSNAP3\n")
    assert hashlib.sha256(plain).hexdigest() == SNAPSHOT_SHA256[backend]
    # deflating the records at least halves the file
    assert blob.startswith(b"TWIGSNAP5\n") and 2 * len(blob) <= len(plain)
    # a restored store writes the same bytes again
    snapshot(restore(str(path)), str(path))
    assert path.read_bytes() == blob
