"""Shared test plumbing: random corpora, random patterns, cluster setup,
snapshot files."""

from __future__ import annotations

import random
import struct
import zlib
from typing import Callable

from twigstore import planner
from twigstore.document import Document, parse_document
from twigstore.indexing import IndexService
from twigstore.netsim import Network
from twigstore.overlay import DhtService, HashOverlay, RangeOverlay
from twigstore.pattern import TreePattern, parse_pattern
from twigstore.store import Store
from twigstore.twigjoin import Binding, Row, local_bindings, sort_bindings

TAGS = ["a", "b", "c", "d", "e", "f"]
WORDS = ["xml", "dht", "web", "data", "peer", "query"]
ATTRS = ["id", "lang"]
INT_LO, INT_HI = 1990, 2010


# how a value is written so that it parses back as itself, in text and in
# double-quoted attributes alike
_XML_REFS = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
             "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def xml_escape(value: str) -> str:
    return "".join(_XML_REFS.get(ch, ch) for ch in value)


def random_document_text(
    rng: random.Random, max_nodes: int = 60, words: list[str] = WORDS
) -> str:
    """Random XML text: nested elements with words, integers, attributes.

    Text and attribute values are drawn from ``words``, escaped.
    """
    budget = [rng.randint(1, max(1, max_nodes - 1))]

    def element(depth: int) -> str:
        tag = rng.choice(TAGS)
        attrs = ""
        if rng.random() < 0.15:
            attrs = f' {rng.choice(ATTRS)}="{xml_escape(rng.choice(words))}"'
        children: list[str] = []
        while budget[0] > 0 and rng.random() < (0.65 if depth < 6 else 0.1):
            budget[0] -= 1
            roll = rng.random()
            if roll < 0.45:
                children.append(element(depth + 1))
            elif roll < 0.75:
                count = rng.randint(1, 3)
                text = " ".join(rng.choice(words) for _ in range(count))
                children.append(xml_escape(text))
            else:
                children.append(str(rng.randint(INT_LO, INT_HI)))
        if not children:
            return f"<{tag}{attrs}/>"
        return f"<{tag}{attrs}>" + "".join(children) + f"</{tag}>"

    return element(1)


def random_corpus(
    rng: random.Random, max_docs: int = 8, max_nodes: int = 30
) -> list[Document]:
    count = rng.randint(1, max_docs)
    return [
        parse_document(random_document_text(rng, max_nodes), doc_id)
        for doc_id in range(1, count + 1)
    ]


def random_pattern_text(
    rng: random.Random, max_nodes: int = 5, allow_wildcard: bool = True
) -> str:
    """Random pattern text within the grammar, at least one named node."""
    remaining = [rng.randint(1, max_nodes)]
    named = [False]

    def name() -> str:
        if allow_wildcard and rng.random() < 0.12:
            return "*"
        named[0] = True
        if rng.random() < 0.1:
            return "@" + rng.choice(ATTRS)
        return rng.choice(TAGS)

    def step(is_root: bool) -> str:
        remaining[0] -= 1
        axis = "//" if (is_root or rng.random() < 0.6) else "/"
        if not is_root and rng.random() < 0.4:
            axis = "/"
        text = axis + name()
        if not text.endswith("*"):
            roll = rng.random()
            if roll < 0.18:
                text += f'="{rng.choice(WORDS)}"'
            elif roll < 0.3:
                lo = rng.randint(INT_LO - 2, INT_HI)
                hi = lo + rng.randint(0, 8)
                text += f" in {lo}..{hi}"
        while remaining[0] > 0 and rng.random() < 0.5:
            text += "[" + step(False) + "]"
        if rng.random() < 0.3:
            text += "!"
        return text

    first = step(True)
    if not named[0]:
        first = "//" + rng.choice(TAGS) + "[" + first + "]"
    return first


def random_pattern(
    rng: random.Random, max_nodes: int = 5, allow_wildcard: bool = True
) -> TreePattern:
    return parse_pattern(random_pattern_text(rng, max_nodes, allow_wildcard))


def make_cluster(
    peer_count: int = 4,
    with_range: bool = True,
) -> tuple[Network, DhtService, IndexService]:
    net = Network()
    dht = DhtService(net)
    peers = list(range(1, peer_count + 1))
    for peer in peers:
        dht.add_peer(peer)
    for peer in peers:
        dht.join(dht.hash, peer)
        if with_range:
            dht.join(dht.range, peer)
    index = IndexService(dht)
    return net, dht, index


def index_corpus(
    index: IndexService, docs: list[Document], peers: list[int]
) -> tuple[dict[int, Document], Callable[[int], int]]:
    """Index docs round-robin over peers by doc id, as a store homes them;
    returns the documents by doc id and that home rule, the arguments
    ``planner.ExecutionContext`` takes after the index."""
    def home_of(doc_id: int) -> int:
        return peers[(doc_id - 1) % len(peers)]

    documents: dict[int, Document] = {}
    for doc in docs:
        documents[doc.doc_id] = doc
        index.index_document(doc, home_of(doc.doc_id))
    return documents, home_of


def planner_bindings(store: Store, pattern: TreePattern) -> list[Binding]:
    """The bindings a p2p ``Store.query`` recomposes: its plan's Recompose
    input, executed."""
    plan = store.build_plan(pattern).kids[0]
    result, _ = planner.execute(plan, store.exec_ctx)
    return dataset_to_bindings(pattern, plan, result)


def dataset_to_bindings(
    pattern: TreePattern, plan: planner.Plan, rows: list[Row]
) -> list[Binding]:
    """The rows ``plan`` executed to as bindings aligned with
    ``pattern.nodes``, sorted as every evaluator sorts them; the rows'
    columns are the plan root's ``cols``."""
    slot = {var: i for i, var in enumerate(plan.cols)}
    n = len(pattern.nodes)
    bindings = [tuple(row[slot[i]] for i in range(n)) for row in rows]
    return sort_bindings(pattern, bindings)


def eval_local(pattern: TreePattern, docs: list[Document]) -> list[Binding]:
    """The centralized backend's bindings, ``local_bindings``, sorted as
    every evaluator sorts them; they equal ``eval_naive``'s."""
    return sort_bindings(pattern, local_bindings(pattern, docs))


def skew_cluster(big: int, small: int):
    """Corpus with ``big`` postings of one tag and ``small`` of another, on
    two distinct peers, neither of them the query peer (peer 1).

    Every small element sits under its own big element, so the child-axis
    join yields exactly ``small`` rows.
    """
    net, dht, index = make_cluster(6)
    ov = dht.hash
    query_peer = 1
    tags: dict[str, int] = {}
    for i in range(400):
        name = f"k{i}"
        owner = ov.owner_of("t:" + name)
        if owner != query_peer and owner not in tags.values():
            tags[name] = owner
        if len(tags) >= 2:
            break
    (big_tag, _), (small_tag, _) = list(tags.items())[:2]
    parts = []
    for i in range(big):
        if i < small:
            parts.append(f"<{big_tag}><{small_tag}/></{big_tag}>")
        else:
            parts.append(f"<{big_tag}/>")
    doc = parse_document("<r>" + "".join(parts) + "</r>", 1)
    ctx = planner.ExecutionContext(index, *index_corpus(index, [doc], [2, 3, 4, 5, 6]))
    builder = planner.PlanBuilder(dht, query_peer)
    pattern = parse_pattern(f"//{big_tag}[/{small_tag}]!")
    return net, index, ctx, builder, pattern, (big_tag, small_tag), doc


def deflated(content: bytes) -> bytes:
    """A record's payload as ``snapshot`` writes it: the content's length,
    8 bytes, then the content deflated at level 1."""
    return struct.pack(">Q", len(content)) + zlib.compress(content, 1)


def write_snapshot(path, records: list[tuple[bytes, bytes]]) -> None:
    """Write a ``TWIGSNAP5`` file of ``records``, each a tag and its
    payload as it is to be stored, to ``path`` under its valid crc32."""
    body = b"TWIGSNAP5\n" + b"".join(
        tag + struct.pack(">Q", len(payload)) + payload for tag, payload in records
    )
    path.write_bytes(body + struct.pack(">Q", zlib.crc32(body)))


def plain_snapshot(blob: bytes) -> bytes:
    """The ``TWIGSNAP5`` file ``blob`` in the plain form whose sha256
    ``test_exact_costs`` pins: each record's content inflated, and each
    document in a ``DOC`` record of its own, its doc id, 8 bytes, then its
    text, written under the retired magic ``TWIGSNAP3`` and a crc32, as
    that layout held them.  ``blob``'s own trailer is dropped unchecked.
    """
    off, end = len(b"TWIGSNAP5\n"), len(blob) - 8
    body = bytearray(b"TWIGSNAP3\n")
    while off < end:
        tag = blob[off : off + 4]
        (length,) = struct.unpack_from(">Q", blob, off + 4)
        content = zlib.decompress(blob[off + 20 : off + 12 + length])
        off += 12 + length
        records = [content]
        if tag == b"DOC\x00":
            records, at = [], 0
            while at < len(content):
                doc_id, size = struct.unpack_from(">QQ", content, at)
                records.append(struct.pack(">Q", doc_id) + content[at + 16 : at + 16 + size])
                at += 16 + size
        for record in records:
            body += tag + struct.pack(">Q", len(record)) + record
    assert off == end
    return bytes(body + struct.pack(">Q", zlib.crc32(body)))


def check_ring(ov: HashOverlay) -> None:
    """The ring lists every member once, at its own position, in strictly
    increasing position order, and every store holds only the keys its
    member owns."""
    positions = [pos for pos, _ in ov._ring]
    assert positions == ov._positions
    assert all(a < b for a, b in zip(positions, positions[1:]))
    assert sorted(pid for _, pid in ov._ring) == sorted(ov.members)
    assert all(ov.peer_position(pid) == pos for pos, pid in ov._ring)
    for pid, store in ov.members.items():
        assert all(ov.owner_of(key) == pid for key in store)


def check_partition(ov: RangeOverlay) -> None:
    """The intervals cover every key, from the bottom of the key order up,
    with one nonempty interval per member, and every store holds only the
    keys its member owns."""
    if not ov.members:
        assert ov.bounds == ov.owners == []
        return
    assert ov.bounds[0] == b""
    assert all(lo < hi for lo, hi in zip(ov.bounds, ov.bounds[1:]))
    assert len(ov.owners) == len(ov.members) and set(ov.owners) == set(ov.members)
    assert not any(b.endswith(b"\0") for b in ov.bounds)
    for pid, store in ov.members.items():
        assert all(ov.owner_of(key) == pid for key in store)
