"""Storage/query service facade with interchangeable backends.

The centralized backend keeps documents in one process and answers
pattern queries with ``local_bindings``, the stack-based structural join
over candidates read from each document's posting index, the one the p2p
backend publishes (``Document.postings``), kept from the first query.
The p2p backend hosts a simulated peer network with one hash and one range
overlay, indexes every ingested document, and answers queries through the
decompose -> place -> execute pipeline.  Both backends return identical
resource lists for the same corpus; the p2p result additionally carries
the network stats delta its evaluation produced.

Both backends keep each document once (``documents``) and each resource
once (``resources``).  A p2p document's home peer is one rule,
``Store.home_of``: homes go round robin over the peers by doc id.
Resource access is O(1): looking up a resource id costs exactly one probe
of ``resources``, and an id it does not hold is not found, before any
message.  On p2p ``resources`` is a control-plane catalog, like the
posting counts the planner reads: a found resource's payload is fetched
from its document's home as Recompose fetches a query's results, and
the catalog's resource, which holds the same text, is returned.

``snapshot`` writes a store to one file and ``restore`` reads it back:
the config, every document's XML, the triples and the stats report, one
record each, every record's content deflated (``TWIGSNAP5``).  Files of
the retired layouts, ``TWIGSNAP1`` to ``TWIGSNAP4``, are refused.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from typing import Iterator

from . import planner
from .document import (
    Document,
    Resource,
    extract_resources,
    parse_document,
    recompose,
    serialize_document,
    serialize_node,
)
from .errors import (
    CorruptSnapshot,
    EmptyInput,
    IoFailure,
    MalformedInput,
    MalformedXml,
    NotFound,
    UnsupportedWildcardRoot,
)
from .indexing import IndexService
from .netsim import Network, NetworkStats, PeerId
from .overlay import DhtService, PutFn
from .overlay import fnv1a64  # noqa: F401 - unused here; perfbench's tracer wraps it
from .pattern import TreePattern, parse_pattern
from .rdfstore import (
    ConjunctiveQuery,
    Triple,
    eval_conjunctive,
    eval_nested_loop,
    index_triples,
)
from .twigjoin import local_bindings

CENTRALIZED = "centralized"
P2P = "p2p"
# building a p2p store costs time quadratic in its peers (each range join
# recomputes every interval), so a config or snapshot may not ask for more
MAX_PEERS = 1024


class StoreConfig:
    def __init__(
        self,
        backend: str = CENTRALIZED,
        peer_count: int = 4,
        resource_granularity: set[str] | None = None,
        snapshot_path: str = "store.snap",
    ):
        self.backend = backend
        self.peer_count = peer_count
        self.resource_granularity = (
            set() if resource_granularity is None else resource_granularity
        )
        self.snapshot_path = snapshot_path

    def validate(self) -> None:
        if self.backend not in (CENTRALIZED, P2P):
            raise MalformedInput(f"unknown backend {self.backend!r}")
        if self.backend == P2P and not 1 <= self.peer_count <= MAX_PEERS:
            raise MalformedInput(f"p2p backend needs peer_count in 1..{MAX_PEERS}")
        for name in sorted(self.resource_granularity):
            # ``to_text`` joins the names with "," and ``from_text`` strips
            # and splits them, so no other name reads back as it was
            if not name or "," in name or any(map(str.isspace, name)):
                raise MalformedInput(f"resource_granularity name {name!r} is empty "
                                     "or holds a comma or whitespace")

    def to_text(self) -> str:
        granularity = ",".join(sorted(self.resource_granularity))
        return (
            f"backend={self.backend}\n"
            f"peer_count={self.peer_count}\n"
            f"resource_granularity={granularity}\n"
            f"snapshot_path={self.snapshot_path}\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "StoreConfig":
        config = cls()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MalformedInput(f"line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "backend":
                config.backend = value
            elif key == "peer_count":
                config.peer_count = _parse_int(lineno, value)
            elif key == "resource_granularity":
                names = (name.strip() for name in value.split(","))
                config.resource_granularity = set(filter(None, names))
            elif key == "snapshot_path":
                config.snapshot_path = value
            elif key in ("overlays", "seed"):
                pass  # retired fields that older configs and snapshots hold
            else:
                raise MalformedInput(f"line {lineno}: unknown key {key!r}")
        config.validate()
        return config


def _parse_int(lineno: int, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedInput(f"line {lineno}: {text!r} is not an integer") from None


class QueryResult:
    def __init__(self, resources: list[Resource], stats: NetworkStats):
        self.resources = resources
        self.stats = stats


class Store:
    """The storage service; construct via ``Store(config)``."""

    def __init__(self, config: StoreConfig):
        config.validate()
        self.config = config
        self.documents: dict[int, Document] = {}
        self.resources: dict[str, Resource] = {}
        self.triples: list[Triple] = []
        self.probe_count = 0
        self._next_doc_id = 1

        if config.backend == CENTRALIZED:
            self.stats = NetworkStats()  # sends nothing, so it never moves
            return

        self.net = Network()
        self.stats = self.net.stats
        self.dht = DhtService(self.net)
        self.members: list[PeerId] = list(range(1, config.peer_count + 1))
        for peer in self.members:
            self.dht.add_peer(peer)
        for ov in (self.dht.hash, self.dht.range):
            for peer in self.members:
                self.dht.join(ov, peer)
        self.index = IndexService(self.dht)
        self.exec_ctx = planner.ExecutionContext(self.index, self.documents, self.home_of)
        self.query_peer: PeerId = self.members[0]

    def home_of(self, doc_id: int) -> PeerId:
        """The peer a p2p document lives on: round robin by doc id."""
        return self.members[(doc_id - 1) % len(self.members)]

    # -- ingest ------------------------------------------------------------

    def store_resource(self, xml_text: str) -> list[str]:
        doc_id = self._next_doc_id
        doc = parse_document(xml_text, doc_id)
        self._next_doc_id += 1
        return self._register(doc)

    def _register(self, doc: Document, put: PutFn | None = None) -> list[str]:
        """Record ``doc`` and its resources; on p2p, then publish its
        postings from its home, one batch per overlay.

        ``put`` defaults to the routed ``DhtService.put``; snapshot restore
        passes ``DhtService.put_direct``.
        """
        self.documents[doc.doc_id] = doc
        resources = extract_resources(doc, self.config.resource_granularity)
        for res in resources:
            self.resources[res.resource_id] = res
        if self.config.backend == P2P:
            self.index.index_document(doc, self.home_of(doc.doc_id), put)
        return [res.resource_id for res in resources]

    # -- resource access ----------------------------------------------------

    def get_resource(self, resource_id: str) -> Resource:
        self.probe_count += 1
        resource = self.resources.get(resource_id)
        if resource is None:
            raise NotFound(f"no resource {resource_id!r}")
        if self.config.backend == P2P:
            # the payload crosses from the document's home in a counted
            # fetch, as Recompose's do; the caller gets the catalog's equal
            # text, so it holds one copy per resource however often fetched
            self.exec_ctx.fetch_subtree(self.query_peer, [resource.root_label])
        return resource

    # -- queries ------------------------------------------------------------

    def query(self, text: str) -> QueryResult:
        pattern = parse_pattern(text)
        if pattern.all_wildcard:
            # both backends refuse, keeping them interchangeable
            raise UnsupportedWildcardRoot(
                "pattern has no named node to seed an index lookup"
            )
        if self.config.backend == CENTRALIZED:
            # recompose sorts the distinct labels, so the bindings need not be
            bindings = local_bindings(pattern, list(self.documents.values()))
            rets = pattern.return_nodes
            labels = (b[i] for b in bindings for i in rets)
            resources = recompose(labels, lambda sids: [
                serialize_node(self.documents[sid.doc_id], sid) for sid in sids
            ])
            return QueryResult(resources, NetworkStats())
        plan = self.build_plan(pattern)
        return QueryResult(*planner.execute(plan, self.exec_ctx))

    def build_plan(self, pattern: TreePattern) -> planner.Plan:
        builder = planner.PlanBuilder(self.dht, self.query_peer)
        plan = builder.build(pattern, self.index.stats)
        return planner.place(plan, self.index.stats, self.query_peer)

    # -- rdf ------------------------------------------------------------------

    def rdf_load(self, triples: list[Triple]) -> int:
        """Store ``triples``; refuses them all if any cannot be written as
        the tab-separated text the p2p index and the snapshot hold."""
        for triple in triples:
            triple.check()
        self.triples.extend(triples)
        if self.config.backend == P2P:
            index_triples(triples, self.query_peer, self.dht)
        return len(triples)

    def rdf_query(self, query: ConjunctiveQuery) -> list[tuple[str, ...]]:
        if self.config.backend == CENTRALIZED:
            return eval_nested_loop(query, self.triples)
        return eval_conjunctive(query, self.query_peer, self.dht)

    # -- stats -------------------------------------------------------------------

    def stats_report(self) -> str:
        return self.stats.report()


# -- snapshot format -------------------------------------------------------------

_MAGIC = b"TWIGSNAP5\n"  # crc32 trailer, deflated payloads, one DOC record
_RETIRED_MAGICS = tuple(b"TWIGSNAP%d\n" % n for n in range(1, 5))  # refused

# zlib level 1: level 6 saves 5-6 more points of the file at 4-6 times the
# compress time, and every mutating CLI command writes a snapshot
_LEVEL = 1
# deflate inflates at most 1032 bytes per stream byte; a longer recorded
# length cannot be the stream's
_MAX_RATIO = 1032


def _record(tag: bytes, payload: bytes) -> bytes:
    assert len(tag) == 4
    packed = struct.pack(">Q", len(payload)) + zlib.compress(payload, _LEVEL)
    return tag + struct.pack(">Q", len(packed)) + packed


def _inflate(tag: bytes, n: int, packed: bytes) -> bytes:
    """The content of the ``n``-th record of a deflated file, whose
    payload ``packed`` is the content's length, 8 bytes, then its zlib
    stream; the stream is inflated at most one byte past that length."""
    name = tag.rstrip(b"\x00").decode() + f" record {n}"
    if len(packed) < 8:
        raise CorruptSnapshot(f"{name}: payload too short for its length")
    (length,) = struct.unpack_from(">Q", packed, 0)
    stream = packed[8:]
    if length > _MAX_RATIO * len(stream):
        raise CorruptSnapshot(
            f"{name}: recorded length {length} is more than "
            f"{len(stream)} deflated bytes can hold"
        )
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(stream, length + 1)
    except zlib.error as exc:
        raise CorruptSnapshot(f"{name}: bad deflate stream ({exc})") from None
    if len(payload) > length:
        raise CorruptSnapshot(f"{name}: inflates to more than its recorded {length} bytes")
    if not inflater.eof:
        raise CorruptSnapshot(f"{name}: deflate stream ends early")
    if len(payload) < length:
        raise CorruptSnapshot(
            f"{name}: inflates to {len(payload)} bytes, not its recorded {length}"
        )
    if inflater.unused_data:
        raise CorruptSnapshot(f"{name}: bytes after the end of its deflate stream")
    return payload


def snapshot(store: Store, path: str) -> None:
    """Write config, documents, triples, and stats to ``path``.

    All documents go in one ``DOC`` record, in rising doc-id order, each
    as its doc id and the byte length of its UTF-8 text, 8 bytes each,
    then that text; deflating them as one stream lets each document reuse
    the tags and words of those before it.  All triples go in one ``TRPL``
    record, one per line; ``Store.rdf_load`` refuses a triple whose text
    could not be read back.  A store without documents or triples writes
    no such record.

    Resources are not written: ``restore`` derives them again from each
    document and the config's ``resource_granularity``.  Nor is the
    config's ``snapshot_path``: a file does not record where it lives.

    The file starts with the magic ``TWIGSNAP5``.  Each record is a 4-byte
    tag and the 8-byte length of its payload; the payload is the length
    of the record's content, 8 bytes, then that content deflated by
    ``zlib.compress`` at level 1.  The file ends with the CRC-32
    (``zlib.crc32``) of everything before it, as written, zero-extended to
    8 big-endian bytes, so a flipped bit fails the checksum before any
    payload is inflated.  It is written to ``path + ".tmp"``, fsynced,
    moved onto ``path``, and then the directory is fsynced, so a crash
    leaves the old snapshot or the new one, and a write that fails before
    the move leaves the last snapshot whole and no temporary file behind.
    """
    blob = bytearray(_MAGIC)
    config = store.config
    conf = StoreConfig(config.backend, config.peer_count,
                       config.resource_granularity, snapshot_path="").to_text()
    blob += _record(b"CONF", conf.encode("utf-8"))
    if store.documents:
        docs = bytearray()
        for doc_id in sorted(store.documents):
            text = serialize_document(store.documents[doc_id]).encode("utf-8")
            docs += struct.pack(">QQ", doc_id, len(text))
            docs += text
        blob += _record(b"DOC\x00", docs)
    if store.triples:
        text = "\n".join(triple.text() for triple in store.triples)
        blob += _record(b"TRPL", text.encode("utf-8"))
    blob += _record(b"NSTA", store.stats.report().encode("utf-8"))
    blob += struct.pack(">Q", zlib.crc32(blob))
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)  # makes the rename itself durable
        finally:
            os.close(fd)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise IoFailure(str(exc)) from None


def restore(path: str) -> Store:
    """Rebuild an equivalent store from a snapshot file.

    A p2p store's postings go straight to their owners through
    ``DhtService.put_direct``: no message is simulated, and the stats are
    the ones the ``NSTA`` record saved.  The store's ``snapshot_path`` is
    ``path``, whatever path its ``CONF`` record names.  Doc ids must be
    positive and rising, as ``snapshot`` writes them.  Content that passed
    the checksum but does not read back (a bad config, document or triple
    line, a record tag that comes twice, an edge line no run could record,
    or an ``NSTA`` total that is missing or not the sum of its edges)
    raises CorruptSnapshot naming its record; a document's fault names its
    doc id, as in ``DOC record of doc id 2: ...``.

    Only ``TWIGSNAP5`` files are read; one of the retired ``TWIGSNAP1`` to
    ``TWIGSNAP4`` is refused by its magic, before its checksum is read.
    ``CONF`` comes first, and no tag comes twice.  Each payload is
    inflated when the loop over the records reaches it, at most one byte
    past its recorded length: a payload that is no deflate stream, or that
    inflates to another length or has bytes after its stream, raises
    CorruptSnapshot naming the record.  Each entry of the ``DOC`` record
    must have a whole header and text that ends within the record.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from None
    magic = blob[: len(_MAGIC)]
    if magic in _RETIRED_MAGICS:
        raise CorruptSnapshot(
            f"{magic.decode().strip()} snapshots are no longer read; re-ingest the documents"
        )
    if len(blob) < len(_MAGIC) + 8 or magic != _MAGIC:
        raise CorruptSnapshot("bad magic or truncated file")
    body, checksum = blob[:-8], struct.unpack(">Q", blob[-8:])[0]
    if zlib.crc32(body) != checksum:
        raise CorruptSnapshot("checksum mismatch")

    records: list[tuple[bytes, bytes]] = []
    off = len(_MAGIC)
    while off < len(body):
        if off + 12 > len(body):
            raise CorruptSnapshot("truncated record header")
        tag = body[off : off + 4]
        (length,) = struct.unpack_from(">Q", body, off + 4)
        off += 12
        if off + length > len(body):
            raise CorruptSnapshot("truncated record payload")
        records.append((tag, body[off : off + length]))
        off += length

    if not records or records[0][0] != b"CONF":
        raise CorruptSnapshot("missing CONFIG record")
    tag, payload = records[0]
    try:
        config = StoreConfig.from_text(_utf8(tag, _inflate(tag, 1, payload)))
    except MalformedInput as exc:
        raise CorruptSnapshot(f"CONF record: {exc}") from None
    config.snapshot_path = path
    store = Store(config)
    put = store.dht.put_direct if config.backend == P2P else None

    seen = {b"CONF"}
    saved_report = None
    for n, (tag, payload) in enumerate(records[1:], 2):
        if tag not in (b"CONF", b"DOC\x00", b"TRPL", b"NSTA"):
            raise CorruptSnapshot(f"unknown record tag {tag!r}")
        if tag in seen:
            second = "second " + tag.rstrip(b"\x00").decode() + " record"
            if tag == b"DOC\x00":
                second = f"DOC record of doc id after {store._next_doc_id - 1}: a {second}"
            raise CorruptSnapshot(second)
        seen.add(tag)
        payload = _inflate(tag, n, payload)
        if tag == b"DOC\x00":
            for doc_id, text in _doc_entries(payload):
                _restore_document(store, doc_id, text, put)
        elif tag == b"TRPL":
            try:
                store.triples = list(map(Triple.from_text, _utf8(tag, payload).split("\n")))
            except MalformedInput as exc:
                raise CorruptSnapshot(f"TRPL record: {exc}") from None
        else:
            saved_report = _utf8(tag, payload)

    if config.backend == P2P:
        index_triples(store.triples, store.query_peer, store.dht, put)
    if saved_report is not None:
        _restore_stats(store, saved_report)
    return store


def _doc_entries(content: bytes) -> Iterator[tuple[int, memoryview]]:
    """The doc id and UTF-8 text of each entry of a ``TWIGSNAP5`` ``DOC``
    record's ``content``: the doc id and the text's byte length, 8 bytes
    each, then the text."""
    view, off, doc_id = memoryview(content), 0, 0
    while off < len(view):
        if off + 16 > len(view):
            raise CorruptSnapshot(
                f"DOC record of doc id after {doc_id}: entry header of "
                f"{len(view) - off} bytes, not 16"
            )
        doc_id, size = struct.unpack_from(">QQ", view, off)
        off += 16
        if size > len(view) - off:
            raise CorruptSnapshot(
                f"DOC record of doc id {doc_id}: text of {size} bytes runs past "
                f"the record's end, {len(view) - off} bytes on"
            )
        yield doc_id, view[off : off + size]
        off += size


def _restore_document(store: Store, doc_id: int, text: memoryview, put: PutFn | None) -> None:
    """Parse and register one stored document, whose doc id must be above
    every doc id before it."""
    name = f"DOC record of doc id {doc_id}"
    if doc_id < store._next_doc_id:
        raise CorruptSnapshot(f"{name}: doc id does not rise above {store._next_doc_id - 1}")
    try:
        xml = str(text, "utf-8")
    except UnicodeDecodeError:
        raise CorruptSnapshot(f"{name}: text is not UTF-8") from None
    try:
        doc = parse_document(xml, doc_id)
    except (EmptyInput, MalformedXml) as exc:
        raise CorruptSnapshot(f"{name}: {exc}") from None
    store._register(doc, put)
    store._next_doc_id = doc_id + 1


def _utf8(tag: bytes, payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptSnapshot(f"{tag!r} record is not UTF-8 text") from None


def _restore_stats(store: Store, report: str) -> None:
    """Load a fresh store's stats from a saved ``report()`` text: one
    "from to messages bytes" line per edge, then the totals line, which the
    edges must sum to.  As every run records them, edges join two of the
    store's peers (a centralized store has none), appear once, count a
    message at least and no negative bytes, and charge a self edge none."""
    peers = store.config.peer_count if store.config.backend == P2P else 0
    stats = store.stats
    *edges, total = report.splitlines() or [""]
    if total.split()[:1] != ["total"]:
        raise CorruptSnapshot("NSTA record does not end with its total line")
    for line in edges:
        try:
            frm, to, msgs, byts = (int(p) for p in line.split())
        except ValueError:
            raise CorruptSnapshot(f"NSTA line {line!r} is not four integers") from None
        if not (1 <= frm <= peers and 1 <= to <= peers):
            raise CorruptSnapshot(f"NSTA line {line!r} names a peer outside the store")
        if msgs < 1 or byts < 0:
            raise CorruptSnapshot(f"NSTA line {line!r} counts no message or negative bytes")
        if frm == to and byts:
            raise CorruptSnapshot(f"NSTA line {line!r} charges bytes to a self edge")
        if (frm, to) in stats.per_edge:
            raise CorruptSnapshot(f"NSTA line {line!r} repeats an earlier edge")
        stats.per_edge[(frm, to)] = [msgs, byts]
        stats.messages_sent += msgs
        stats.bytes_sent += byts
    if total.split()[1:] != [str(stats.messages_sent), str(stats.bytes_sent)]:
        raise CorruptSnapshot(
            f"NSTA line {total!r} is not the sum of its edges: "
            f"{stats.messages_sent} messages, {stats.bytes_sent} bytes"
        )
