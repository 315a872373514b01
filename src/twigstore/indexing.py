"""Publishing documents into the overlays and serving posting lookups.

Index keys are prefix-disjoint by construction:

* ``t:<name>``  — one posting per element/attribute node with that name
* ``w:<word>``  — postings of elements whose immediate text contains the word
* ``v:<tag>=<enc>`` — postings of elements named ``tag`` whose full text
  content is the decimal integer encoded by ``enc`` (range overlay)
* ``c:tags``    — tag-name catalog, one value per distinct name per document

A posting is one structural id, serialized fixed-width (4 x 64-bit,
big-endian) so list sizes are predictable for the planner's cost model.
Integer values are encoded as offset 20-digit decimals, which preserves
order under byte-wise comparison; ``parse_int_content`` already refuses
text outside the +-10^18 window this encoding covers.
"""

from __future__ import annotations

import struct

from .document import ATTRIBUTE, INT_WINDOW, TEXT, Document, Node, \
    StructuralId, parse_int_content, split_words
from .overlay import DhtService, Items, PutFn
from .netsim import PeerId

POSTING_SIZE = 32
CATALOG_KEY = "c:tags"

_INT_OFFSET = 10**19


def encode_posting(sid: StructuralId) -> bytes:
    return struct.pack(">QQQQ", sid.doc_id, sid.start, sid.end, sid.depth)


def decode_posting(raw: bytes) -> StructuralId:
    doc_id, start, end, depth = struct.unpack(">QQQQ", raw)
    return StructuralId(doc_id, start, end, depth)


def tag_key(name: str) -> str:
    return "t:" + name


def word_key(word: str) -> str:
    return "w:" + word


def encode_int(value: int) -> str:
    if abs(value) > INT_WINDOW + 1:
        raise ValueError(f"{value} outside the range-indexable window")
    return f"{value + _INT_OFFSET:020d}"


def value_key(tag: str, value: int) -> str:
    return f"v:{tag}={encode_int(value)}"


class IndexService:
    """Facade over the overlays for posting publication and lookups.

    ``stats`` shadows the number of postings published per key, feeding
    the planner's cost estimates.
    """

    def __init__(self, dht: DhtService, hash_dht: int, range_dht: int | None = None):
        self.dht = dht
        self.hash_dht = hash_dht
        self.range_dht = range_dht
        self.stats: dict[str, int] = {}

    # -- publication -----------------------------------------------------

    def index_document(
        self, doc: Document, via: PeerId, put: PutFn | None = None, lead: Items = ()
    ) -> int:
        """Publish all postings for ``doc``; returns the count published.

        The hash overlay gets one batch: the ``lead`` items (the store's
        ``r:``/``d:`` keys), the postings, then the catalog values.  The
        range overlay gets one batch of value postings.  ``put`` defaults to
        the routed ``DhtService.put``; snapshot restore passes
        ``DhtService.put_direct``.
        """
        hashed: Items = list(lead)
        ranged: Items = []
        catalog: dict[str, None] = {}

        def publish(batch: Items, key: str, sid: StructuralId) -> None:
            batch.append((key, encode_posting(sid)))
            self.stats[key] = self.stats.get(key, 0) + 1

        # (node, its parent element) in document order, with an explicit
        # stack: a recursive closure would be a reference cycle keeping both
        # batches alive until the next full garbage collection
        stack: list[tuple[Node, Node]] = [(doc.root, doc.root)]
        while stack:
            node, parent = stack.pop()
            if node.kind == TEXT:
                for word in dict.fromkeys(split_words(node.name_or_value)):
                    publish(hashed, word_key(word), parent.label)
                value = parse_int_content(node.name_or_value)
                if value is not None and self.range_dht is not None:
                    publish(ranged, value_key(parent.name, value), parent.label)
                continue
            catalog.setdefault(node.name, None)
            publish(hashed, tag_key(node.name), node.label)
            if node.kind != ATTRIBUTE:
                stack += ((child, node) for child in reversed(doc.children(node)))

        published = len(hashed) - len(lead) + len(ranged)
        hashed += ((CATALOG_KEY, name.encode("utf-8")) for name in catalog)
        put = put or self.dht.put
        put(self.hash_dht, via, hashed)
        if ranged:
            put(self.range_dht, via, ranged)
        return published

    # -- lookups -----------------------------------------------------------

    def lookup_tag(self, tag: str, via: PeerId) -> list[StructuralId]:
        values = self.dht.get(self.hash_dht, via, tag_key(tag))
        return sorted(decode_posting(v) for v in values)

    def lookup_word(self, word: str, via: PeerId) -> list[StructuralId]:
        values = self.dht.get(self.hash_dht, via, word_key(word))
        return sorted(decode_posting(v) for v in values)

    def lookup_value_range(
        self, tag: str, lo: int, hi: int, via: PeerId
    ) -> list[StructuralId]:
        """Postings of ``tag`` elements with integer content in [lo, hi]."""
        if self.range_dht is None:
            return []
        lo = max(lo, -INT_WINDOW)
        hi = min(hi, INT_WINDOW)
        if lo > hi:
            return []
        lo_key = value_key(tag, lo)
        hi_key = value_key(tag, hi + 1)
        items = self.dht.get_range(self.range_dht, via, lo_key, hi_key)
        return sorted(decode_posting(v) for _, v in items)

    def known_tags(self, via: PeerId) -> list[str]:
        values = self.dht.get(self.hash_dht, via, CATALOG_KEY)
        return sorted({v.decode("utf-8") for v in values})

    def lookup_all(self, via: PeerId) -> list[StructuralId]:
        """Union of all tag posting lists (wildcard candidate source)."""
        seen: set[StructuralId] = set()
        for tag in self.known_tags(via):
            seen.update(self.lookup_tag(tag, via))
        return sorted(seen)
