"""Publishing documents into the overlays and serving posting lookups.

Index keys are prefix-disjoint by construction:

* ``t:<name>``  — one posting per element/attribute node with that name
* ``w:<word>``  — postings of elements whose immediate text contains the word,
  one per element however many of its text children hold the word
* ``v:<tag>=<enc>`` — postings of elements named ``tag`` with a text child
  that is the decimal integer encoded by ``enc``, one per element however
  many of its text children hold that integer
* ``r:<resource id>`` — the store's resource index: the peer holding it

Every p2p store runs two overlays: value keys live on the order-preserving
range overlay ``dht.range``, which alone answers interval lookups, and
every other key (the RDF store's triple keys too) on the hash overlay
``dht.hash``.

A posting is one structural id, serialized fixed-width (4 x 64-bit,
big-endian) so list sizes are predictable for the planner's cost model.
Integer values are encoded as offset 20-digit decimals, which preserves
order under byte-wise comparison; ``parse_int_content`` already refuses
text outside the +-10^18 window this encoding covers, and ``value_bounds``
clips a query range to it.

The four fields are fixed-width unsigned big-endian integers in label
field order, so byte order on encoded postings is ``StructuralId`` order:
a lookup dedupes and sorts the raw 32-byte records, then decodes the whole
list in one pass (``decode_postings``).  A label is a tuple of its four
fields, so it packs as it is.

This module turns a plan leaf into index work: its key (``tag_key``,
``word_key``, ``value_bounds``), its estimated posting count from the
published counts (``key_count``, ``range_count``), and its lookup, which
returns distinct postings in label order.  A word-predicated node's
Intersect reads its stored list with ``lookup_among``, which decodes only
the postings the other list holds.
"""

from __future__ import annotations

import struct
from itertools import starmap
from typing import Iterable

from .document import ATTRIBUTE, INT_WINDOW, TEXT, Document, Node, \
    StructuralId, parse_int_content, split_words
from .overlay import DhtService, Items, PutFn
from .netsim import PeerId

POSTING_SIZE = 32

_INT_OFFSET = 10**19
_POSTING = struct.Struct(">QQQQ")


def encode_posting(sid: StructuralId) -> bytes:
    return _POSTING.pack(*sid)


def encode_postings(sids: Iterable[StructuralId]) -> bytes:
    """The encodings of ``sids``, concatenated."""
    return b"".join(starmap(_POSTING.pack, sids))


def decode_postings(raw: bytes) -> list[StructuralId]:
    """Every posting of a concatenation of encoded postings, in order."""
    return list(starmap(StructuralId, _POSTING.iter_unpack(raw)))


def _sorted_postings(records: Iterable[bytes]) -> list[StructuralId]:
    """Distinct postings of encoded ``records``, in label order: sorting
    the bytes sorts the labels."""
    return decode_postings(b"".join(sorted(set(records))))


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


def resource_key(resource_id: str) -> str:
    return "r:" + resource_id


def value_bounds(tag: str, lo: int, hi: int) -> tuple[str, str] | None:
    """The half-open key interval of ``tag`` values in [lo, hi], clipped to
    the window; None when no integer in the window lies in [lo, hi]."""
    lo, hi = max(lo, -INT_WINDOW), min(hi, INT_WINDOW)
    if lo > hi:
        return None
    return value_key(tag, lo), value_key(tag, hi + 1)


# -- estimates: counts over the published-postings dict ``IndexService.stats``


def key_count(stats: dict[str, int], key: str) -> int:
    """Postings published under ``key``; ``"*"`` counts every tag's."""
    if key == "*":
        return sum(c for k, c in stats.items() if k.startswith("t:"))
    return stats.get(key, 0)


def value_tags(stats: dict[str, int]) -> list[str]:
    """The tags with value postings, sorted: the only tags ``"*"`` expands
    to in a range."""
    return sorted({k[2 : k.index("=")] for k in stats if k.startswith("v:")})


def range_count(stats: dict[str, int], tag: str, lo: int, hi: int) -> int:
    """Value postings of ``tag`` (``"*"``: any tag) with content in [lo, hi]."""
    total = 0
    for t in value_tags(stats) if tag == "*" else [tag]:
        bounds = value_bounds(t, lo, hi)
        if bounds is not None:
            lo_key, hi_key = bounds
            total += sum(c for k, c in stats.items() if lo_key <= k < hi_key)
    return total


class IndexService:
    """Facade over the overlays for posting publication and lookups.

    ``stats`` shadows the number of postings published per key, feeding
    the planner's cost estimates and the tags a wildcard scans.
    """

    def __init__(self, dht: DhtService):
        self.dht = dht
        self.stats: dict[str, int] = {}

    # -- publication -----------------------------------------------------

    def index_document(
        self, doc: Document, via: PeerId, put: PutFn | None = None, lead: Items = ()
    ) -> int:
        """Publish all postings for ``doc``; returns the count published.

        The hash overlay gets one batch: the ``lead`` items (the store's
        ``r:`` keys), then the postings.  The range overlay gets one batch
        of value postings.  ``put`` defaults to the routed
        ``DhtService.put``; snapshot restore passes ``DhtService.put_direct``.
        """
        hashed: Items = list(lead)
        ranged: Items = []
        stats = self.stats  # each key counted as its item is appended

        # (node, its parent element, that element's encoded posting and
        # the word and value keys already published for it) in document
        # order, with an explicit stack: a recursive closure would be a
        # reference cycle keeping both batches alive until the next full
        # garbage collection.  Each element is encoded once, and its tag,
        # word and value items share that one bytes object.
        stack: list[tuple[Node, Node, bytes, set[str]]] = [
            (doc.root, doc.root, b"", set())
        ]
        while stack:
            node, parent, parent_posting, parent_keys = stack.pop()
            if node.kind == TEXT:
                for word in split_words(node.name_or_value):
                    key = word_key(word)
                    if key in parent_keys:
                        continue
                    parent_keys.add(key)
                    hashed.append((key, parent_posting))
                    stats[key] = stats.get(key, 0) + 1
                value = parse_int_content(node.name_or_value)
                if value is not None:
                    key = value_key(parent.name, value)
                    if key not in parent_keys:
                        parent_keys.add(key)
                        ranged.append((key, parent_posting))
                        stats[key] = stats.get(key, 0) + 1
                continue
            posting = encode_posting(node.label)
            key = tag_key(node.name)
            hashed.append((key, posting))
            stats[key] = stats.get(key, 0) + 1
            if node.kind != ATTRIBUTE:
                keys: set[str] = set()
                stack += ((child, node, posting, keys)
                          for child in reversed(doc.children(node)))

        put = put or self.dht.put
        put(self.dht.hash, via, hashed)
        if ranged:
            put(self.dht.range, via, ranged)
        return len(hashed) - len(lead) + len(ranged)

    # -- lookups: distinct postings in label order ----------------------

    def lookup(self, key: str, via: PeerId) -> list[StructuralId]:
        """Postings under a hash-overlay key; ``"*"`` means ``lookup_all``."""
        if key == "*":
            return self.lookup_all(via)
        return _sorted_postings(self.dht.get(via, key))

    def lookup_among(
        self, key: str, via: PeerId, sids: Iterable[StructuralId]
    ) -> list[StructuralId]:
        """The postings under hash-overlay ``key`` that are also in ``sids``,
        distinct and in label order.

        ``sids`` are encoded and intersected with the stored raw records in
        C, and only the records kept are decoded: a word-predicated node
        reads its long list this way, with the short one as ``sids``.
        """
        wanted = set(starmap(_POSTING.pack, sids))
        kept = wanted.intersection(self.dht.get(via, key))
        return decode_postings(b"".join(sorted(kept)))

    def lookup_tag(self, tag: str, via: PeerId) -> list[StructuralId]:
        return self.lookup(tag_key(tag), via)

    def lookup_word(self, word: str, via: PeerId) -> list[StructuralId]:
        return self.lookup(word_key(word), via)

    def lookup_value_range(
        self, tag: str, lo: int, hi: int, via: PeerId
    ) -> list[StructuralId]:
        """Postings of ``tag`` elements (``"*"``: of every tag with value
        postings, ``value_tags``) with integer content in [lo, hi]; a range
        outside the window fetches nothing."""
        if value_bounds(tag, lo, hi) is None:
            return []
        tags = value_tags(self.stats) if tag == "*" else [tag]
        records: list[bytes] = []
        for t in tags:
            records += self.dht.get_range(via, *value_bounds(t, lo, hi))
        return _sorted_postings(records)

    def known_tags(self) -> list[str]:
        """The element and attribute names with postings, sorted: the tags
        ``"*"`` expands to."""
        return sorted(k[2:] for k in self.stats if k.startswith("t:"))

    def lookup_all(self, via: PeerId) -> list[StructuralId]:
        """Union of all tag posting lists (wildcard candidate source)."""
        records: list[bytes] = []
        for tag in self.known_tags():
            records += self.dht.get(via, tag_key(tag))
        return _sorted_postings(records)
