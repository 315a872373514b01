"""Publishing documents into the overlays and serving posting lookups.

A document's postings are ``Document.postings``, its one posting index,
which the centralized backend reads too; ``document`` defines its keys
(``t:<name>``, ``w:<word>``, ``v:<name>=<enc>``), whose prefixes keep
them disjoint.  No key names a resource: a p2p get reads the store's
``resources`` catalog and fetches from the document's home
(``Store.get_resource``).

Every p2p store runs two overlays: value keys live on the order-preserving
range overlay ``dht.range``, which alone answers interval lookups, and
every other key (the RDF store's triple keys too) on the hash overlay
``dht.hash``.

A posting is one structural id, its four fields in label field order as
fixed-width unsigned 64-bit big-endian integers: list sizes are
predictable for the planner's cost model, and byte order on encoded
postings is ``StructuralId`` order.
A publication puts each posting key's postings of one document as one
value, a run: the postings concatenated in label order, so sorted and
distinct.  Documents are published and restored in doc-id order, and a
key's values keep their put order, so a key's stored runs rise by doc id
and joined are the whole list in label order, which a lookup decodes in
one pass (``decode_postings``).  Any other list (several keys, or a
document published twice) is split into 32-byte records, which are
deduped and sorted in C.  A label is a tuple of its four fields, so it
packs as it is.

This module turns a plan leaf into index work: its estimated posting
count from the published counts (``key_count``, ``range_count``), and
its lookup, which returns distinct postings in label order.  A
word-predicated node's Intersect reads its stored list with
``lookup_among``, which decodes only the postings the other list holds.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import chain, starmap
from operator import itemgetter, lt
from typing import Iterable, Iterator

from .document import (
    Document,
    StructuralId,
    is_value_key,
    tag_key,
    tag_name,
    value_intervals,
    word_key,
)
from .overlay import DhtService, Items, PutFn
from .netsim import PeerId

POSTING_SIZE = 32

_POSTING = struct.Struct(">QQQQ")
_RECORD = struct.Struct(f"{POSTING_SIZE}s")


def encode_postings(sids: Iterable[StructuralId]) -> bytes:
    """The encodings of ``sids``, concatenated: their fields as big-endian
    64-bit words, converted in one C pass."""
    words = array("Q", chain.from_iterable(sids))
    if sys.byteorder == "little":
        words.byteswap()
    return words.tobytes()


def decode_postings(raw: bytes) -> list[StructuralId]:
    """Every posting of a concatenation of encoded postings, in order."""
    return list(starmap(StructuralId, _POSTING.iter_unpack(raw)))


def _records(runs: list[bytes]) -> Iterator[bytes]:
    """Every encoded posting of ``runs``, split in C."""
    return map(itemgetter(0), _RECORD.iter_unpack(b"".join(runs)))


def _sorted_postings(runs: list[bytes]) -> list[StructuralId]:
    """Distinct postings of ``runs``, in label order.

    Each run is sorted and distinct, so runs whose doc ids (their first 8
    bytes) strictly rise are decoded as they are joined; otherwise their
    records are deduped and sorted, and sorting the bytes sorts the labels.
    """
    docs = [run[:8] for run in runs]
    if all(map(lt, docs, docs[1:])):
        return decode_postings(b"".join(runs))
    return decode_postings(b"".join(sorted(set(_records(runs)))))


# -- estimates: counts over the published-postings dict ``IndexService.stats``


def key_count(stats: dict[str, int], key: str) -> int:
    """Postings published under ``key``; ``"*"`` counts every tag's."""
    if key == "*":
        return sum(c for k, c in stats.items() if tag_name(k) is not None)
    return stats.get(key, 0)


def range_count(stats: dict[str, int], tag: str, lo: int, hi: int) -> int:
    """Value postings of ``tag`` (``"*"``: any tag) with content in [lo, hi]."""
    return sum(c for lo_key, hi_key in value_intervals(tag, lo, hi, stats)
               for k, c in stats.items() if lo_key <= k < hi_key)


class IndexService:
    """Facade over the overlays for posting publication and lookups.

    ``stats`` shadows the number of postings published per key, feeding
    the planner's cost estimates and the tags a wildcard scans.
    """

    def __init__(self, dht: DhtService):
        self.dht = dht
        self.stats: dict[str, int] = {}

    # -- publication -----------------------------------------------------

    def index_document(self, doc: Document, via: PeerId, put: PutFn | None = None) -> int:
        """Publish ``doc.postings()`` from ``via``; returns the count published.

        Each key gets one item, the run of its postings in ``doc``, encoded
        once.  The hash overlay gets one batch of ``t:`` and ``w:`` runs,
        the range overlay one batch of ``v:`` runs.  Each batch keeps the
        keys' order in ``postings``; nothing is kept on ``doc``.  ``put``
        defaults to the routed ``DhtService.put``; snapshot restore passes
        ``DhtService.put_direct``.
        """
        postings = doc.postings()
        # every list encoded in one pass, then sliced into its run
        encoded = encode_postings(chain.from_iterable(postings.values()))
        hashed: Items = []
        ranged: Items = []
        published = 0
        for key, labels in postings.items():
            end = published + len(labels)
            run = encoded[POSTING_SIZE * published : POSTING_SIZE * end]
            (ranged if is_value_key(key) else hashed).append((key, run))
            self.stats[key] = self.stats.get(key, 0) + len(labels)
            published = end
        put = put or self.dht.put
        put(self.dht.hash, via, hashed)
        if ranged:
            put(self.dht.range, via, ranged)
        return published

    # -- lookups: distinct postings in label order ----------------------

    def lookup(self, key: str, via: PeerId) -> list[StructuralId]:
        """Postings under a hash-overlay key; ``"*"`` means ``lookup_all``.

        A key's stored runs, one per document in doc-id order, are decoded
        as they are joined (``_sorted_postings``)."""
        if key == "*":
            return self.lookup_all(via)
        return _sorted_postings(self.dht.get(via, key))

    def lookup_among(
        self, key: str, via: PeerId, sids: Iterable[StructuralId]
    ) -> list[StructuralId]:
        """The postings under hash-overlay ``key`` that are also in ``sids``,
        distinct and in label order.

        ``sids`` are encoded and intersected in C with the raw records
        split from the stored runs, and only the records kept are decoded:
        a word-predicated node reads its long list this way, with the
        short one as ``sids``.
        """
        wanted = set(starmap(_POSTING.pack, sids))
        kept = wanted.intersection(_records(self.dht.get(via, key)))
        return decode_postings(b"".join(sorted(kept)))

    def lookup_tag(self, tag: str, via: PeerId) -> list[StructuralId]:
        return self.lookup(tag_key(tag), via)

    def lookup_word(self, word: str, via: PeerId) -> list[StructuralId]:
        return self.lookup(word_key(word), via)

    def lookup_value_range(
        self, tag: str, lo: int, hi: int, via: PeerId
    ) -> list[StructuralId]:
        """Postings of ``tag`` elements (``"*"``: of every tag with value
        postings, one ``get_range`` per tag in name order) with integer
        content in [lo, hi]; a range outside the window fetches nothing."""
        runs: list[bytes] = []
        for bounds in value_intervals(tag, lo, hi, self.stats):
            runs += self.dht.get_range(via, *bounds)
        return _sorted_postings(runs)

    def known_tags(self) -> list[str]:
        """The element and attribute names with postings, sorted: the tags
        ``"*"`` expands to."""
        return sorted(name for name in map(tag_name, self.stats) if name is not None)

    def lookup_all(self, via: PeerId) -> list[StructuralId]:
        """Union of all tag posting lists (wildcard candidate source)."""
        runs: list[bytes] = []
        for tag in self.known_tags():
            runs += self.dht.get(via, tag_key(tag))
        return _sorted_postings(runs)
