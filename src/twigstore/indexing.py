"""Publishing documents into the overlays and serving posting lookups.

Index keys are prefix-disjoint by construction:

* ``t:<name>``  — one posting per element/attribute node with that name
* ``w:<word>``  — one posting per element with the word among its terms
* ``v:<tag>=<enc>`` — one posting per element named ``tag`` with the
  integer encoded by ``enc`` among its terms
* ``r:<resource id>`` — the store's resource index: the peer holding it

A node's terms are ``Document.terms``: the distinct words and integers of
its text children, the one rule by which the centralized backend's word
and value postings are built too.

Every p2p store runs two overlays: value keys live on the order-preserving
range overlay ``dht.range``, which alone answers interval lookups, and
every other key (the RDF store's triple keys too) on the hash overlay
``dht.hash``.

A posting is one structural id, serialized fixed-width (4 x 64-bit,
big-endian) so list sizes are predictable for the planner's cost model.
Integer values are encoded as offset 20-digit decimals, which preserves
order under byte-wise comparison; ``Document.terms`` holds no integer
outside the +-10^18 window this encoding covers, and ``value_bounds``
clips a query range to it.

The four fields are fixed-width unsigned big-endian integers in label
field order, so byte order on encoded postings is ``StructuralId`` order.
A publication puts each posting key's postings of one document as one
value, a run: the postings concatenated in label order, so sorted and
distinct.  Documents are published and restored in doc-id order, and a
key's values keep their put order, so a key's stored runs rise by doc id
and joined are the whole list in label order, which a lookup decodes in
one pass (``decode_postings``).  Any other list (several keys, or a
document published twice) is split into 32-byte records, which are
deduped and sorted in C.  A label is a tuple of its four fields, so it
packs as it is.

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
from operator import itemgetter, lt
from typing import Iterable, Iterator

from .document import INT_WINDOW, TEXT, Document, StructuralId
from .overlay import DhtService, Items, PutFn
from .netsim import PeerId

POSTING_SIZE = 32

_INT_OFFSET = 10**19
_POSTING = struct.Struct(">QQQQ")
_RECORD = struct.Struct(f"{POSTING_SIZE}s")


def encode_posting(sid: StructuralId) -> bytes:
    return _POSTING.pack(*sid)


def encode_postings(sids: Iterable[StructuralId]) -> bytes:
    """The encodings of ``sids``, concatenated."""
    return b"".join(starmap(_POSTING.pack, sids))


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


def _run_items(runs: dict[str, list[bytes]], stats: dict[str, int]) -> Items:
    """One item per key: its postings, in label order, joined into a run;
    ``stats`` counts the postings."""
    items = []
    for key, postings in runs.items():
        stats[key] = stats.get(key, 0) + len(postings)
        items.append((key, b"".join(postings)))
    return items


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

        Each ``t:``, ``w:`` and ``v:`` key gets one item, the run of its
        postings in ``doc``, grouped by key during one pass over
        ``doc.nodes``.  Each element and attribute is published under its
        ``t:`` key, then a ``w:`` key per word and a ``v:`` key per value
        of ``doc.terms``, the rule the centralized backend reads too.
        ``nodes`` is in label order, so every run is, mixed content
        (``<a><b>foo</b>foo</a>``) included.  The hash overlay gets one
        batch: the ``lead`` items (the store's ``r:`` keys), then the runs.
        The range overlay gets one batch of value runs.  ``put`` defaults
        to the routed ``DhtService.put``; snapshot restore passes
        ``DhtService.put_direct``.
        """
        # per key, its postings in ``doc``
        hashed: dict[str, list[bytes]] = {}
        ranged: dict[str, list[bytes]] = {}
        for node in doc.nodes:
            if node.kind == TEXT:
                continue
            # encoded once; its tag, word and value postings share the bytes
            posting = encode_posting(node.label)
            hashed.setdefault(tag_key(node.name), []).append(posting)
            words, values = doc.terms(node)
            for word in words:
                hashed.setdefault(word_key(word), []).append(posting)
            for value in values:
                ranged.setdefault(value_key(node.name, value), []).append(posting)

        published = sum(map(len, [*hashed.values(), *ranged.values()]))
        put = put or self.dht.put
        put(self.dht.hash, via, [*lead, *_run_items(hashed, self.stats)])
        if ranged:
            put(self.dht.range, via, _run_items(ranged, self.stats))
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
        postings, ``value_tags``) with integer content in [lo, hi]; a range
        outside the window fetches nothing."""
        if value_bounds(tag, lo, hi) is None:
            return []
        tags = value_tags(self.stats) if tag == "*" else [tag]
        runs: list[bytes] = []
        for t in tags:
            runs += self.dht.get_range(via, *value_bounds(t, lo, hi))
        return _sorted_postings(runs)

    def known_tags(self) -> list[str]:
        """The element and attribute names with postings, sorted: the tags
        ``"*"`` expands to."""
        return sorted(k[2:] for k in self.stats if k.startswith("t:"))

    def lookup_all(self, via: PeerId) -> list[StructuralId]:
        """Union of all tag posting lists (wildcard candidate source)."""
        runs: list[bytes] = []
        for tag in self.known_tags():
            runs += self.dht.get(via, tag_key(tag))
        return _sorted_postings(runs)
