"""The store's two key/value overlays over simulated peers.

Two overlay kinds share the per-peer surface (join, leave and one store
per member) and one routing question, ``route(peer, key)``: ``None`` when
``peer`` owns the key, else the peer it sends the key to.

* ``HashOverlay`` — a ring of peers ordered by a 64-bit position; a key
  lives on the first peer at or clockwise after its position.  Routing
  follows Chord (Stoica et al., SIGCOMM 2001): a peer that does not own a
  key hands it to its successor when the successor owns it, else to its
  closest finger before the key, where the fingers of the peer at ``p``
  are the owners of ``p + 2**i`` for i in 0..63.  One bisect of the
  peer's finger distances decides both whether it owns the key and, if
  not, the next hop.  Each hop is one simulated message, O(log peers) of
  them per key.
* ``RangeOverlay`` — an order-preserving partition of the keys into
  half-open intervals, one per peer, kept as one sorted list of boundary
  keys; a joining peer splits the widest interval at its midpoint.  Every
  peer knows the partition, so the next hop is the owner itself, which one
  bisect of the boundaries finds.  It alone answers ``get_range``,
  contacting exactly the peers whose intervals intersect the queried
  interval.

``DhtService`` owns one of each, ``dht.hash`` and ``dht.range``; a data
operation names the overlay object it works on.

Values under one key form a multiset; duplicates are preserved, in the
order they were put.  On join and leave both overlays hand keys over by
one rule, ``_rehome``: a key ``owner_of`` no longer places at its holder
moves to its owner (control plane); only data operations are accounted.

``DhtService.put`` publishes a batch of ``(key, value)`` items.  Each peer
on the way, the publisher included, stores the items it owns and sends the
rest on as one envelope per next hop, so on the hash overlay a batch
splits along the routing tree and on the range overlay the publisher sends
one envelope per owner.  All items one peer owns take the same path, so
each key keeps its value order.  A put envelope is the wire tag, an item
count and the items, each a key (``pack_str``) and a value
(``pack_bytes``).  Each peer decodes and routes each distinct key once per
envelope, the publisher encodes each once per batch, and a forwarding peer
decodes no value: it sends each item on as the byte span it arrived in,
and a batch that goes on whole to one hop as the received payload itself.
One put handler serves both overlays; the wire tag names the overlay, so
no envelope carries an overlay id.  ``DhtService.put_direct`` is the one
control-plane data operation: it stores the items on their owners without
sending a message, which is how snapshot restore rebuilds the overlays.
Item counts and key lengths take 2 bytes, or 6 from 0xFFFF up.

Each overlay serves the read its role needs: ``get`` reads one key from
the hash overlay, ``get_range`` one interval from the range overlay.

Wire tags: 0x01/0x04 put on the hash/range overlay, 0x02 get, 0x06 range
scan, 0x03 values.  Every read is a request answered by one values
envelope: a get, a scan and the batched subtree fetch that Recompose and
``Store.get_resource`` send.  A request is its wire tag, a 4-byte request
id and the 8-byte origin peer, then its body from ``REQUEST_BODY`` on: a
get's key, a scan's two bounds.
The answer is 0x03, the request id, then each value after its 4-byte
length, up to the end of the envelope.  ``DhtService`` alone writes and
reads these headers: ``request`` sends one request, ``gather`` sends one
to each of several peers and collects their answers after one drain, and
``reply`` answers a request with its values.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Callable

from .errors import (
    AlreadyMember,
    NoMembers,
    NotMember,
    TickBudgetExceeded,
    UnknownPeer,
)
from .netsim import Envelope, Network, PeerId

DEFAULT_TICK_BUDGET = 1_000_000

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def ring_hash(text: str) -> int:
    """Ring position of a key or peer name.

    FNV-1a plus one re-hash of the digest: short sequential names differ
    only in their last byte, which a single FNV pass leaves clustered in
    the high bits, and clustered positions would put every key on one peer.
    """
    first = fnv1a64(text.encode("utf-8"))
    return fnv1a64(struct.pack(">Q", first))


# wire tags
_HASH_PUT = 0x01
_HASH_GET = 0x02
_VALUES = 0x03
_RANGE_PUT = 0x04
_RANGE_SCAN = 0x06


def pack_str(text: str) -> bytes:
    """UTF-8 text after its byte length, which ``pack_count`` encodes."""
    raw = text.encode("utf-8")
    return pack_count(len(raw)) + raw


_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


def pack_bytes(raw: bytes) -> bytes:
    return _U32.pack(len(raw)) + raw


def pack_count(n: int) -> bytes:
    """A count or length: 2 bytes below 0xFFFF, else 0xFFFF and 4 more bytes."""
    if n < 0xFFFF:
        return struct.pack(">H", n)
    return struct.pack(">HI", 0xFFFF, n)


def unpack_count(buf: bytes, off: int) -> tuple[int, int]:
    (n,) = struct.unpack_from(">H", buf, off)
    if n < 0xFFFF:
        return n, off + 2
    (n,) = struct.unpack_from(">I", buf, off + 2)
    return n, off + 6


def unpack_str(buf: bytes, off: int) -> tuple[str, int]:
    n, off = unpack_count(buf, off)
    return buf[off : off + n].decode("utf-8"), off + n


def unpack_bytes(buf: bytes, off: int) -> tuple[bytes, int]:
    (n,) = struct.unpack_from(">I", buf, off)
    off += 4
    return bytes(buf[off : off + n]), off + n


Items = list[tuple[str, bytes]]


# one member's keys, each with its values in put order
PeerStore = dict[str, list[bytes]]


# a peer's position, its predecessor's clockwise distance, and its fingers'
# clockwise distances and ids, nearest first, self excluded
_FingerTable = tuple[int, int, list[int], list[PeerId]]


class HashOverlay:
    """Ring overlay with exact-key put/get and multi-value semantics.

    ``members`` maps each member to its store.  The ring is kept as
    ``(position, peer)`` pairs sorted by position, plus the bare positions
    for ``bisect``; a join inserts its pair and a leave removes it, then
    ``_rehome`` moves the keys.  Each peer's finger table, with its
    predecessor's clockwise distance, is built from the ring on the first
    hop it routes and dropped on a join or leave, so ``route`` answers
    ownership and next hop from one cached table.  Key positions are
    memoized, so a key is hashed once.
    """

    kind = "hash"
    put_tag = _HASH_PUT

    def __init__(self):
        self.members: dict[PeerId, PeerStore] = {}
        self._ring: list[tuple[int, PeerId]] = []
        self._positions: list[int] = []
        self._fingers: dict[PeerId, _FingerTable] = {}
        self._key_positions: dict[str, int] = {}

    def key_position(self, key: str) -> int:
        pos = self._key_positions.get(key)
        if pos is None:
            pos = self._key_positions[key] = ring_hash(key)
        return pos

    def peer_position(self, peer: PeerId) -> int:
        return ring_hash(str(peer))

    def _owner_entry(self, pos: int) -> tuple[int, PeerId]:
        i = bisect_left(self._positions, pos)
        return self._ring[i if i < len(self._ring) else 0]

    def owner_of(self, key: str) -> PeerId:
        if not self.members:
            raise NoMembers(f"the {self.kind} overlay has no members")
        return self._owner_entry(self.key_position(key))[1]

    def _ring_index(self, peer: PeerId) -> int:
        return next(i for i, (_, pid) in enumerate(self._ring) if pid == peer)

    def _finger_table(self, peer: PeerId) -> _FingerTable:
        i = self._ring_index(peer)
        pos = self._ring[i][0]
        dist: dict[PeerId, int] = {}
        for j in range(64):
            fpos, finger = self._owner_entry((pos + (1 << j)) & _MASK64)
            if finger != peer and finger not in dist:
                dist[finger] = (fpos - pos) & _MASK64
        table = sorted((d, finger) for finger, d in dist.items())
        pred_dist = (self._ring[i - 1][0] - pos) & _MASK64
        return pos, pred_dist, [d for d, _ in table], [finger for _, finger in table]

    def route(self, peer: PeerId, key: str) -> PeerId | None:
        """``None`` when ``peer`` owns ``key``, else where it sends the key:
        its successor when the successor owns the key, else its closest
        finger before the key.

        ``peer`` owns the keys at clockwise distance 0 or beyond its
        predecessor's; a lone member's predecessor is itself, at distance
        0, so it owns every key.
        """
        table = self._fingers.get(peer)
        if table is None:
            table = self._fingers[peer] = self._finger_table(peer)
        pos, pred_dist, dists, fingers = table
        d = (self.key_position(key) - pos) & _MASK64
        if d == 0 or d > pred_dist:
            return None
        i = bisect_left(dists, d)
        return fingers[i - 1 if i else 0]

    def join(self, peer: PeerId) -> None:
        if peer in self.members:
            raise AlreadyMember(f"peer {peer} already in the {self.kind} overlay")
        pos = self.peer_position(peer)
        i = bisect_left(self._positions, pos)
        if i < len(self._positions) and self._positions[i] == pos:
            raise ValueError(f"ring position collision for peer {peer}")
        self.members[peer] = {}
        self._ring.insert(i, (pos, peer))
        self._positions.insert(i, pos)
        self._fingers.clear()
        succ = self._ring[(i + 1) % len(self._ring)][1]  # the old owner
        _rehome(self, succ, self.members[succ])

    def leave(self, peer: PeerId) -> None:
        store = self.members.pop(peer, None)
        if store is None:
            raise NotMember(f"peer {peer} not in the {self.kind} overlay")
        i = self._ring_index(peer)
        del self._ring[i], self._positions[i]
        self._fingers.clear()
        if self.members:
            _rehome(self, peer, store)

    def local_values(self, peer: PeerId, key: str) -> list[bytes]:
        return list(self.members[peer].get(key, []))


class RangeOverlay:
    """Order-preserving partition with interval search support.

    Keys compare by ``sort_key``, their UTF-8 bytes.  ``bounds`` lists the
    boundary sort keys in ascending order and ``owners`` their members:
    ``owners[i]`` owns the keys from ``bounds[i]`` up to the next boundary,
    the last one every key above.  A joiner takes the upper half of the
    widest interval, the lowest on ties; a leaver's interval goes to its
    narrower list neighbour, the lower on ties; either then ``_rehome``s
    the keys.  A boundary reads as the base-256 fraction in [0, 1) its
    bytes spell, and a midpoint is written in the fewest bytes, so no
    boundary ends in a NUL and byte order agrees with that fraction order
    on every key.  ``members`` maps each member to its store.
    """

    kind = "range"
    put_tag = _RANGE_PUT

    def __init__(self):
        self.members: dict[PeerId, PeerStore] = {}
        self.bounds: list[bytes] = []
        self.owners: list[PeerId] = []

    @staticmethod
    def sort_key(key: str) -> bytes:
        return key.encode("utf-8")

    def owner_of(self, key: str) -> PeerId:
        if not self.owners:
            raise NoMembers(f"the {self.kind} overlay has no members")
        return self.owners[bisect_right(self.bounds, self.sort_key(key)) - 1]

    def route(self, peer: PeerId, key: str) -> PeerId | None:
        """``None`` when ``peer`` owns ``key``, else the owner: every peer
        knows the whole partition, so a request takes one hop."""
        owner = self.owner_of(key)
        return None if owner == peer else owner

    def intersecting(self, lo: str, hi: str) -> list[PeerId]:
        """The members whose intervals meet the keys in [lo, hi), in key
        order; none when ``hi`` is not above ``lo``."""
        klo, khi = self.sort_key(lo), self.sort_key(hi)
        if klo >= khi:
            return []
        first = bisect_right(self.bounds, klo) - 1
        return self.owners[first : bisect_left(self.bounds, khi)]

    def _ends(self) -> tuple[list[int], int]:
        """Every boundary, then the top, as integers on one scale, and the
        byte length of that scale: the boundaries' bytes padded with NULs
        to the longest."""
        size = max(map(len, self.bounds))
        ends = [int.from_bytes(b.ljust(size, b"\0"), "big") for b in self.bounds]
        return [*ends, 256**size], size

    def join(self, peer: PeerId) -> None:
        if peer in self.members:
            raise AlreadyMember(f"peer {peer} already in the {self.kind} overlay")
        self.members[peer] = {}
        if len(self.members) == 1:
            self.bounds, self.owners = [b""], [peer]
            return
        ends, size = self._ends()
        i = max(range(len(self.owners)), key=lambda j: ends[j + 1] - ends[j])
        twice = ends[i] + ends[i + 1]
        # half the sum at ``size`` bytes is 128 times it at one more
        mid = (twice * 128).to_bytes(size + 1, "big").rstrip(b"\0")
        self.bounds.insert(i + 1, mid)
        self.owners.insert(i + 1, peer)
        _rehome(self, self.owners[i], self.members[self.owners[i]])

    def leave(self, peer: PeerId) -> None:
        store = self.members.pop(peer, None)
        if store is None:
            raise NotMember(f"peer {peer} not in the {self.kind} overlay")
        i = self.owners.index(peer)
        ends, _ = self._ends()
        # the narrower neighbour takes the interval, the lower on ties: the
        # upper by moving down to the leaver's boundary, the lower by dropping it
        upper = i < len(self.owners) - 1 and (
            i == 0 or ends[i + 2] - ends[i + 1] < ends[i] - ends[i - 1]
        )
        del self.bounds[i + upper], self.owners[i]
        if self.members:
            _rehome(self, peer, store)

    def local_scan(self, peer: PeerId, lo: str, hi: str) -> list[bytes]:
        """The values ``peer`` holds under keys in [lo, hi), in key order,
        each key's values in put order."""
        store = self.members[peer]
        klo, khi = self.sort_key(lo), self.sort_key(hi)
        keys = [k for k in store if klo <= self.sort_key(k) < khi]
        return [v for k in sorted(keys, key=self.sort_key) for v in store[k]]


Overlay = HashOverlay | RangeOverlay


def _rehome(ov: Overlay, peer: PeerId, store: PeerStore) -> None:
    """Move each key of ``store`` that ``ov.owner_of`` no longer places at
    ``peer`` to its owner, its values in order: a join passes the old
    owner's store, a leave the leaver's."""
    for key in list(store):
        owner = ov.owner_of(key)
        if owner != peer:
            ov.members[owner].setdefault(key, []).extend(store.pop(key))


# ``DhtService.put`` or ``DhtService.put_direct``: (overlay, via, items)
PutFn = Callable[[Overlay, PeerId, Items], None]
Handler = Callable[[Network, Envelope], None]

# a request's header after its wire tag: the request id and the origin peer
_HEAD = struct.Struct(">IQ")
REQUEST_BODY = 1 + _HEAD.size


class DhtService:
    """Per-peer endpoint surface for the store's hash overlay ``hash`` and
    range overlay ``range``.

    All overlay logic runs inside the network's event loop; each public
    operation injects the initial request and drains the loop (``drain``),
    so calls never overlap a simulation step.  Every peer dispatches by
    wire tag through one table, which binds each put tag to its overlay
    and to which the plan executor adds its own tags.  Every read, the
    executor's included, goes out through ``request`` or ``gather`` and is
    answered through ``reply`` with a values envelope.  Tests pass a hash
    overlay of their own to place peers by hand and set ``tick_budget`` to
    cut a drain short.
    """

    def __init__(self, net: Network, hash: HashOverlay | None = None):
        self.net = net
        self.tick_budget = DEFAULT_TICK_BUDGET
        self.hash = hash or HashOverlay()
        self.range = RangeOverlay()
        self._handlers: dict[int, Handler] = {
            _HASH_PUT: partial(self._on_put, self.hash),
            _RANGE_PUT: partial(self._on_put, self.range),
            _HASH_GET: self._on_get,
            _RANGE_SCAN: self._on_scan,
            _VALUES: self._on_values,
        }
        self._responses: dict[int, bytes] = {}
        self._next_req = 0

    # -- peer and overlay lifecycle -------------------------------------

    def add_peer(self, peer: PeerId) -> None:
        self.net.spawn_peer(peer, self._dispatch)

    def register_handler(self, tag: int, fn: Handler) -> None:
        if tag in self._handlers:
            raise ValueError(f"wire tag {tag:#x} already has a handler")
        self._handlers[tag] = fn

    def join(self, ov: Overlay, peer: PeerId) -> None:
        if peer not in self.net.peers:
            raise UnknownPeer(f"peer {peer} does not exist")
        ov.join(peer)

    def leave(self, ov: Overlay, peer: PeerId) -> None:
        ov.leave(peer)

    # -- data operations -------------------------------------------------

    def put(self, ov: Overlay, via: PeerId, items: Items) -> None:
        """Publish ``items`` from ``via``, then drain the simulator once.

        Each distinct key is routed, and encoded if it goes on, once.
        """
        self._check_member(ov, via)
        store, route = ov.members[via], ov.route
        groups: dict[PeerId, list[bytes]] = {}
        # per distinct key: the list its values go to, and the key's
        # encoding when that list holds a next hop's items, else None
        dests: dict[str, tuple[list[bytes], bytes | None]] = {}
        for key, value in items:
            dest = dests.get(key)
            if dest is None:
                hop = route(via, key)
                if hop is None:
                    dest = dests[key] = (store.setdefault(key, []), None)
                else:
                    dest = dests[key] = (groups.setdefault(hop, []), pack_str(key))
            spans, packed = dest
            spans.append(value if packed is None else packed + pack_bytes(value))
        if groups:
            self._send_put_groups(via, bytes([ov.put_tag]), groups)
            self.drain()

    def put_direct(self, ov: Overlay, via: PeerId, items: Items) -> None:
        """Control-plane put: store each item on its key's owner at once.

        The outcome equals ``put``'s (same owners, same key and value
        order), but no envelope is sent and the stats do not move.
        Snapshot restore uses it to rebuild the overlays without replaying
        their traffic.
        """
        self._check_member(ov, via)
        members, owner_of = ov.members, ov.owner_of
        for key, value in items:
            members[owner_of(key)].setdefault(key, []).append(value)

    def get(self, via: PeerId, key: str) -> list[bytes]:
        """The values of the hash overlay under ``key``, in put order."""
        ov = self.hash
        self._check_member(ov, via)
        hop = ov.route(via, key)
        if hop is None:
            return ov.local_values(via, key)
        req = self.request(via, hop, _HASH_GET, pack_str(key))
        self.drain()
        return self._take_values(req)

    def get_range(self, via: PeerId, lo: str, hi: str) -> list[bytes]:
        """The values of the range overlay with ``lo <= key < hi``, in key
        order, each key's values in put order.

        The intersecting peers' intervals are disjoint and taken in key
        order, so their scans, each in key order, are concatenated as is.
        """
        ov = self.range
        self._check_member(ov, via)
        peers = ov.intersecting(lo, hi)
        bounds = pack_str(lo) + pack_str(hi)
        answers = self.gather(
            via, _RANGE_SCAN, {pid: bounds for pid in peers if pid != via}
        )
        values: list[bytes] = []
        for pid in peers:
            values += ov.local_scan(via, lo, hi) if pid == via else answers[pid]
        return values

    # -- requests and responses ------------------------------------------

    def drain(self) -> None:
        """Deliver every queued envelope within ``tick_budget`` ticks.

        When the budget runs out, the operation that sent them is abandoned:
        its envelopes still queued and the responses already filed are
        dropped, so the next operation neither delivers them nor pays for
        them, and the ``TickBudgetExceeded`` propagates.
        """
        try:
            self.net.run_until_quiescent(self.tick_budget)
        except TickBudgetExceeded:
            self.net.drop_pending()
            self._responses.clear()
            raise

    def request(self, via: PeerId, to: PeerId, tag: int, body: bytes) -> int:
        """Send request ``tag`` with ``body`` from ``via`` to ``to`` and
        return its fresh id, which the answer carries back."""
        self._next_req += 1
        req = self._next_req
        self.net.send(via, to, bytes([tag]) + _HEAD.pack(req, via) + body)
        return req

    def gather(
        self, via: PeerId, tag: int, bodies: dict[PeerId, bytes]
    ) -> dict[PeerId, list[bytes]]:
        """Send request ``tag`` from ``via`` to each peer of ``bodies``, in
        its order, with that peer's body, drain once, and return each
        peer's answer."""
        reqs = {to: self.request(via, to, tag, body) for to, body in bodies.items()}
        if reqs:
            self.drain()
        return {to: self._take_values(req) for to, req in reqs.items()}

    def reply(self, env: Envelope, values: list[bytes]) -> None:
        """Answer the request ``env`` with ``values``: one values envelope
        from its recipient to its origin."""
        req, origin = _HEAD.unpack_from(env.payload, 1)
        answer = bytes([_VALUES]) + _U32.pack(req) + b"".join(map(pack_bytes, values))
        self.net.send(env.to_peer, origin, answer)

    def _take_values(self, req: int) -> list[bytes]:
        """The values of the envelope that answered ``req``, in order."""
        payload = self._responses.pop(req, None)
        if payload is None:
            raise RuntimeError(f"request {req} produced no response")
        values, off = [], 5  # past the tag and the request id
        while off < len(payload):
            value, off = unpack_bytes(payload, off)
            values.append(value)
        return values

    # -- plumbing ----------------------------------------------------------

    def _check_member(self, ov: Overlay, via: PeerId) -> None:
        if not ov.members:
            raise NoMembers(f"the {ov.kind} overlay has no members")
        if via not in ov.members:
            raise NotMember(f"peer {via} is not a member of the {ov.kind} overlay")

    def _send_put_groups(
        self, me: PeerId, tag: bytes, groups: dict[PeerId, list[bytes]]
    ) -> None:
        """One put envelope per next hop: the wire ``tag``, the item count,
        then the hop's encoded items."""
        for hop, spans in groups.items():
            self.net.send(me, hop, tag + pack_count(len(spans)) + b"".join(spans))

    def _dispatch(self, net: Network, env: Envelope) -> None:
        handler = self._handlers.get(env.payload[0])
        if handler is None:
            raise ValueError(f"unknown wire tag {env.payload[0]:#x}")
        handler(net, env)

    def _on_put(self, ov: Overlay, net: Network, env: Envelope) -> None:
        """Store the items of a put envelope that this peer owns and send
        the rest on, one envelope per next hop.

        Each distinct key is decoded and routed once per envelope: items
        are matched to their key's destination by the key's raw bytes.  No
        value is decoded: a forwarded item is its byte span in the payload,
        and a batch that goes on whole to one hop is sent as the payload
        itself.  A range put reaches the owner of all its items, so nothing
        goes on.
        """
        payload, me = env.payload, env.to_peer
        store, route = ov.members[me], ov.route
        count, off = unpack_count(payload, 1)
        groups: dict[PeerId, list[bytes]] = {}
        # per distinct raw key: whether this peer owns it, and the list its
        # values (owned) or its items' spans (sent on) go to
        dests: dict[bytes, tuple[bool, list[bytes]]] = {}
        owned = False
        for _ in range(count):
            start = off
            # the key's length, as ``unpack_count`` reads it
            (n,) = _U16.unpack_from(payload, off)
            if n < 0xFFFF:
                off += 2
            else:
                (n,) = _U32.unpack_from(payload, off + 2)
                off += 6
            raw = payload[off : off + n]
            (size,) = _U32.unpack_from(payload, off + n)
            off += n + 4 + size
            dest = dests.get(raw)
            if dest is None:
                key = raw.decode("utf-8")
                hop = route(me, key)
                if hop is None:
                    owned = True
                    dest = dests[raw] = (True, store.setdefault(key, []))
                else:
                    dest = dests[raw] = (False, groups.setdefault(hop, []))
            mine, spans = dest
            spans.append(payload[off - size : off] if mine else payload[start:off])
        if len(groups) == 1 and not owned:
            net.send(me, next(iter(groups)), payload)
        else:
            self._send_put_groups(me, payload[:1], groups)

    def _on_get(self, net: Network, env: Envelope) -> None:
        """Answer a get this peer owns the key of, else send it on."""
        me = env.to_peer
        key, _ = unpack_str(env.payload, REQUEST_BODY)
        hop = self.hash.route(me, key)
        if hop is None:
            self.reply(env, self.hash.local_values(me, key))
        else:
            net.send(me, hop, env.payload)

    def _on_scan(self, net: Network, env: Envelope) -> None:
        lo, off = unpack_str(env.payload, REQUEST_BODY)
        hi, _ = unpack_str(env.payload, off)
        self.reply(env, self.range.local_scan(env.to_peer, lo, hi))

    def _on_values(self, net: Network, env: Envelope) -> None:
        (req,) = _U32.unpack_from(env.payload, 1)
        self._responses[req] = env.payload
