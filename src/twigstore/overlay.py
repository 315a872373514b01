"""The store's two key/value overlays over simulated peers.

Two overlay kinds share the per-peer surface (join, leave, store_value)
and one routing question, ``route(peer, key)``: ``None`` when ``peer``
owns the key, else the peer it sends the key to.

* ``HashOverlay`` — a ring of peers ordered by a 64-bit position; a key
  lives on the first peer at or clockwise after its position.  Routing
  follows Chord (Stoica et al., SIGCOMM 2001): a peer that does not own a
  key hands it to its successor when the successor owns it, else to its
  closest finger before the key, where the fingers of the peer at ``p``
  are the owners of ``p + 2**i`` for i in 0..63.  One bisect of the
  peer's finger distances decides both whether it owns the key and, if
  not, the next hop.  Each hop is one simulated message, O(log peers) of
  them per key.
* ``RangeOverlay`` — an order-preserving partition of the key domain into
  half-open intervals, one per peer, split at the midpoint on join.  Every
  peer knows the partition, so the next hop is the owner itself.  It
  alone answers ``get_range``, contacting exactly the peers whose
  intervals intersect the queried interval.

``DhtService`` owns one of each, ``dht.hash`` and ``dht.range``; a data
operation names the overlay object it works on.

Values under one key form a multiset; duplicates are preserved, in the
order they were put.  Keys are handed over synchronously on join/leave
(control plane); only data operations generate accounted traffic.

``DhtService.put`` publishes a batch of ``(key, value)`` items.  Each peer
on the way, the publisher included, stores the items it owns and sends the
rest on as one envelope per next hop, so on the hash overlay a batch
splits along the routing tree and on the range overlay the publisher sends
one envelope per owner.  All items one peer owns take the same path, so
each key keeps its value order.  A put envelope is the wire tag, an item
count and the items, each a key (``pack_str``) and a value
(``pack_bytes``).  A forwarding peer decodes only the keys: it sends each
item on as the byte span it arrived in, and a batch that goes on whole to
one hop as the received payload itself.  One put handler serves both
overlays; the wire tag names the overlay, so no envelope carries an
overlay id.  ``DhtService.put_direct`` is the one control-plane data
operation: it stores the items on their owners without sending a message,
which is how snapshot restore rebuilds the overlays.  Item counts and key
lengths take 2 bytes, or 6 from 0xFFFF up.

Each overlay serves the read its role needs: ``get`` reads one key from
the hash overlay, ``get_range`` one interval from the range overlay.

Wire tags: 0x01/0x04 put on the hash/range overlay, 0x02 get, 0x06 range
scan, 0x03 values.  A get is the tag, the request id, the origin peer and
the key; a scan is the tag, the request id, the origin peer and the two
bounds.  Every request that expects an answer (get, scan, the plan
executor's batched subtree fetch) takes its id from
``DhtService.new_request`` and is answered by one values envelope
(``values_response``): 0x03, the request id, then each value after its
4-byte length, up to the end of the envelope.  ``DhtService.take_values``
decodes it.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
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


def pack_bytes(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


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


@dataclass
class RingState:
    position: int
    successor: PeerId
    predecessor: PeerId
    store: dict[str, list[bytes]] = field(default_factory=dict)


@dataclass
class RangeState:
    lo: Fraction
    hi: Fraction
    store: dict[str, list[bytes]] = field(default_factory=dict)


# a peer's position, its predecessor's clockwise distance, and its fingers'
# clockwise distances and ids, nearest first, self excluded
_FingerTable = tuple[int, int, list[int], list[PeerId]]


class HashOverlay:
    """Ring overlay with exact-key put/get and multi-value semantics.

    The ring is kept as ``(position, peer)`` pairs sorted by position, plus
    the bare positions for ``bisect``; both are rebuilt only when the
    membership changes.  Each peer's finger table, with its predecessor's
    clockwise distance, is built from the sorted ring on the first hop it
    routes and dropped with the ring, so ``route`` answers ownership and
    next hop from one cached table.  Key positions are memoized, so
    routing a key hop by hop hashes it once.
    """

    kind = "hash"
    put_tag = _HASH_PUT

    def __init__(self, mode: str = "fnv"):
        if mode not in ("fnv", "decimal"):
            raise ValueError(f"unknown hash mode {mode!r}")
        self.mode = mode
        self.members: dict[PeerId, RingState] = {}
        self._ring: list[tuple[int, PeerId]] = []
        self._positions: list[int] = []
        self._fingers: dict[PeerId, _FingerTable] = {}
        self._key_positions: dict[str, int] = {}

    def key_position(self, key: str) -> int:
        pos = self._key_positions.get(key)
        if pos is None:
            pos = int(key) if self.mode == "decimal" else ring_hash(key)
            self._key_positions[key] = pos
        return pos

    def peer_position(self, peer: PeerId) -> int:
        if self.mode == "decimal":
            return peer
        return ring_hash(str(peer))

    def _rebuild_ring(self) -> None:
        self._ring = sorted((st.position, pid) for pid, st in self.members.items())
        self._positions = [pos for pos, _ in self._ring]
        self._fingers.clear()

    def owner_of_position(self, pos: int) -> PeerId:
        if not self.members:
            raise NoMembers(f"the {self.kind} overlay has no members")
        i = bisect_left(self._positions, pos)
        return self._ring[i if i < len(self._ring) else 0][1]

    def owner_of(self, key: str) -> PeerId:
        return self.owner_of_position(self.key_position(key))

    def _finger_table(self, peer: PeerId) -> _FingerTable:
        pos = self.members[peer].position
        dist: dict[PeerId, int] = {}
        for i in range(64):
            finger = self.owner_of_position((pos + (1 << i)) & _MASK64)
            if finger != peer and finger not in dist:
                dist[finger] = (self.members[finger].position - pos) & _MASK64
        table = sorted((d, finger) for finger, d in dist.items())
        pred_dist = (self.members[self.members[peer].predecessor].position - pos) & _MASK64
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

    @staticmethod
    def _in_arc(pos: int, lo_excl: int, hi_incl: int) -> bool:
        if lo_excl < hi_incl:
            return lo_excl < pos <= hi_incl
        return pos > lo_excl or pos <= hi_incl

    def join(self, peer: PeerId) -> None:
        if peer in self.members:
            raise AlreadyMember(f"peer {peer} already in the {self.kind} overlay")
        pos = self.peer_position(peer)
        i = bisect_left(self._positions, pos)
        if i < len(self._positions) and self._positions[i] == pos:
            raise ValueError(f"ring position collision for peer {peer}")
        if not self.members:
            self.members[peer] = RingState(pos, peer, peer)
            self._rebuild_ring()
            return
        succ = self.owner_of_position(pos)
        succ_state = self.members[succ]
        pred = succ_state.predecessor
        self.members[peer] = RingState(pos, succ, pred)
        self.members[pred].successor = peer
        succ_state.predecessor = peer
        self._rebuild_ring()
        # hand over the arc (pred, pos] from the old owner
        moved = [
            k for k in succ_state.store
            if self._in_arc(self.key_position(k), self.members[pred].position, pos)
        ]
        mine = self.members[peer].store
        for k in moved:
            mine[k] = succ_state.store.pop(k)

    def leave(self, peer: PeerId) -> None:
        st = self.members.get(peer)
        if st is None:
            raise NotMember(f"peer {peer} not in the {self.kind} overlay")
        if st.successor == peer:  # last member
            del self.members[peer]
            self._rebuild_ring()
            return
        succ_state = self.members[st.successor]
        for k, values in st.store.items():
            succ_state.store.setdefault(k, []).extend(values)
        self.members[st.predecessor].successor = st.successor
        succ_state.predecessor = st.predecessor
        del self.members[peer]
        self._rebuild_ring()

    def local_values(self, peer: PeerId, key: str) -> list[bytes]:
        return list(self.members[peer].store.get(key, []))

    def store_value(self, peer: PeerId, key: str, value: bytes) -> None:
        self.members[peer].store.setdefault(key, []).append(value)


class RangeOverlay:
    """Order-preserving partition with interval search support.

    Keys are mapped to points on an ordered domain: ``decimal`` mode reads
    the key text as an integer (readable tests); ``bytes`` mode maps UTF-8
    key bytes to a base-256 fraction in [0, 1), which preserves
    lexicographic order for NUL-free keys.  Each member owns one half-open
    interval of the domain; the widest interval is split at its midpoint
    when a peer joins.
    """

    kind = "range"
    put_tag = _RANGE_PUT

    def __init__(
        self, mode: str = "bytes", domain: tuple[Fraction, Fraction] | None = None
    ):
        if mode not in ("bytes", "decimal"):
            raise ValueError(f"unknown range mode {mode!r}")
        self.mode = mode
        if domain is None:
            domain = (Fraction(0), Fraction(1))
        self.domain = domain
        self.members: dict[PeerId, RangeState] = {}
        self.last_contacted: tuple[PeerId, ...] = ()

    def point(self, key: str) -> Fraction:
        if self.mode == "decimal":
            return Fraction(int(key))
        raw = key.encode("utf-8")
        num = int.from_bytes(raw, "big") if raw else 0
        return Fraction(num, 256 ** len(raw)) if raw else Fraction(0)

    def key_lt(self, a: str, b: str) -> bool:
        if self.mode == "decimal":
            return int(a) < int(b)
        return a.encode("utf-8") < b.encode("utf-8")

    def key_le(self, a: str, b: str) -> bool:
        return not self.key_lt(b, a)

    def owner_of_point(self, p: Fraction) -> PeerId:
        if not self.members:
            raise NoMembers(f"the {self.kind} overlay has no members")
        for pid, st in self.members.items():
            if st.lo <= p < st.hi:
                return pid
        raise ValueError(f"point {p} outside domain {self.domain}")

    def owner_of(self, key: str) -> PeerId:
        return self.owner_of_point(self.point(key))

    def route(self, peer: PeerId, key: str) -> PeerId | None:
        """``None`` when ``peer`` owns ``key``, else the owner: every peer
        knows the whole partition, so a request takes one hop."""
        owner = self.owner_of(key)
        return None if owner == peer else owner

    def join(self, peer: PeerId) -> None:
        if peer in self.members:
            raise AlreadyMember(f"peer {peer} already in the {self.kind} overlay")
        if not self.members:
            self.members[peer] = RangeState(self.domain[0], self.domain[1])
            return
        widest = min(
            self.members.items(), key=lambda kv: (-(kv[1].hi - kv[1].lo), kv[1].lo)
        )[1]
        mid = (widest.lo + widest.hi) / 2
        new_state = RangeState(mid, widest.hi)
        widest.hi = mid
        moved = [k for k in widest.store if self.point(k) >= mid]
        for k in moved:
            new_state.store[k] = widest.store.pop(k)
        self.members[peer] = new_state

    def _neighbors(self, st: RangeState) -> list[tuple[PeerId, RangeState]]:
        out = []
        for pid, other in self.members.items():
            if other.hi == st.lo or other.lo == st.hi:
                out.append((pid, other))
        return out

    def leave(self, peer: PeerId) -> None:
        st = self.members.get(peer)
        if st is None:
            raise NotMember(f"peer {peer} not in the {self.kind} overlay")
        if len(self.members) == 1:
            del self.members[peer]
            return
        neighbors = [
            (other.hi - other.lo, other.lo, pid, other)
            for pid, other in self._neighbors(st)
        ]
        neighbors.sort(key=lambda t: (t[0], t[1]))
        _, _, _, absorber = neighbors[0]
        if absorber.hi == st.lo:
            absorber.hi = st.hi
        else:
            absorber.lo = st.lo
        for k, values in st.store.items():
            absorber.store.setdefault(k, []).extend(values)
        del self.members[peer]

    def intersecting(self, plo: Fraction, phi: Fraction) -> list[PeerId]:
        hits = [
            (st.lo, pid)
            for pid, st in self.members.items()
            if st.hi > plo and st.lo < phi
        ]
        return [pid for _, pid in sorted(hits)]

    def store_value(self, peer: PeerId, key: str, value: bytes) -> None:
        self.members[peer].store.setdefault(key, []).append(value)

    def local_scan(self, peer: PeerId, lo: str, hi: str) -> list[bytes]:
        """The values ``peer`` holds under keys in [lo, hi), in key order,
        each key's values in put order."""
        store = self.members[peer].store
        keys = [k for k in store if self.key_le(lo, k) and self.key_lt(k, hi)]
        return [v for k in sorted(keys, key=self._sort_key) for v in store[k]]

    def _sort_key(self, key: str):
        return int(key) if self.mode == "decimal" else key.encode("utf-8")


Overlay = HashOverlay | RangeOverlay
# ``DhtService.put`` or ``DhtService.put_direct``: (overlay, via, items)
PutFn = Callable[[Overlay, PeerId, Items], None]
Handler = Callable[[Network, Envelope], None]

# a get or scan request is its wire tag, the request id, the origin peer,
# then the key or the two bounds
_REQUEST_BODY = 13


def values_response(req: int, values: list[bytes]) -> bytes:
    """The answer to request ``req``: 0x03, the request id, then each value
    after its 4-byte length; the envelope's end ends the values."""
    head = bytes([_VALUES]) + struct.pack(">I", req)
    return head + b"".join(map(pack_bytes, values))


class DhtService:
    """Per-peer endpoint surface for the store's hash overlay ``hash`` and
    range overlay ``range``.

    All overlay logic runs inside the network's event loop; each public
    operation injects the initial request and drains the loop (``drain``),
    so calls never overlap a simulation step.  Every peer dispatches by
    wire tag through one table, which binds each put tag to its overlay
    and to which the plan executor adds its own tags; every answer, the
    executor's included, arrives as a values envelope.  Tests pass their
    own overlays to place peers by hand (``decimal`` modes) and set
    ``tick_budget`` to cut a drain short.
    """

    def __init__(
        self,
        net: Network,
        hash: HashOverlay | None = None,
        range: RangeOverlay | None = None,
    ):
        self.net = net
        self.tick_budget = DEFAULT_TICK_BUDGET
        self.hash = hash or HashOverlay()
        self.range = range or RangeOverlay()
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
        """Publish ``items`` from ``via``, then drain the simulator once."""
        self._check_member(ov, via)
        groups: dict[PeerId, list[bytes]] = {}
        for key, value in items:
            hop = ov.route(via, key)
            if hop is None:
                ov.store_value(via, key, value)
            else:
                groups.setdefault(hop, []).append(pack_str(key) + pack_bytes(value))
        if groups:
            self._send_put_groups(via, bytes([ov.put_tag]), groups)
            self.drain()

    def put_direct(self, ov: Overlay, via: PeerId, items: Items) -> None:
        """Control-plane put: store each item on its key's owner at once.

        The outcome equals ``put``'s (same owners, same value order), but no
        envelope is sent and the stats do not move.  Snapshot restore uses
        it to rebuild the overlays without replaying their traffic.
        """
        self._check_member(ov, via)
        for key, value in items:
            ov.store_value(ov.owner_of(key), key, value)

    def get(self, via: PeerId, key: str) -> list[bytes]:
        """The values of the hash overlay under ``key``, in put order."""
        ov = self.hash
        self._check_member(ov, via)
        hop = ov.route(via, key)
        if hop is None:
            return ov.local_values(via, key)
        req = self.new_request()
        payload = bytes([_HASH_GET]) + struct.pack(">IQ", req, via) + pack_str(key)
        self.net.send(via, hop, payload)
        self.drain()
        return self.take_values(req)

    def get_range(self, via: PeerId, lo: str, hi: str) -> list[bytes]:
        """The values of the range overlay with ``lo <= key < hi``, in key
        order, each key's values in put order.

        The intersecting peers' intervals are disjoint and taken in domain
        order, so their scans, each in key order, are concatenated as is.
        """
        ov = self.range
        self._check_member(ov, via)
        if not ov.key_lt(lo, hi):
            ov.last_contacted = ()
            return []
        peers = ov.intersecting(ov.point(lo), ov.point(hi))
        ov.last_contacted = tuple(peers)
        reqs: dict[PeerId, int] = {}
        for pid in peers:
            if pid == via:
                continue
            reqs[pid] = req = self.new_request()
            payload = (
                bytes([_RANGE_SCAN])
                + struct.pack(">IQ", req, via)
                + pack_str(lo)
                + pack_str(hi)
            )
            self.net.send(via, pid, payload)
        if reqs:
            self.drain()
        values: list[bytes] = []
        for pid in peers:
            if pid == via:
                values += ov.local_scan(via, lo, hi)
            else:
                values += self.take_values(reqs[pid])
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

    def new_request(self) -> int:
        """A fresh request id; its response carries it back."""
        self._next_req += 1
        return self._next_req

    def take_values(self, req: int) -> list[bytes]:
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

        Only keys are decoded: a forwarded item is its byte span in the
        payload, and a batch that goes on whole to one hop is sent as the
        payload itself.  A range put reaches the owner of all its items,
        so nothing goes on.
        """
        payload, me = env.payload, env.to_peer
        count, off = unpack_count(payload, 1)
        groups: dict[PeerId, list[bytes]] = {}
        owned = False
        for _ in range(count):
            start = off
            key, off = unpack_str(payload, off)
            (size,) = struct.unpack_from(">I", payload, off)
            off += 4 + size
            hop = ov.route(me, key)
            if hop is None:
                ov.store_value(me, key, payload[off - size : off])
                owned = True
            else:
                groups.setdefault(hop, []).append(payload[start:off])
        if len(groups) == 1 and not owned:
            net.send(me, next(iter(groups)), payload)
        else:
            self._send_put_groups(me, payload[:1], groups)

    def _on_get(self, net: Network, env: Envelope) -> None:
        """Answer a get this peer owns the key of, else send it on."""
        me = env.to_peer
        req, origin = struct.unpack_from(">IQ", env.payload, 1)
        key, _ = unpack_str(env.payload, _REQUEST_BODY)
        hop = self.hash.route(me, key)
        if hop is None:
            net.send(me, origin, values_response(req, self.hash.local_values(me, key)))
        else:
            net.send(me, hop, env.payload)

    def _on_scan(self, net: Network, env: Envelope) -> None:
        req, origin = struct.unpack_from(">IQ", env.payload, 1)
        lo, off = unpack_str(env.payload, _REQUEST_BODY)
        hi, _ = unpack_str(env.payload, off)
        values = self.range.local_scan(env.to_peer, lo, hi)
        net.send(env.to_peer, origin, values_response(req, values))

    def _on_values(self, net: Network, env: Envelope) -> None:
        (req,) = struct.unpack_from(">I", env.payload, 1)
        self._responses[req] = env.payload
