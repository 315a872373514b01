"""Coexisting key/value overlays over simulated peers.

Two overlay kinds share the per-peer endpoint surface (join, leave, put,
get):

* ``HashOverlay`` — a ring of peers ordered by a 64-bit position; a key
  lives on the first peer at or clockwise after its position.  Routing
  follows Chord (Stoica et al., SIGCOMM 2001): a peer that does not own a
  key hands it to its successor when the successor owns it, else to its
  closest finger before the key, where the fingers of the peer at ``p``
  are the owners of ``p + 2**i`` for i in 0..63.  Each hop is one
  simulated message, O(log peers) of them per key.
* ``RangeOverlay`` — an order-preserving partition of the key domain into
  half-open intervals, one per peer, split at the midpoint on join.  It
  additionally supports ``get_range``, contacting exactly the peers whose
  intervals intersect the queried interval.

Values under one key form a multiset; duplicates are preserved, in the
order they were put.  Keys are handed over synchronously on join/leave
(control plane); only data operations generate accounted traffic.

``DhtService.put`` publishes a batch of ``(key, value)`` items.  On a hash
overlay each peer on the way, the publisher included, stores the items it
owns and sends the rest on as one envelope per next hop, so a batch splits
along the routing tree; a range overlay's publisher sends one envelope per
owner.  All items one peer owns take the same path, so each key keeps its
value order.  A put envelope is the wire tag, the overlay id, an item count
and the items, each a key (``pack_str``) and a value (``pack_bytes``).
``DhtService.put_direct`` is the one control-plane data operation: it
stores the items on their owners without sending a message, which is how
snapshot restore rebuilds the overlays.  Item and response value counts
and key lengths take 2 bytes, or 6 from 0xFFFF up.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import (
    AlreadyMember,
    NoMembers,
    NotMember,
    NotRangeCapable,
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
_HASH_GET_RESP = 0x03
_RANGE_PUT = 0x04
_RANGE_GET = 0x05
_RANGE_SCAN = 0x06
_RANGE_RESP = 0x07


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


def pack_items(items: Items) -> bytes:
    """An item count (``pack_count``), then each key and value."""
    parts = [pack_count(len(items))]
    for key, value in items:
        parts += (pack_str(key), pack_bytes(value))
    return b"".join(parts)


def unpack_items(buf: bytes, off: int) -> Items:
    count, off = unpack_count(buf, off)
    items = []
    for _ in range(count):
        key, off = unpack_str(buf, off)
        value, off = unpack_bytes(buf, off)
        items.append((key, value))
    return items


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


class HashOverlay:
    """Ring overlay with exact-key put/get and multi-value semantics.

    The ring is kept as ``(position, peer)`` pairs sorted by position, plus
    the bare positions for ``bisect``; both are rebuilt only when the
    membership changes.  Each peer's finger table is built from the sorted
    ring on the first hop it routes and dropped with the ring.  Key
    positions are memoized, so routing a key hop by hop hashes it once.
    """

    kind = "hash"

    def __init__(self, dht_id: int, mode: str = "fnv"):
        if mode not in ("fnv", "decimal"):
            raise ValueError(f"unknown hash mode {mode!r}")
        self.dht_id = dht_id
        self.mode = mode
        self.members: dict[PeerId, RingState] = {}
        self._ring: list[tuple[int, PeerId]] = []
        self._positions: list[int] = []
        # peer -> (clockwise distances, fingers), nearest first, self excluded
        self._fingers: dict[PeerId, tuple[list[int], list[PeerId]]] = {}
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
            raise NoMembers(f"overlay {self.dht_id} has no members")
        i = bisect_left(self._positions, pos)
        return self._ring[i if i < len(self._ring) else 0][1]

    def owner_of(self, key: str) -> PeerId:
        return self.owner_of_position(self.key_position(key))

    def _finger_table(self, peer: PeerId) -> tuple[list[int], list[PeerId]]:
        pos = self.members[peer].position
        dist: dict[PeerId, int] = {}
        for i in range(64):
            finger = self.owner_of_position((pos + (1 << i)) & _MASK64)
            if finger != peer and finger not in dist:
                dist[finger] = (self.members[finger].position - pos) & _MASK64
        table = sorted((d, finger) for finger, d in dist.items())
        return [d for d, _ in table], [finger for _, finger in table]

    def next_hop(self, peer: PeerId, key_pos: int) -> PeerId:
        """Where ``peer`` sends a key it does not own: its successor when the
        successor owns the key, else its closest finger before the key."""
        table = self._fingers.get(peer)
        if table is None:
            table = self._fingers[peer] = self._finger_table(peer)
        dists, fingers = table
        i = bisect_left(dists, (key_pos - self.members[peer].position) & _MASK64)
        return fingers[max(i - 1, 0)]

    @staticmethod
    def _in_arc(pos: int, lo_excl: int, hi_incl: int) -> bool:
        if lo_excl == hi_incl:  # single member owns the whole ring
            return True
        if lo_excl < hi_incl:
            return lo_excl < pos <= hi_incl
        return pos > lo_excl or pos <= hi_incl

    def owns(self, peer: PeerId, key_pos: int) -> bool:
        st = self.members[peer]
        pred_pos = self.members[st.predecessor].position
        return self._in_arc(key_pos, pred_pos, st.position)

    def join(self, peer: PeerId) -> None:
        if peer in self.members:
            raise AlreadyMember(f"peer {peer} already in overlay {self.dht_id}")
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
            raise NotMember(f"peer {peer} not in overlay {self.dht_id}")
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

    def __init__(
        self,
        dht_id: int,
        mode: str = "bytes",
        domain: tuple[Fraction, Fraction] | None = None,
    ):
        if mode not in ("bytes", "decimal"):
            raise ValueError(f"unknown range mode {mode!r}")
        self.dht_id = dht_id
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
            raise NoMembers(f"overlay {self.dht_id} has no members")
        for pid, st in self.members.items():
            if st.lo <= p < st.hi:
                return pid
        raise ValueError(f"point {p} outside domain {self.domain}")

    def owner_of(self, key: str) -> PeerId:
        return self.owner_of_point(self.point(key))

    def join(self, peer: PeerId) -> None:
        if peer in self.members:
            raise AlreadyMember(f"peer {peer} already in overlay {self.dht_id}")
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
            raise NotMember(f"peer {peer} not in overlay {self.dht_id}")
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

    def local_values(self, peer: PeerId, key: str) -> list[bytes]:
        return list(self.members[peer].store.get(key, []))

    def store_value(self, peer: PeerId, key: str, value: bytes) -> None:
        self.members[peer].store.setdefault(key, []).append(value)

    def local_scan(self, peer: PeerId, lo: str, hi: str) -> list[tuple[str, bytes]]:
        items = []
        for k, values in self.members[peer].store.items():
            if self.key_le(lo, k) and self.key_lt(k, hi):
                items.extend((k, v) for v in values)
        items.sort(key=lambda kv: (self._sort_key(kv[0])))
        return items

    def _sort_key(self, key: str):
        return int(key) if self.mode == "decimal" else key.encode("utf-8")


Overlay = HashOverlay | RangeOverlay
# ``DhtService.put`` or ``DhtService.put_direct``: (dht_id, via, items)
PutFn = Callable[[int, PeerId, Items], None]


def _values_response(req: int, values: list[bytes]) -> bytes:
    head = bytes([_HASH_GET_RESP]) + struct.pack(">I", req) + pack_count(len(values))
    return head + b"".join(map(pack_bytes, values))


class DhtService:
    """Per-peer endpoint surface for any number of coexisting overlays.

    All overlay logic runs inside the network's event loop; each public
    operation injects the initial request and drains the loop, so calls
    never overlap a simulation step.  External subsystems (the plan
    executor) can register additional wire-tag handlers on the same peer
    dispatchers.
    """

    def __init__(self, net: Network, tick_budget: int = DEFAULT_TICK_BUDGET):
        self.net = net
        self.tick_budget = tick_budget
        self.overlays: dict[int, Overlay] = {}
        self._extra_handlers: dict[int, Callable[[Network, Envelope], None]] = {}
        self._responses: dict[int, object] = {}
        self._next_req = 0

    # -- peer and overlay lifecycle -------------------------------------

    def add_peer(self, peer: PeerId) -> None:
        self.net.spawn_peer(peer, self._dispatch)

    def register_handler(self, tag: int, fn: Callable[[Network, Envelope], None]) -> None:
        self._extra_handlers[tag] = fn

    def create_hash_overlay(self, dht_id: int, mode: str = "fnv") -> HashOverlay:
        if dht_id in self.overlays:
            raise ValueError(f"overlay id {dht_id} already in use")
        ov = HashOverlay(dht_id, mode)
        self.overlays[dht_id] = ov
        return ov

    def create_range_overlay(
        self,
        dht_id: int,
        mode: str = "bytes",
        domain: tuple[Fraction, Fraction] | None = None,
    ) -> RangeOverlay:
        if dht_id in self.overlays:
            raise ValueError(f"overlay id {dht_id} already in use")
        ov = RangeOverlay(dht_id, mode, domain)
        self.overlays[dht_id] = ov
        return ov

    def _overlay(self, dht_id: int) -> Overlay:
        ov = self.overlays.get(dht_id)
        if ov is None:
            raise ValueError(f"no overlay with id {dht_id}")
        return ov

    def join(self, dht_id: int, peer: PeerId) -> None:
        if peer not in self.net.peers:
            raise UnknownPeer(f"peer {peer} does not exist")
        self._overlay(dht_id).join(peer)

    def leave(self, dht_id: int, peer: PeerId) -> None:
        self._overlay(dht_id).leave(peer)

    # -- data operations -------------------------------------------------

    def put(self, dht_id: int, via: PeerId, items: Items) -> None:
        """Publish ``items`` from ``via``, then drain the simulator once."""
        ov = self._overlay(dht_id)
        self._check_member(ov, via)
        if isinstance(ov, HashOverlay):
            sent = self._route_hash_items(ov, via, items)
        else:
            groups: dict[PeerId, Items] = {}
            for key, value in items:
                owner = ov.owner_of(key)
                if owner == via:
                    ov.store_value(via, key, value)
                else:
                    groups.setdefault(owner, []).append((key, value))
            for owner, group in groups.items():
                self.net.send(via, owner, bytes([_RANGE_PUT, ov.dht_id]) + pack_items(group))
            sent = bool(groups)
        if sent:
            self.net.run_until_quiescent(self.tick_budget)

    def put_direct(self, dht_id: int, via: PeerId, items: Items) -> None:
        """Control-plane put: store each item on its key's owner at once.

        The outcome equals ``put``'s (same owners, same value order), but no
        envelope is sent and the stats do not move.  Snapshot restore uses
        it to rebuild the overlays without replaying their traffic.
        """
        ov = self._overlay(dht_id)
        self._check_member(ov, via)
        for key, value in items:
            ov.store_value(ov.owner_of(key), key, value)

    def get(self, dht_id: int, via: PeerId, key: str) -> list[bytes]:
        ov = self._overlay(dht_id)
        self._check_member(ov, via)
        owner = ov.owner_of(key)
        if owner == via:
            return ov.local_values(via, key)
        req = self._new_request()
        if isinstance(ov, HashOverlay):
            tag = _HASH_GET
            first_hop = ov.next_hop(via, ov.key_position(key))
        else:
            tag = _RANGE_GET
            first_hop = owner
        payload = (
            bytes([tag, ov.dht_id])
            + struct.pack(">IQ", req, via)
            + pack_str(key)
        )
        self.net.send(via, first_hop, payload)
        self.net.run_until_quiescent(self.tick_budget)
        return self._take_response(req)

    def get_range(
        self, dht_id: int, via: PeerId, lo: str, hi: str
    ) -> list[tuple[str, bytes]]:
        ov = self._overlay(dht_id)
        if not isinstance(ov, RangeOverlay):
            raise NotRangeCapable(f"overlay {dht_id} does not support interval search")
        self._check_member(ov, via)
        if not ov.key_lt(lo, hi):
            ov.last_contacted = ()
            return []
        peers = ov.intersecting(ov.point(lo), ov.point(hi))
        ov.last_contacted = tuple(peers)
        items: list[tuple[str, bytes]] = []
        pending: list[int] = []
        for pid in peers:
            if pid == via:
                items.extend(ov.local_scan(via, lo, hi))
                continue
            req = self._new_request()
            pending.append(req)
            payload = (
                bytes([_RANGE_SCAN, ov.dht_id])
                + struct.pack(">IQ", req, via)
                + pack_str(lo)
                + pack_str(hi)
            )
            self.net.send(via, pid, payload)
        if pending:
            self.net.run_until_quiescent(self.tick_budget)
            for req in pending:
                items.extend(self._take_response(req))
        items.sort(key=lambda kv: ov._sort_key(kv[0]))
        return items

    # -- plumbing ----------------------------------------------------------

    def _check_member(self, ov: Overlay, via: PeerId) -> None:
        if not ov.members:
            raise NoMembers(f"overlay {ov.dht_id} has no members")
        if via not in ov.members:
            raise NotMember(f"peer {via} is not a member of overlay {ov.dht_id}")

    def _new_request(self) -> int:
        self._next_req += 1
        return self._next_req

    def _route_hash_items(self, ov: HashOverlay, me: PeerId, items: Items) -> bool:
        """Store the items ``me`` owns and send the rest on, one envelope per
        next hop; returns whether anything was sent."""
        groups: dict[PeerId, Items] = {}
        for key, value in items:
            kpos = ov.key_position(key)
            if ov.owns(me, kpos):
                ov.store_value(me, key, value)
            else:
                groups.setdefault(ov.next_hop(me, kpos), []).append((key, value))
        for hop, group in groups.items():
            self.net.send(me, hop, bytes([_HASH_PUT, ov.dht_id]) + pack_items(group))
        return bool(groups)

    def _take_response(self, req: int) -> list:
        if req not in self._responses:
            raise RuntimeError(f"request {req} produced no response")
        return self._responses.pop(req)  # type: ignore[return-value]

    def _dispatch(self, net: Network, env: Envelope) -> None:
        tag = env.payload[0]
        if tag == _HASH_PUT:
            self._on_hash_put(net, env)
        elif tag == _HASH_GET:
            self._on_hash_get(net, env)
        elif tag == _HASH_GET_RESP:
            self._on_get_resp(env)
        elif tag == _RANGE_PUT:
            self._on_range_put(env)
        elif tag == _RANGE_GET:
            self._on_range_get(net, env)
        elif tag == _RANGE_SCAN:
            self._on_range_scan(net, env)
        elif tag == _RANGE_RESP:
            self._on_range_resp(env)
        elif tag in self._extra_handlers:
            self._extra_handlers[tag](net, env)
        else:
            raise ValueError(f"unknown wire tag {tag:#x}")

    def _on_hash_put(self, net: Network, env: Envelope) -> None:
        ov = self._overlay(env.payload[1])
        assert isinstance(ov, HashOverlay)
        self._route_hash_items(ov, env.to_peer, unpack_items(env.payload, 2))

    def _on_hash_get(self, net: Network, env: Envelope) -> None:
        ov = self._overlay(env.payload[1])
        assert isinstance(ov, HashOverlay)
        me = env.to_peer
        req, origin = struct.unpack_from(">IQ", env.payload, 2)
        key, _ = unpack_str(env.payload, 14)
        kpos = ov.key_position(key)
        if ov.owns(me, kpos):
            net.send(me, origin, _values_response(req, ov.local_values(me, key)))
        else:
            net.send(me, ov.next_hop(me, kpos), env.payload)

    def _on_get_resp(self, env: Envelope) -> None:
        (req,) = struct.unpack_from(">I", env.payload, 1)
        count, off = unpack_count(env.payload, 5)
        values = []
        for _ in range(count):
            v, off = unpack_bytes(env.payload, off)
            values.append(v)
        self._responses[req] = values

    def _on_range_put(self, env: Envelope) -> None:
        ov = self._overlay(env.payload[1])
        assert isinstance(ov, RangeOverlay)
        for key, value in unpack_items(env.payload, 2):
            ov.store_value(env.to_peer, key, value)

    def _on_range_get(self, net: Network, env: Envelope) -> None:
        ov = self._overlay(env.payload[1])
        assert isinstance(ov, RangeOverlay)
        req, origin = struct.unpack_from(">IQ", env.payload, 2)
        key, _ = unpack_str(env.payload, 14)
        values = ov.local_values(env.to_peer, key)
        net.send(env.to_peer, origin, _values_response(req, values))

    def _on_range_scan(self, net: Network, env: Envelope) -> None:
        ov = self._overlay(env.payload[1])
        assert isinstance(ov, RangeOverlay)
        req, origin = struct.unpack_from(">IQ", env.payload, 2)
        lo, off = unpack_str(env.payload, 14)
        hi, _ = unpack_str(env.payload, off)
        items = ov.local_scan(env.to_peer, lo, hi)
        head = bytes([_RANGE_RESP]) + struct.pack(">I", req)
        net.send(env.to_peer, origin, head + pack_items(items))

    def _on_range_resp(self, env: Envelope) -> None:
        (req,) = struct.unpack_from(">I", env.payload, 1)
        self._responses[req] = unpack_items(env.payload, 5)
