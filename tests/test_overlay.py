import random
from collections import deque
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from twigstore.errors import (
    AlreadyMember,
    NoMembers,
    NotMember,
    TickBudgetExceeded,
)
from twigstore import planner
from twigstore.netsim import Network, NetworkStats
from twigstore.overlay import (
    DEFAULT_TICK_BUDGET,
    DhtService,
    HashOverlay,
    RangeOverlay,
    fnv1a64,
    pack_bytes,
    pack_count,
    pack_str,
    ring_hash,
    unpack_bytes,
    unpack_count,
    unpack_str,
)
from twigstore.store import MAX_PEERS, P2P, Store, StoreConfig

from helpers import check_partition, check_ring


def pack_items(items):
    """Reference encoding of a put envelope's body: the item count, then
    each key and value."""
    parts = [pack_count(len(items))]
    for key, value in items:
        parts += (pack_str(key), pack_bytes(value))
    return b"".join(parts)


def unpack_items(buf, off):
    count, off = unpack_count(buf, off)
    items = []
    for _ in range(count):
        key, off = unpack_str(buf, off)
        value, off = unpack_bytes(buf, off)
        items.append((key, value))
    return items


class ReadableRing(HashOverlay):
    """A hash ring placed by hand: a peer sits at its id and a key at the
    integer its text spells, so a test reads each key's owner off the
    numbers."""

    def peer_position(self, peer):
        return peer

    def key_position(self, key):
        return int(key)


def make_service(peer_ids, ring=ReadableRing):
    net = Network()
    dht = DhtService(net, hash=ring())
    for p in peer_ids:
        dht.add_peer(p)
    return net, dht


def test_fnv1a64_known_vector():
    # standard FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_every_allowed_peer_has_its_own_ring_position():
    # a config may ask for up to MAX_PEERS peers, numbered from 1, so no
    # config reaches HashOverlay.join's position-collision ValueError
    positions = {HashOverlay().peer_position(peer) for peer in range(1, MAX_PEERS + 1)}
    assert len(positions) == MAX_PEERS


def test_ring_ownership_after_join():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
    ov = dht.hash
    dht.add_peer(30)
    dht.join(dht.hash, 30)
    assert ov._ring == [(10, 10), (30, 30), (50, 50), (90, 90)]
    assert ov.owner_of("25") == 30
    assert ov.owner_of("30") == 30
    assert ov.owner_of("31") == 50


def test_first_and_second_range_joiner():
    net, dht = make_service([1, 2])
    dht.join(dht.range, 1)
    ov = dht.range
    assert (ov.bounds, ov.owners) == ([b""], [1])
    # the first member owns every key, from the empty one up
    assert ov.owner_of("") == ov.owner_of("\U0010ffff") == 1
    dht.join(dht.range, 2)
    # the second takes the keys from byte 0x80 up: every non-ASCII first
    # character
    assert (ov.bounds, ov.owners) == ([b"", b"\x80"], [1, 2])
    assert [ov.owner_of(k) for k in ("\x7f", "\x80", "\U0010ffff")] == [1, 2, 2]


def test_hash_leave_absorbs_arc():
    net, dht = make_service([10, 30, 50, 90])
    for p in (10, 30, 50, 90):
        dht.join(dht.hash, p)
    dht.put(dht.hash, 10, [("25", b"v")])
    dht.leave(dht.hash, 30)
    ov = dht.hash
    assert ov.owner_of("25") == 50
    assert dht.get(10, "25") == [b"v"]


def test_leave_last_member_then_no_members():
    net, dht = make_service([10])
    dht.join(dht.hash, 10)
    dht.leave(dht.hash, 10)
    with pytest.raises(NoMembers):
        dht.get(10, "5")
    with pytest.raises(NotMember):
        dht.leave(dht.hash, 10)


def test_join_twice_raises():
    net, dht = make_service([10])
    dht.join(dht.hash, 10)
    with pytest.raises(AlreadyMember):
        dht.join(dht.hash, 10)


def test_put_get_multiset():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
    dht.put(dht.hash, 10, [("42", b"v1")])
    dht.put(dht.hash, 90, [("42", b"v2")])
    assert sorted(dht.get(50, "42")) == [b"v1", b"v2"]
    assert dht.get(10, "77") == []
    # key 42 is owned by peer 50
    assert dht.hash.owner_of("42") == 50
    assert dht.hash.members[50]["42"] == [b"v1", b"v2"]


def test_local_put_costs_zero_bytes():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
    before = net.stats.bytes_sent
    dht.put(dht.hash, 50, [("42", b"value")])  # 50 owns 42
    assert net.stats.bytes_sent == before


def test_remote_put_routes_by_successor_hops():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
    before = net.stats.messages_sent
    dht.put(dht.hash, 90, [("42", b"v")])  # 90 -> 10 -> 50
    assert net.stats.messages_sent - before == 2


def test_key_transferred_on_owner_leave():
    net, dht = make_service([10, 30, 50])
    for p in (10, 30, 50):
        dht.join(dht.hash, p)
    dht.put(dht.hash, 10, [("27", b"kept")])
    assert dht.hash.owner_of("27") == 30
    dht.leave(dht.hash, 30)
    assert dht.get(50, "27") == [b"kept"]


def test_get_range_basics():
    # ranges: 1 -> [b"", b"\x80"), 2 -> [b"\x80", top)
    net, dht = make_service([1, 2])
    dht.join(dht.range, 1)
    dht.join(dht.range, 2)
    for key in ("5", "12", "17", "30"):
        dht.put(dht.range, 1, [(key, key.encode())])
    assert dht.get_range(1, "10", "20") == [b"12", b"17"]
    assert dht.get_range(1, "15", "15") == []
    assert dht.range.intersecting("a", "é") == [1, 2]
    # peer 2 scans its own interval and asks peer 1 for the other one
    assert _range_read(net, dht, 2, "a", "é") == ([], [1])


def test_get_range_contacts_only_intersecting_peers():
    # ranges: 1 -> [b"", b"\x80"), 2 -> [b"\x80", top)
    net, dht = make_service([1, 2])
    dht.join(dht.range, 1)
    dht.join(dht.range, 2)
    for lo, hi, peers in (("a", "é", [1, 2]), ("10", "20", [1]), ("é", "ü", [2])):
        assert dht.range.intersecting(lo, hi) == peers
        assert _range_read(net, dht, 1, lo, hi) == ([], [p for p in peers if p != 1])


def _range_read(net, dht, via, lo, hi):
    """``dht.get_range(via, lo, hi)``'s values and the peers it sent a range
    scan to, ascending, once the traffic is checked to be one scan to each
    of them and one answer back."""
    before = net.stats.copy()
    values = dht.get_range(via, lo, hi)
    delta = net.stats.delta_since(before)
    edges = {edge: msgs for edge, (msgs, _) in delta.per_edge.items()}
    asked = sorted(to for frm, to in edges if frm == via)
    assert edges == {**{(via, p): 1 for p in asked}, **{(p, via): 1 for p in asked}}
    return values, asked


def test_envelopes_name_their_overlay_by_wire_tag_alone():
    # ranges: 10 -> [b"", b"@"), 50 -> [b"@", b"\x80"), 90 -> [b"\x80",
    # top); key 7 is peer 10's on both overlays, so an envelope handled by
    # the wrong overlay would land in the wrong store
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
    for p in (10, 90, 50):
        dht.join(dht.range, p)
    assert dht.hash.owner_of("7") == dht.range.owner_of("7") == 10
    sent = _recording(net)
    dht.put(dht.hash, 50, [("7", b"h")])
    dht.put(dht.range, 50, [("7", b"r")])
    assert dht.hash.members[10] == {"7": [b"h"]}
    assert dht.range.members[10] == {"7": [b"r"]}
    assert dht.get(50, "7") == [b"h"]  # request 1
    assert dht.get_range(50, "7", "8") == [b"r"]  # request 2
    # peer 10 stores keys 7, 12, 5 in that order, peer 90 key é, whose
    # UTF-8 is two bytes; in byte order 12 comes before 5 and 7
    dht.put(dht.range, 50, [("12", b"q"), ("é", b"s"), ("5", b"p")])
    assert dht.get_range(50, "0", "ü") == [b"q", b"p", b"r", b"s"]  # requests 3 and 4
    assert dht.range.intersecting("0", "ü") == [10, 50, 90]

    def u16(n):
        return n.to_bytes(2, "big")

    def request(tag, req):  # wire tag, request id, origin peer
        return bytes([tag]) + req.to_bytes(4, "big") + (50).to_bytes(8, "big")

    def one_item_put(tag, value):  # wire tag, item count, key, value
        return bytes([tag]) + u16(1) + u16(1) + b"7" + (1).to_bytes(4, "big") + value

    requests = {
        0x01: {one_item_put(0x01, b"h")},
        0x04: {
            one_item_put(0x04, b"r"),
            bytes([0x04]) + pack_items([("12", b"q"), ("5", b"p")]),
            # a key's length is its byte count: é is 2 bytes, 1 character
            bytes([0x04]) + u16(1) + u16(2) + b"\xc3\xa9"
            + (1).to_bytes(4, "big") + b"s",
        },
        0x02: {request(0x02, 1) + u16(1) + b"7"},
        0x06: {request(0x06, 2) + u16(1) + b"7" + u16(1) + b"8"}
        | {request(0x06, req) + u16(1) + b"0" + u16(2) + b"\xc3\xbc" for req in (3, 4)},
    }
    for tag, payloads in requests.items():
        assert {payload for _, _, payload in sent if payload[0] == tag} == payloads
    # the range overlay's owner is every range request's one hop
    assert [(frm, to) for frm, to, payload in sent if payload[0] == 0x04] == [
        (50, 10), (50, 10), (50, 90)
    ]
    # peer 50 scans its own interval: no scan goes to it
    assert [to for _, to, payload in sent if payload[0] == 0x06] == [10, 10, 90]
    # every answer is 0x03, the request id, then each value after its
    # 4-byte length, in key order: no count and no keys
    assert [(frm, to, payload) for frm, to, payload in sent if payload[0] == 0x03] == [
        (10, 50, _answer(1, b"h")),
        (10, 50, _answer(2, b"r")),
        (10, 50, _answer(3, b"q", b"p", b"r")),
        (90, 50, _answer(4, b"s")),
    ]
    # the plan executor's subtree fetch is answered the same way: on a
    # two-peer store, query peer 1 fetches the hit in document 2 from its
    # home, peer 2
    store = Store(StoreConfig(backend=P2P, peer_count=2))
    store.store_resource("<d><t>a</t></d>")
    store.store_resource("<d><t>b</t></d>")
    sent = _recording(store.net)
    result = store.query("//t!")
    assert [r.payload for r in result.resources] == ["<t>a</t>", "<t>b</t>"]
    fetches = [payload for _, _, payload in sent if payload[0] == planner.TAG_FETCH]
    assert len(fetches) == 1
    req = int.from_bytes(fetches[0][1:5], "big")
    assert [(frm, to, payload) for frm, to, payload in sent
            if payload[:5] == b"\x03" + req.to_bytes(4, "big")] == [
        (2, 1, _answer(req, b"<t>b</t>"))
    ]


def _answer(req, *values):
    return b"\x03" + req.to_bytes(4, "big") + b"".join(
        len(v).to_bytes(4, "big") + v for v in values
    )


def test_range_leave_smaller_neighbor_absorbs():
    net, dht = make_service([1, 2, 3])
    for p in (1, 2, 3):
        dht.join(dht.range, p)
    ov = dht.range
    # ranges now: 1 -> [b"", b"@"), 3 -> [b"@", b"\x80"), 2 -> [b"\x80", top)
    assert (ov.bounds, ov.owners) == ([b"", b"@", b"\x80"], [1, 3, 2])
    dht.put(dht.range, 1, [("K", b"x")])
    dht.leave(dht.range, 3)
    # the left neighbor's quarter is smaller than the right neighbor's half
    assert (ov.bounds, ov.owners) == ([b"", b"\x80"], [1, 2])
    assert ov.members[1] == {"K": [b"x"]}
    assert dht.get_range(2, "K", "L") == [b"x"]


def test_range_scan_from_a_boundary_key_asks_its_owner():
    # three peers: 1 -> [b"", b"@"), 3 -> [b"@", b"\x80"),
    # 2 -> [b"\x80", top); "@\x00" is the first key after "@"
    net, dht = make_service([1, 2, 3])
    for p in (1, 2, 3):
        dht.join(dht.range, p)
    dht.put(dht.range, 1, [("@", b"x")])
    assert dht.range.intersecting("@", "@\x00") == [3]
    assert _range_read(net, dht, 1, "@", "@\x00") == ([b"x"], [3])


def test_range_boundaries_are_the_dyadic_midpoints():
    ov = RangeOverlay()
    for p in range(1, 9):
        ov.join(p)
    assert ov.bounds == [b"", b" ", b"@", b"`", b"\x80", b"\xa0", b"\xc0", b"\xe0"]
    assert ov.owners == [1, 5, 3, 6, 2, 7, 4, 8]
    for p in range(9, 33):
        ov.join(p)
    assert ov.bounds[:9] == [
        b"", b"\x08", b"\x10", b"\x18", b" ", b"(", b"0", b"8", b"@"
    ]


def _fraction(raw: bytes) -> Fraction:
    return Fraction(int.from_bytes(raw, "big"), 256 ** len(raw))


class FractionPartition:
    """Reference model of the range partition as fractions.

    A key is the base-256 fraction in [0, 1) its UTF-8 bytes spell, and
    each member owns a half-open interval ``[lo, hi)`` of [0, 1).  A joiner
    takes the upper half of the widest interval, the lowest on ties; a
    leaver's interval goes to the narrower of the members adjacent to it,
    the lower on ties.  Every lookup scans all the members.
    """

    def __init__(self):
        self.spans: dict[int, list[Fraction]] = {}

    @staticmethod
    def point(key: str) -> Fraction:
        return _fraction(key.encode("utf-8"))

    def join(self, peer):
        if not self.spans:
            self.spans[peer] = [Fraction(0), Fraction(1)]
            return
        widest = min(self.spans.values(), key=lambda s: (s[0] - s[1], s[0]))
        mid = (widest[0] + widest[1]) / 2
        self.spans[peer] = [mid, widest[1]]
        widest[1] = mid

    def leave(self, peer):
        lo, hi = self.spans.pop(peer)
        adjacent = [s for s in self.spans.values() if s[1] == lo or s[0] == hi]
        if adjacent:
            absorber = min(adjacent, key=lambda s: (s[1] - s[0], s[0]))
            if absorber[1] == lo:
                absorber[1] = hi
            else:
                absorber[0] = lo

    def owner_of(self, key):
        p = self.point(key)
        return next(pid for pid, (lo, hi) in self.spans.items() if lo <= p < hi)

    def intersecting(self, lo, hi):
        plo, phi = self.point(lo), self.point(hi)
        if plo >= phi:  # an empty interval, which no scan asked for
            return []
        return [pid for _, pid in sorted(
            (s[0], pid) for pid, s in self.spans.items() if s[1] > plo and s[0] < phi
        )]


@settings(max_examples=100, deadline=None)
@given(
    churn=st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=80),
    keys=st.lists(
        st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=8),
        min_size=1, max_size=12,
    ),
)
def test_range_partition_matches_the_fraction_model(churn, keys):
    ov, model = RangeOverlay(), FractionPartition()
    ov.join(1)
    model.join(1)
    for joining, peer in churn:
        if joining and peer not in ov.members:
            ov.join(peer)
            model.join(peer)
        elif not joining and peer in ov.members and len(ov.members) > 1:
            ov.leave(peer)
            model.leave(peer)
    check_partition(ov)
    # the model's intervals tile [0, 1), and each boundary is the low end
    # of the model's interval for the same member
    spans = sorted((lo, hi, pid) for pid, (lo, hi) in model.spans.items())
    assert spans[0][0] == 0 and spans[-1][1] == 1
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert [(_fraction(b), pid) for b, pid in zip(ov.bounds, ov.owners)] == [
        (lo, pid) for lo, _, pid in spans
    ]
    # the top interval is open: it holds the highest keys
    assert ov.owner_of("\U0010ffff" * 9) == ov.owners[-1]
    # the boundaries themselves, where they are text, probe the edges
    probes = keys + [b.decode() for b in ov.bounds if b.isascii() and b"\0" not in b]
    for key in probes:
        assert ov.owner_of(key) == model.owner_of(key)
    for lo in probes:
        for hi in probes:
            assert ov.intersecting(lo, hi) == model.intersecting(lo, hi)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_churn_against_shadow_map(seed):
    rng = random.Random(seed)
    peer_pool = list(range(1, 25))
    net, dht = make_service(peer_pool, ring=HashOverlay)
    shadow_hash: dict[str, list[bytes]] = {}
    shadow_range: dict[str, list[bytes]] = {}
    hash_members: list[int] = []
    range_members: list[int] = []
    for p in peer_pool[:3]:
        dht.join(dht.hash, p)
        dht.join(dht.range, p)
        hash_members.append(p)
        range_members.append(p)

    for step in range(600):
        op = rng.random()
        if op < 0.12 and len(hash_members) < 16:
            candidates = [p for p in peer_pool if p not in hash_members]
            p = rng.choice(candidates)
            dht.join(dht.hash, p)
            hash_members.append(p)
        elif op < 0.2 and len(hash_members) > 3:
            p = rng.choice(hash_members)
            dht.leave(dht.hash, p)
            hash_members.remove(p)
        elif op < 0.28 and len(range_members) < 16:
            candidates = [p for p in peer_pool if p not in range_members]
            p = rng.choice(candidates)
            dht.join(dht.range, p)
            range_members.append(p)
        elif op < 0.34 and len(range_members) > 3:
            p = rng.choice(range_members)
            dht.leave(dht.range, p)
            range_members.remove(p)
        elif op < 0.6:
            key = str(rng.randint(0, 40))
            value = f"v{step}".encode()
            dht.put(dht.hash, rng.choice(hash_members), [(key, value)])
            shadow_hash.setdefault(key, []).append(value)
        elif op < 0.75:
            key = f"k{rng.randint(0, 40):03d}"
            value = f"r{step}".encode()
            dht.put(dht.range, rng.choice(range_members), [(key, value)])
            shadow_range.setdefault(key, []).append(value)
        elif op < 0.9:
            key = str(rng.randint(0, 40))
            got = dht.get(rng.choice(hash_members), key)
            assert sorted(got) == sorted(shadow_hash.get(key, []))
        else:
            lo = f"k{rng.randint(0, 40):03d}"
            hi = f"k{rng.randint(0, 40):03d}"
            got = dht.get_range(rng.choice(range_members), lo, hi)
            want = [
                v for k in sorted(shadow_range) if lo <= k < hi for v in shadow_range[k]
            ]
            assert got == want
        check_ring(dht.hash)
        check_partition(dht.range)

    # final sweep: every key readable from every member
    for key, values in shadow_hash.items():
        got = dht.get(rng.choice(hash_members), key)
        assert sorted(got) == sorted(values)


def test_successor_routing_hop_bound():
    # every hop moves strictly clockwise toward the owner, so a request
    # makes at most one hop per member
    positions = [5, 17, 33, 49, 62, 78, 85, 99]
    net, dht = make_service(positions)
    for p in positions:
        dht.join(dht.hash, p)
    for via in positions:
        for key in ("3", "40", "70", "99"):
            before = net.stats.messages_sent
            dht.put(dht.hash, via, [(key, b"v")])
            assert net.stats.messages_sent - before <= len(positions)


def test_value_count_widens_only_from_0xffff():
    assert pack_count(0) == b"\x00\x00"
    assert pack_count(0xFFFE) == b"\xff\xfe"  # the old 16-bit field
    assert pack_count(0xFFFF) == b"\xff\xff\x00\x00\xff\xff"
    for n in (0, 7, 0xFFFE, 0xFFFF, 0x10000, 2**32 - 1):
        assert unpack_count(b"x" + pack_count(n), 1) == (n, 1 + len(pack_count(n)))


def test_key_length_widens_only_from_0xffff():
    assert pack_str("ab") == b"\x00\x02ab"  # the old 16-bit field
    for n in (0, 0xFFFE, 0xFFFF, 70_000):
        key = "k" * n
        packed = pack_str(key)
        assert packed[: len(packed) - n] == pack_count(n)
        assert unpack_str(b"x" + packed + b"y", 1) == (key, 1 + len(packed))


def test_remote_reads_of_65536_values():
    # one key holding more values than a 16-bit count can say
    values = [i.to_bytes(3, "big") for i in range(65_536)]
    net, dht = make_service([10, 50])
    for p in (10, 50):
        dht.join(dht.hash, p)
        dht.join(dht.range, p)
    hash_ov, range_ov = dht.hash, dht.range
    assert hash_ov.owner_of("42") == 50 and range_ov.owner_of("é") == 50
    hash_ov.members[50]["42"] = list(values)
    range_ov.members[50]["é"] = list(values)
    assert dht.get(10, "42") == values
    assert dht.get_range(10, "é", "é\x00") == values
    assert dht.get_range(10, "\x80", "\U0010ffff") == values


@settings(max_examples=60, deadline=None)
@given(
    churn=st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=40),
    keys=st.lists(st.text(max_size=8), min_size=1, max_size=12),
)
def test_cached_ring_matches_brute_force_owner(churn, keys):
    pool = range(1, 41)
    net, dht = make_service(pool, ring=HashOverlay)
    ov = dht.hash
    dht.join(dht.hash, 1)
    for joining, peer in churn:
        if joining and peer not in ov.members:
            dht.join(dht.hash, peer)
        elif not joining and peer in ov.members and len(ov.members) > 1:
            dht.leave(dht.hash, peer)
    check_ring(ov)
    ring = sorted((ov.peer_position(pid), pid) for pid in ov.members)
    members = [pid for _, pid in ring]
    for i, key in enumerate(keys):
        assert ov.key_position(key) == ring_hash(key)
        kpos = ring_hash(key)
        owner = next((pid for pos, pid in ring if pos >= kpos), ring[0][1])
        assert ov.owner_of(key) == owner
        value = f"v{i}".encode()
        dht.put(dht.hash, members[i % len(members)], [(key, value)])
        assert value in ov.members[owner][key]
        assert value in dht.get(members[-1 - i % len(members)], key)


# keys of 64 KiB and more cost milliseconds to hash in pure Python
_key_hash = lru_cache(maxsize=None)(ring_hash)


def _brute_owner(ring, kpos):
    return next((pid for pos, pid in ring if pos >= kpos), ring[0][1])


def _chord_hop(ov, peer, key):
    """Chord's next hop from ``peer`` toward ``key``, by brute force: the
    successor if it owns the key, else the farthest finger before the key,
    the fingers being the owners of ``position + 2**i`` for i in 0..63."""
    span = 1 << 64
    ring = ov._ring
    position = {pid: pos for pos, pid in ring}
    pos = position[peer]
    fingers = set()
    for i in range(64):
        target = (pos + (1 << i)) % span
        fingers.add(_brute_owner(ring, target))
    fingers.discard(peer)
    dist = {f: (position[f] - pos) % span for f in fingers}
    d = (ov.key_position(key) - pos) % span
    successor = min(fingers, key=dist.get)
    if d <= dist[successor]:
        return successor
    return max((f for f in fingers if dist[f] < d), key=dist.get)


def _check_hops(ov, sent):
    """Every put and get request went to Chord's next hop for its keys, and
    every put envelope is exactly the encoding of the items it carries."""
    for frm, to, payload in sent:
        if payload[0] == 0x01:
            items = unpack_items(payload, 1)
            assert payload == bytes([0x01]) + pack_items(items)
            keys = [key for key, _ in items]
        elif payload[0] == 0x02:
            keys = [unpack_str(payload, 13)[0]]
        else:  # the owner's answer goes straight back to the requester
            continue
        for key in keys:
            assert to == _chord_hop(ov, frm, key)


@settings(max_examples=80, deadline=None)
@given(
    ring=st.sampled_from([HashOverlay, ReadableRing]),
    pool=st.lists(
        st.integers(0, 60) | st.integers(0, 2**64 - 1), min_size=1, max_size=8, unique=True
    ),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(1, 40), st.lists(st.integers(0, 7), max_size=12)),
        max_size=25,
    ),
)
def test_finger_routed_batches_reach_the_owner_in_order(ring, pool, steps):
    keys = [str(k) for k in pool]
    net, dht = make_service(range(1, 41), ring=ring)
    ov = dht.hash
    sent = []
    real_send = net.send
    net.send = lambda frm, to, payload: sent.append((frm, to, payload)) or real_send(
        frm, to, payload
    )
    dht.join(dht.hash, 1)
    shadow: dict[str, list[bytes]] = {}
    for n, (joining, peer, picks) in enumerate(steps):
        if joining and peer not in ov.members:
            dht.join(dht.hash, peer)
        elif not joining and peer in ov.members and len(ov.members) > 1:
            dht.leave(dht.hash, peer)
        members = sorted(ov.members)
        items = [(keys[i % len(keys)], f"{n}.{j}".encode()) for j, i in enumerate(picks)]
        sent.clear()
        dht.put(dht.hash, members[peer % len(members)], items)
        _check_hops(ov, sent)
        for key, value in items:
            shadow.setdefault(key, []).append(value)
        for key in {key for key, _ in items}:
            assert ov.members[ov.owner_of(key)][key] == shadow[key]
            sent.clear()
            assert dht.get(members[(peer + len(key)) % len(members)], key) == shadow[key]
            _check_hops(ov, sent)


def test_finger_routing_hop_bound_at_64_peers():
    net, dht = make_service(range(1, 65), ring=HashOverlay)
    for p in range(1, 65):
        dht.join(dht.hash, p)
    keys = [f"t:name{i}" for i in range(512)]
    # a successor walk would average about 32 hops here
    before = net.stats.messages_sent
    for i, key in enumerate(keys):
        dht.put(dht.hash, 1 + i % 64, [(key, b"v")])
    assert 1 <= (net.stats.messages_sent - before) / len(keys) <= 6
    # a get adds the owner's one-message answer to the route
    before = net.stats.messages_sent
    for i, key in enumerate(keys):
        assert dht.get(64 - i % 64, key) == [b"v"]
    assert 2 <= (net.stats.messages_sent - before) / len(keys) <= 7


def test_batch_shares_envelopes_along_the_route():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
        dht.join(dht.range, p)
    before = net.stats.messages_sent
    # 50 owns (10, 50] and 90 owns (50, 90]; 90 routes through 10
    dht.put(dht.hash, 90, [("42", b"a"), ("60", b"own"), ("20", b"b"), ("42", b"c")])
    assert net.stats.messages_sent - before == 2  # 90 -> 10 -> 50, one envelope each
    assert dht.hash.members[50] == {"42": [b"a", b"c"], "20": [b"b"]}
    assert dht.hash.members[90] == {"60": [b"own"]}
    # the range overlay gives 10 the keys below b"@", 90 those from b"@"
    # and 50 those from b"\x80"
    before = net.stats.messages_sent
    dht.put(dht.range, 10, [("K", b"x"), ("é", b"y"), ("5", b"z"), ("L", b"w")])
    assert net.stats.messages_sent - before == 2  # one envelope per remote owner
    assert dht.get_range(50, "0", "ÿ") == [b"z", b"x", b"w", b"y"]


def test_each_peer_routes_each_distinct_key_of_an_envelope_once():
    net, dht = make_service([10, 50, 90])
    ov = dht.hash
    for p in (10, 50, 90):
        dht.join(ov, p)
    calls = []
    real_route = ov.route
    ov.route = lambda peer, key: calls.append((peer, key)) or real_route(peer, key)
    dht.put(ov, 90, [("42", b"a"), ("60", b"own"), ("20", b"b"), ("42", b"c")])
    # 90 publishes, 10 forwards and 50 owns what 10 sends it
    assert calls == [
        (90, "42"), (90, "60"), (90, "20"),
        (10, "42"), (10, "20"),
        (50, "42"), (50, "20"),
    ]
    assert ov.members[50] == {"42": [b"a", b"c"], "20": [b"b"]}


def _decoding_router(ov, via, items):
    """The envelopes ``(from, to, payload)`` of one hash put, in delivery
    order, routed the plain way outside the service: each peer decodes the
    envelope it receives, keeps the items it owns and encodes each next
    hop's items afresh, hops chosen by ``_chord_hop``."""
    ring = ov._ring
    sent = []
    queue = deque([(via, items)])
    while queue:  # first in, first out is the simulator's delivery order
        me, batch = queue.popleft()
        groups = {}
        for key, value in batch:
            if _brute_owner(ring, _key_hash(key)) != me:
                groups.setdefault(_chord_hop(ov, me, key), []).append((key, value))
        for hop, group in groups.items():
            payload = bytes([0x01]) + pack_items(group)
            sent.append((me, hop, payload))
            queue.append((hop, unpack_items(payload, 1)))
    return sent


# two keys long enough that their length takes pack_count's 6-byte form
_LONG_KEYS = ["x" * 0xFFFF, "y" * 0x10003]
_MIXED_BATCH = [(_LONG_KEYS[0], b"")] + [
    (str(i % 29), bytes([i])) for i in range(64)
] + [(_LONG_KEYS[1], b"long"), (_LONG_KEYS[0], b"again"), ("7", b"")]


@settings(max_examples=100, deadline=None)
@example(peer_count=64, puts=[(9, _MIXED_BATCH), (40, _MIXED_BATCH[::-1])])
@example(peer_count=1, puts=[(0, _MIXED_BATCH)])
@given(
    peer_count=st.integers(1, 64),
    puts=st.lists(
        st.tuples(
            st.integers(0, 63),
            st.lists(  # keys repeat, and values may be empty
                st.tuples(
                    st.sampled_from(_LONG_KEYS + [str(i) for i in range(40)]),
                    st.binary(max_size=6),
                ),
                max_size=32,
            ),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_forwarded_put_envelopes_match_a_decoding_router(peer_count, puts):
    members = list(range(1, peer_count + 1))
    net, dht = make_service(members, ring=HashOverlay)
    ov = dht.hash
    for p in members:
        dht.join(dht.hash, p)
    ring = ov._ring
    sent = []
    real_send = net.send
    net.send = lambda frm, to, payload: sent.append((frm, to, payload)) or real_send(
        frm, to, payload
    )
    reference = NetworkStats()
    shadow: dict[str, list[bytes]] = {}
    for pick, items in puts:
        via = members[pick % len(members)]
        want_sent = _decoding_router(ov, via, items)
        sent.clear()
        dht.put(dht.hash, via, items)
        assert sent == want_sent
        for frm, to, payload in want_sent:
            reference.record(frm, to, len(payload))
        for key, value in items:
            shadow.setdefault(key, []).append(value)
        for key in {key for key, _ in items}:
            owner = _brute_owner(ring, _key_hash(key))
            assert ov.members[owner][key] == shadow[key]
    assert net.stats.per_edge == reference.per_edge
    assert net.stats.report() == reference.report()


def _recording(net):
    sent = []
    real_send = net.send
    net.send = lambda frm, to, payload: sent.append((frm, to, payload)) or real_send(
        frm, to, payload
    )
    return sent


@settings(max_examples=100, deadline=None)
# eight peers split the first byte into eighths; these keys reach five
# owners, none of them the publisher, peer 2
@example(peer_count=8, pick=1, items=[
    ("é", b"a"), ("5", b""), ("K", b"b"), ("中", b"c"), ("é", b"d"), ("a", b"e"),
])
@given(
    peer_count=st.integers(1, 8),
    pick=st.integers(0, 7),
    items=st.lists(st.tuples(st.text(max_size=3), st.binary(max_size=4)), max_size=24),
)
def test_range_put_sends_one_envelope_per_remote_owner(peer_count, pick, items):
    members = list(range(1, peer_count + 1))
    net, dht = make_service(members)
    for p in members:
        dht.join(dht.range, p)
    ov = dht.range
    via = members[pick % peer_count]
    groups: dict[int, list] = {}
    for key, value in items:
        groups.setdefault(ov.owner_of(key), []).append((key, value))
    sent = _recording(net)
    dht.put(dht.range, via, items)
    assert sent == [
        (via, owner, bytes([0x04]) + pack_items(group))
        for owner, group in groups.items()
        if owner != via
    ]
    for owner, group in groups.items():
        for key in {key for key, _ in group}:
            assert ov.members[owner][key] == [v for k, v in group if k == key]


def test_range_get_asks_the_owner_once():
    # a one-key interval is the range overlay's exact-key read: key + "\0"
    # is the next key after key in byte order; 5 is peer 1's, K and Z
    # peer 3's, é and 中 peer 4's
    members = [1, 2, 3, 4]
    net, dht = make_service(members)
    for p in members:
        dht.join(dht.range, p)
    ov = dht.range
    for key in ("5", "K", "é", "中"):
        dht.put(dht.range, ov.owner_of(key), [(key, key.encode())])
    sent = _recording(net)
    for key in ("5", "K", "é", "中", "Z"):
        owner = ov.owner_of(key)
        want = [key.encode()] if key != "Z" else []
        for via in members:
            sent.clear()
            assert dht.get_range(via, key, key + "\0") == want
            if via == owner:
                assert sent == []
            else:
                assert [(frm, to, payload[0]) for frm, to, payload in sent] == [
                    (via, owner, 0x06), (owner, via, 0x03)
                ]


def test_register_handler_refuses_a_tag_in_use():
    net, dht = make_service([1])
    for tag in (0x01, 0x02, 0x03, 0x04, 0x06):
        with pytest.raises(ValueError, match="already has a handler"):
            dht.register_handler(tag, lambda net_, env: None)
    dht.register_handler(0x10, lambda net_, env: None)
    with pytest.raises(ValueError, match="already has a handler"):
        dht.register_handler(0x10, lambda net_, env: None)


def test_tick_budget_failure_leaves_nothing_for_the_next_operation():
    # 90 -> 10 -> 50 -> 90 takes three ticks, so a budget of one abandons
    # the get with its forwarded request still queued
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
    dht.put(dht.hash, 50, [("42", b"v")])
    dht.tick_budget = 1
    with pytest.raises(TickBudgetExceeded):
        dht.get(90, "42")
    net.run_until_quiescent(0)  # a zero budget refuses any queued envelope
    assert dht._responses == {}
    dht.tick_budget = DEFAULT_TICK_BUDGET
    before = net.stats.copy()
    assert dht.get(90, "42") == [b"v"]
    delta = net.stats.delta_since(before)
    assert {edge: msgs for edge, (msgs, _) in delta.per_edge.items()} == {
        (90, 10): 1, (10, 50): 1, (50, 90): 1,
    }
    assert dht._responses == {}


def _abandon_then_rerun(net, dht, read):
    """Run ``read`` under a one-tick budget, which must abandon it with
    nothing left queued or filed, then again under the default budget; the
    second run's result and its messages per edge."""
    dht.tick_budget = 1
    with pytest.raises(TickBudgetExceeded):
        read()
    net.run_until_quiescent(0)  # a zero budget refuses any queued envelope
    assert dht._responses == {}
    dht.tick_budget = DEFAULT_TICK_BUDGET
    before = net.stats.copy()
    result = read()
    delta = net.stats.delta_since(before)
    assert dht._responses == {}
    return result, {edge: msgs for edge, (msgs, _) in delta.per_edge.items()}


def test_tick_budget_failure_abandons_every_request_of_a_multi_peer_read():
    # each read sends one request to each of two remote peers in one drain;
    # one tick delivers the requests, and their answers are abandoned
    # ranges: 1 -> [b"", b"@"), 3 -> [b"@", b"\x80"), 2 -> [b"\x80", top)
    net, dht = make_service([1, 2, 3])
    for p in (1, 2, 3):
        dht.join(dht.range, p)
    dht.put(dht.range, 1, [("5", b"a"), ("A", b"b"), ("ä", b"c")])
    assert dht.range.intersecting("0", "é") == [1, 3, 2]
    assert _abandon_then_rerun(net, dht, lambda: dht.get_range(1, "0", "é")) == (
        [b"a", b"b", b"c"], {(1, 3): 1, (1, 2): 1, (3, 1): 1, (2, 1): 1}
    )
    # a recomposition fetch from query peer 1 of the roots of documents 2
    # and 3, whose homes are peers 2 and 3
    store = Store(StoreConfig(backend=P2P, peer_count=3))
    for word in ("a", "b", "c"):
        store.store_resource(f"<d><t>{word}</t></d>")
    sids = [store.documents[doc_id].root.label for doc_id in (3, 1, 2)]

    def fetch():
        return store.exec_ctx.fetch_subtree(store.query_peer, sids)

    assert _abandon_then_rerun(store.net, store.dht, fetch) == (
        ["<d><t>c</t></d>", "<d><t>a</t></d>", "<d><t>b</t></d>"],
        {(1, 3): 1, (1, 2): 1, (3, 1): 1, (2, 1): 1},
    )
