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
from twigstore.netsim import Network, NetworkStats
from twigstore.overlay import (
    DEFAULT_TICK_BUDGET,
    DhtService,
    HashOverlay,
    RangeOverlay,
    fnv1a64,
    pack_count,
    pack_items,
    pack_str,
    ring_hash,
    unpack_count,
    unpack_items,
    unpack_str,
)


def make_service(peer_ids, hash_mode="decimal", range_domain=None):
    net = Network()
    dht = DhtService(
        net,
        hash=HashOverlay(hash_mode),
        range=RangeOverlay("decimal" if range_domain else "bytes", range_domain),
    )
    for p in peer_ids:
        dht.add_peer(p)
    return net, dht


def test_fnv1a64_known_vector():
    # standard FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_ring_ownership_after_join():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
    ov = dht.hash
    dht.add_peer(30)
    dht.join(dht.hash, 30)
    st = ov.members[30]
    assert (ov.members[st.predecessor].position, st.position) == (10, 30)
    assert ov.owner_of("25") == 30
    assert ov.owner_of("30") == 30
    assert ov.owner_of("31") == 50


def test_first_and_second_range_joiner():
    net, dht = make_service([1, 2], range_domain=(Fraction(0), Fraction(100)))
    dht.join(dht.range, 1)
    ov = dht.range
    assert (ov.members[1].lo, ov.members[1].hi) == (0, 100)
    dht.join(dht.range, 2)
    ranges = sorted((st.lo, st.hi) for st in ov.members.values())
    assert ranges == [(0, 50), (50, 100)]


def test_hash_leave_absorbs_arc():
    net, dht = make_service([10, 30, 50, 90])
    for p in (10, 30, 50, 90):
        dht.join(dht.hash, p)
    dht.put(dht.hash, 10, [("25", b"v")])
    dht.leave(dht.hash, 30)
    ov = dht.hash
    assert ov.owner_of("25") == 50
    assert dht.get(dht.hash, 10, "25") == [b"v"]


def test_leave_last_member_then_no_members():
    net, dht = make_service([10])
    dht.join(dht.hash, 10)
    dht.leave(dht.hash, 10)
    with pytest.raises(NoMembers):
        dht.get(dht.hash, 10, "5")
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
    assert sorted(dht.get(dht.hash, 50, "42")) == [b"v1", b"v2"]
    assert dht.get(dht.hash, 10, "77") == []
    # key 42 is owned by peer 50
    assert dht.hash.owner_of("42") == 50
    assert dht.hash.members[50].store["42"] == [b"v1", b"v2"]


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
    assert dht.get(dht.hash, 50, "27") == [b"kept"]


def test_get_range_basics():
    net, dht = make_service([1, 2], range_domain=(Fraction(0), Fraction(100)))
    dht.join(dht.range, 1)
    dht.join(dht.range, 2)
    for key in ("5", "12", "17", "30"):
        dht.put(dht.range, 1, [(key, key.encode())])
    assert dht.get_range(1, "10", "20") == [("12", b"12"), ("17", b"17")]
    assert dht.get_range(1, "15", "15") == []
    assert dht.get_range(2, "40", "60") == []
    assert dht.range.last_contacted == (1, 2)


def test_get_range_contacts_only_intersecting_peers():
    net, dht = make_service([1, 2], range_domain=(Fraction(0), Fraction(100)))
    dht.join(dht.range, 1)
    dht.join(dht.range, 2)
    dht.get_range(1, "40", "60")
    assert dht.range.last_contacted == (1, 2)
    dht.get_range(1, "10", "20")
    assert dht.range.last_contacted == (1,)
    dht.get_range(1, "60", "80")
    assert dht.range.last_contacted == (2,)


def test_envelopes_name_their_overlay_by_wire_tag_alone():
    # ranges: 10 -> [0, 25), 90 -> [25, 50), 50 -> [50, 100); key 7 is
    # peer 10's on both overlays, so an envelope handled by the wrong
    # overlay would land in the wrong store
    net, dht = make_service([10, 50, 90], range_domain=(Fraction(0), Fraction(100)))
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
        dht.join(dht.range, p)
    assert dht.hash.owner_of("7") == dht.range.owner_of("7") == 10
    sent = _recording(net)
    dht.put(dht.hash, 50, [("7", b"h")])
    dht.put(dht.range, 50, [("7", b"r")])
    assert dht.hash.members[10].store == {"7": [b"h"]}
    assert dht.range.members[10].store == {"7": [b"r"]}
    assert dht.get(dht.hash, 50, "7") == [b"h"]  # request 1
    assert dht.get(dht.range, 50, "7") == [b"r"]  # request 2
    assert dht.get_range(50, "0", "30") == [("7", b"r")]  # requests 3 and 4
    assert dht.range.last_contacted == (10, 90)

    def u16(n):
        return n.to_bytes(2, "big")

    def request(tag, req):  # wire tag, request id, origin peer
        return bytes([tag]) + req.to_bytes(4, "big") + (50).to_bytes(8, "big")

    def one_item_put(tag, value):  # wire tag, item count, key, value
        return bytes([tag]) + u16(1) + u16(1) + b"7" + (1).to_bytes(4, "big") + value

    requests = {
        0x01: {one_item_put(0x01, b"h")},
        0x04: {one_item_put(0x04, b"r")},
        0x02: {request(0x02, 1) + u16(1) + b"7"},
        0x05: {request(0x05, 2) + u16(1) + b"7"},
        0x06: {request(0x06, req) + u16(1) + b"0" + u16(2) + b"30" for req in (3, 4)},
    }
    for tag, payloads in requests.items():
        assert {payload for _, _, payload in sent if payload[0] == tag} == payloads
    # the range overlay's owner is every range request's one hop
    assert [(frm, to) for frm, to, payload in sent if payload[0] in (0x04, 0x05)] == [
        (50, 10), (50, 10)
    ]
    assert [to for _, to, payload in sent if payload[0] == 0x06] == [10, 90]


def test_range_leave_smaller_neighbor_absorbs():
    net, dht = make_service([1, 2, 3], range_domain=(Fraction(0), Fraction(100)))
    for p in (1, 2, 3):
        dht.join(dht.range, p)
    ov = dht.range
    # ranges now: 1 -> [0,25), 3 -> [25,50), 2 -> [50,100)
    assert (ov.members[1].lo, ov.members[1].hi) == (0, 25)
    assert (ov.members[3].lo, ov.members[3].hi) == (25, 50)
    dht.put(dht.range, 1, [("30", b"x")])
    dht.leave(dht.range, 3)
    # left neighbor [0,25) is smaller than right neighbor [50,100)
    assert (ov.members[1].lo, ov.members[1].hi) == (0, 50)
    assert dht.get(dht.range, 2, "30") == [b"x"]


def _ring_integrity(ov):
    if not ov.members:
        return
    start = next(iter(ov.members))
    seen = []
    cur = start
    while True:
        seen.append(cur)
        cur = ov.members[cur].successor
        if cur == start:
            break
        assert len(seen) <= len(ov.members)
    assert sorted(seen) == sorted(ov.members)
    # stores only hold owned keys
    for pid, st in ov.members.items():
        for key in st.store:
            assert ov.owner_of(key) == pid


def _partition_integrity(ov, domain):
    if not ov.members:
        return
    intervals = sorted((st.lo, st.hi) for st in ov.members.values())
    assert intervals[0][0] == domain[0]
    assert intervals[-1][1] == domain[1]
    for (alo, ahi), (blo, bhi) in zip(intervals, intervals[1:]):
        assert ahi == blo
    for pid, st in ov.members.items():
        for key in st.store:
            assert ov.owner_of(key) == pid


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_churn_against_shadow_map(seed):
    rng = random.Random(seed)
    peer_pool = list(range(1, 25))
    net, dht = make_service(peer_pool, hash_mode="fnv",
                            range_domain=None)
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
            got = dht.get(dht.hash, rng.choice(hash_members), key)
            assert sorted(got) == sorted(shadow_hash.get(key, []))
        else:
            lo = f"k{rng.randint(0, 40):03d}"
            hi = f"k{rng.randint(0, 40):03d}"
            got = dht.get_range(rng.choice(range_members), lo, hi)
            want = sorted(
                (k, v)
                for k, values in shadow_range.items()
                if lo <= k < hi
                for v in values
            )
            assert sorted(got) == want
        _ring_integrity(dht.hash)
        _partition_integrity(dht.range, dht.range.domain)

    # final sweep: every key readable from every member
    for key, values in shadow_hash.items():
        got = dht.get(dht.hash, rng.choice(hash_members), key)
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
    net, dht = make_service([10, 50], range_domain=(Fraction(0), Fraction(100)))
    for p in (10, 50):
        dht.join(dht.hash, p)
        dht.join(dht.range, p)
    hash_ov, range_ov = dht.hash, dht.range
    assert hash_ov.owner_of("42") == 50 and range_ov.owner_of("70") == 50
    for v in values:
        hash_ov.store_value(50, "42", v)
        range_ov.store_value(50, "70", v)
    assert dht.get(dht.hash, 10, "42") == values
    assert dht.get(dht.range, 10, "70") == values
    assert dht.get_range(10, "60", "80") == [("70", v) for v in values]


@settings(max_examples=60, deadline=None)
@given(
    churn=st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=40),
    keys=st.lists(st.text(max_size=8), min_size=1, max_size=12),
)
def test_cached_ring_matches_brute_force_owner(churn, keys):
    pool = range(1, 41)
    net, dht = make_service(pool, hash_mode="fnv")
    ov = dht.hash
    dht.join(dht.hash, 1)
    for joining, peer in churn:
        if joining and peer not in ov.members:
            dht.join(dht.hash, peer)
        elif not joining and peer in ov.members and len(ov.members) > 1:
            dht.leave(dht.hash, peer)
    ring = sorted((state.position, pid) for pid, state in ov.members.items())
    members = [pid for _, pid in ring]
    for i, key in enumerate(keys):
        assert ov.key_position(key) == ring_hash(key)
        kpos = ring_hash(key)
        owner = next((pid for pos, pid in ring if pos >= kpos), ring[0][1])
        assert ov.owner_of(key) == owner
        value = f"v{i}".encode()
        dht.put(dht.hash, members[i % len(members)], [(key, value)])
        assert value in ov.members[owner].store[key]
        assert value in dht.get(dht.hash, members[-1 - i % len(members)], key)


# keys of 64 KiB and more cost milliseconds to hash in pure Python
_key_hash = lru_cache(maxsize=None)(ring_hash)


def _brute_owner(ring, kpos):
    return next((pid for pos, pid in ring if pos >= kpos), ring[0][1])


def _chord_hop(ov, peer, key):
    """Chord's next hop from ``peer`` toward ``key``, by brute force: the
    successor if it owns the key, else the farthest finger before the key,
    the fingers being the owners of ``position + 2**i`` for i in 0..63."""
    span = 1 << 64
    ring = sorted((state.position, pid) for pid, state in ov.members.items())
    pos = ov.members[peer].position
    fingers = set()
    for i in range(64):
        target = (pos + (1 << i)) % span
        fingers.add(_brute_owner(ring, target))
    fingers.discard(peer)
    dist = {f: (ov.members[f].position - pos) % span for f in fingers}
    kpos = int(key) if ov.mode == "decimal" else _key_hash(key)
    d = (kpos - pos) % span
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
    mode=st.sampled_from(["fnv", "decimal"]),
    pool=st.lists(
        st.integers(0, 60) | st.integers(0, 2**64 - 1), min_size=1, max_size=8, unique=True
    ),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(1, 40), st.lists(st.integers(0, 7), max_size=12)),
        max_size=25,
    ),
)
def test_finger_routed_batches_reach_the_owner_in_order(mode, pool, steps):
    keys = [str(k) for k in pool]
    net, dht = make_service(range(1, 41), hash_mode=mode)
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
            assert ov.members[ov.owner_of(key)].store[key] == shadow[key]
            sent.clear()
            assert dht.get(dht.hash, members[(peer + len(key)) % len(members)], key) == shadow[key]
            _check_hops(ov, sent)


def test_finger_routing_hop_bound_at_64_peers():
    net, dht = make_service(range(1, 65), hash_mode="fnv")
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
        assert dht.get(dht.hash, 64 - i % 64, key) == [b"v"]
    assert 2 <= (net.stats.messages_sent - before) / len(keys) <= 7


def test_batch_shares_envelopes_along_the_route():
    net, dht = make_service([10, 50, 90], range_domain=(Fraction(0), Fraction(100)))
    for p in (10, 50, 90):
        dht.join(dht.hash, p)
        dht.join(dht.range, p)
    before = net.stats.messages_sent
    # 50 owns (10, 50] and 90 owns (50, 90]; 90 routes through 10
    dht.put(dht.hash, 90, [("42", b"a"), ("60", b"own"), ("20", b"b"), ("42", b"c")])
    assert net.stats.messages_sent - before == 2  # 90 -> 10 -> 50, one envelope each
    assert dht.hash.members[50].store == {"42": [b"a", b"c"], "20": [b"b"]}
    assert dht.hash.members[90].store == {"60": [b"own"]}
    # the range overlay splits [0, 100) into [0, 25), [25, 50), [50, 100)
    before = net.stats.messages_sent
    dht.put(dht.range, 10, [("30", b"x"), ("70", b"y"), ("5", b"z"), ("31", b"w")])
    assert net.stats.messages_sent - before == 2  # one envelope per remote owner
    assert dht.get_range(50, "0", "100") == [
        ("5", b"z"), ("30", b"x"), ("31", b"w"), ("70", b"y")
    ]


def _decoding_router(ov, via, items):
    """The envelopes ``(from, to, payload)`` of one hash put, in delivery
    order, routed the plain way outside the service: each peer decodes the
    envelope it receives, keeps the items it owns and encodes each next
    hop's items afresh, hops chosen by ``_chord_hop``."""
    ring = sorted((state.position, pid) for pid, state in ov.members.items())
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
    net, dht = make_service(members, hash_mode="fnv")
    ov = dht.hash
    for p in members:
        dht.join(dht.hash, p)
    ring = sorted((state.position, pid) for pid, state in ov.members.items())
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
            assert ov.members[owner].store[key] == shadow[key]
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
@given(
    peer_count=st.integers(1, 8),
    pick=st.integers(0, 7),
    items=st.lists(
        st.tuples(st.integers(0, 99).map(str), st.binary(max_size=4)), max_size=24
    ),
)
def test_range_put_sends_one_envelope_per_remote_owner(peer_count, pick, items):
    members = list(range(1, peer_count + 1))
    net, dht = make_service(members, range_domain=(Fraction(0), Fraction(100)))
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
            assert ov.members[owner].store[key] == [v for k, v in group if k == key]


def test_range_get_asks_the_owner_once():
    members = [1, 2, 3, 4]
    net, dht = make_service(members, range_domain=(Fraction(0), Fraction(100)))
    for p in members:
        dht.join(dht.range, p)
    ov = dht.range
    for key in ("5", "30", "55", "80"):
        dht.put(dht.range, ov.owner_of(key), [(key, key.encode())])
    sent = _recording(net)
    for key in ("5", "30", "55", "80", "99"):
        owner = ov.owner_of(key)
        want = [key.encode()] if key != "99" else []
        for via in members:
            sent.clear()
            assert dht.get(dht.range, via, key) == want
            if via == owner:
                assert sent == []
            else:
                assert [(frm, to, payload[0]) for frm, to, payload in sent] == [
                    (via, owner, 0x05), (owner, via, 0x03)
                ]


def test_register_handler_refuses_a_tag_in_use():
    net, dht = make_service([1])
    for tag in range(0x01, 0x08):
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
        dht.get(dht.hash, 90, "42")
    assert net.pending_count == 0
    assert dht._responses == {}
    dht.tick_budget = DEFAULT_TICK_BUDGET
    before = net.stats.copy()
    assert dht.get(dht.hash, 90, "42") == [b"v"]
    delta = net.stats.delta_since(before)
    assert {edge: msgs for edge, (msgs, _) in delta.per_edge.items()} == {
        (90, 10): 1, (10, 50): 1, (50, 90): 1,
    }
    assert dht._responses == {}
