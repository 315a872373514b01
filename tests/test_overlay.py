import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twigstore.errors import (
    AlreadyMember,
    NoMembers,
    NotMember,
    NotRangeCapable,
)
from twigstore.netsim import Network
from twigstore.overlay import (
    DhtService,
    fnv1a64,
    pack_count,
    pack_str,
    ring_hash,
    unpack_count,
    unpack_items,
    unpack_str,
)


def make_service(peer_ids, hash_mode="decimal", range_domain=None):
    net = Network()
    dht = DhtService(net)
    for p in peer_ids:
        dht.add_peer(p)
    dht.create_hash_overlay(0, mode=hash_mode)
    dht.create_range_overlay(
        1,
        mode="decimal" if range_domain else "bytes",
        domain=range_domain,
    )
    return net, dht


def test_fnv1a64_known_vector():
    # standard FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_ring_ownership_after_join():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(0, p)
    ov = dht.overlays[0]
    dht.add_peer(30)
    dht.join(0, 30)
    st = ov.members[30]
    assert (ov.members[st.predecessor].position, st.position) == (10, 30)
    assert ov.owner_of("25") == 30
    assert ov.owner_of("30") == 30
    assert ov.owner_of("31") == 50


def test_first_and_second_range_joiner():
    net, dht = make_service([1, 2], range_domain=(Fraction(0), Fraction(100)))
    dht.join(1, 1)
    ov = dht.overlays[1]
    assert (ov.members[1].lo, ov.members[1].hi) == (0, 100)
    dht.join(1, 2)
    ranges = sorted((st.lo, st.hi) for st in ov.members.values())
    assert ranges == [(0, 50), (50, 100)]


def test_hash_leave_absorbs_arc():
    net, dht = make_service([10, 30, 50, 90])
    for p in (10, 30, 50, 90):
        dht.join(0, p)
    dht.put(0, 10, [("25", b"v")])
    dht.leave(0, 30)
    ov = dht.overlays[0]
    assert ov.owner_of("25") == 50
    assert dht.get(0, 10, "25") == [b"v"]


def test_leave_last_member_then_no_members():
    net, dht = make_service([10])
    dht.join(0, 10)
    dht.leave(0, 10)
    with pytest.raises(NoMembers):
        dht.get(0, 10, "5")
    with pytest.raises(NotMember):
        dht.leave(0, 10)


def test_join_twice_raises():
    net, dht = make_service([10])
    dht.join(0, 10)
    with pytest.raises(AlreadyMember):
        dht.join(0, 10)


def test_put_get_multiset():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(0, p)
    dht.put(0, 10, [("42", b"v1")])
    dht.put(0, 90, [("42", b"v2")])
    assert sorted(dht.get(0, 50, "42")) == [b"v1", b"v2"]
    assert dht.get(0, 10, "77") == []
    # key 42 is owned by peer 50
    assert dht.overlays[0].owner_of("42") == 50
    assert dht.overlays[0].members[50].store["42"] == [b"v1", b"v2"]


def test_local_put_costs_zero_bytes():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(0, p)
    before = net.stats.bytes_sent
    dht.put(0, 50, [("42", b"value")])  # 50 owns 42
    assert net.stats.bytes_sent == before


def test_remote_put_routes_by_successor_hops():
    net, dht = make_service([10, 50, 90])
    for p in (10, 50, 90):
        dht.join(0, p)
    before = net.stats.messages_sent
    dht.put(0, 90, [("42", b"v")])  # 90 -> 10 -> 50
    assert net.stats.messages_sent - before == 2


def test_key_transferred_on_owner_leave():
    net, dht = make_service([10, 30, 50])
    for p in (10, 30, 50):
        dht.join(0, p)
    dht.put(0, 10, [("27", b"kept")])
    assert dht.overlays[0].owner_of("27") == 30
    dht.leave(0, 30)
    assert dht.get(0, 50, "27") == [b"kept"]


def test_get_range_basics():
    net, dht = make_service([1, 2], range_domain=(Fraction(0), Fraction(100)))
    dht.join(1, 1)
    dht.join(1, 2)
    for key in ("5", "12", "17", "30"):
        dht.put(1, 1, [(key, key.encode())])
    assert dht.get_range(1, 1, "10", "20") == [("12", b"12"), ("17", b"17")]
    assert dht.get_range(1, 1, "15", "15") == []
    assert dht.get_range(1, 2, "40", "60") == []
    assert dht.overlays[1].last_contacted == (1, 2)


def test_get_range_contacts_only_intersecting_peers():
    net, dht = make_service([1, 2], range_domain=(Fraction(0), Fraction(100)))
    dht.join(1, 1)
    dht.join(1, 2)
    dht.get_range(1, 1, "40", "60")
    assert dht.overlays[1].last_contacted == (1, 2)
    dht.get_range(1, 1, "10", "20")
    assert dht.overlays[1].last_contacted == (1,)
    dht.get_range(1, 1, "60", "80")
    assert dht.overlays[1].last_contacted == (2,)


def test_get_range_on_hash_overlay_raises():
    net, dht = make_service([1])
    dht.join(0, 1)
    with pytest.raises(NotRangeCapable):
        dht.get_range(0, 1, "a", "b")


def test_range_leave_smaller_neighbor_absorbs():
    net, dht = make_service([1, 2, 3], range_domain=(Fraction(0), Fraction(100)))
    for p in (1, 2, 3):
        dht.join(1, p)
    ov = dht.overlays[1]
    # ranges now: 1 -> [0,25), 3 -> [25,50), 2 -> [50,100)
    assert (ov.members[1].lo, ov.members[1].hi) == (0, 25)
    assert (ov.members[3].lo, ov.members[3].hi) == (25, 50)
    dht.put(1, 1, [("30", b"x")])
    dht.leave(1, 3)
    # left neighbor [0,25) is smaller than right neighbor [50,100)
    assert (ov.members[1].lo, ov.members[1].hi) == (0, 50)
    assert dht.get(1, 2, "30") == [b"x"]


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
        dht.join(0, p)
        dht.join(1, p)
        hash_members.append(p)
        range_members.append(p)

    for step in range(600):
        op = rng.random()
        if op < 0.12 and len(hash_members) < 16:
            candidates = [p for p in peer_pool if p not in hash_members]
            p = rng.choice(candidates)
            dht.join(0, p)
            hash_members.append(p)
        elif op < 0.2 and len(hash_members) > 3:
            p = rng.choice(hash_members)
            dht.leave(0, p)
            hash_members.remove(p)
        elif op < 0.28 and len(range_members) < 16:
            candidates = [p for p in peer_pool if p not in range_members]
            p = rng.choice(candidates)
            dht.join(1, p)
            range_members.append(p)
        elif op < 0.34 and len(range_members) > 3:
            p = rng.choice(range_members)
            dht.leave(1, p)
            range_members.remove(p)
        elif op < 0.6:
            key = str(rng.randint(0, 40))
            value = f"v{step}".encode()
            dht.put(0, rng.choice(hash_members), [(key, value)])
            shadow_hash.setdefault(key, []).append(value)
        elif op < 0.75:
            key = f"k{rng.randint(0, 40):03d}"
            value = f"r{step}".encode()
            dht.put(1, rng.choice(range_members), [(key, value)])
            shadow_range.setdefault(key, []).append(value)
        elif op < 0.9:
            key = str(rng.randint(0, 40))
            got = dht.get(0, rng.choice(hash_members), key)
            assert sorted(got) == sorted(shadow_hash.get(key, []))
        else:
            lo = f"k{rng.randint(0, 40):03d}"
            hi = f"k{rng.randint(0, 40):03d}"
            got = dht.get_range(1, rng.choice(range_members), lo, hi)
            want = sorted(
                (k, v)
                for k, values in shadow_range.items()
                if lo <= k < hi
                for v in values
            )
            assert sorted(got) == want
        _ring_integrity(dht.overlays[0])
        _partition_integrity(dht.overlays[1], dht.overlays[1].domain)

    # final sweep: every key readable from every member
    for key, values in shadow_hash.items():
        got = dht.get(0, rng.choice(hash_members), key)
        assert sorted(got) == sorted(values)


def test_successor_routing_hop_bound():
    # every hop moves strictly clockwise toward the owner, so a request
    # makes at most one hop per member
    positions = [5, 17, 33, 49, 62, 78, 85, 99]
    net, dht = make_service(positions)
    for p in positions:
        dht.join(0, p)
    for via in positions:
        for key in ("3", "40", "70", "99"):
            before = net.stats.messages_sent
            dht.put(0, via, [(key, b"v")])
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
        dht.join(0, p)
        dht.join(1, p)
    hash_ov, range_ov = dht.overlays[0], dht.overlays[1]
    assert hash_ov.owner_of("42") == 50 and range_ov.owner_of("70") == 50
    for v in values:
        hash_ov.store_value(50, "42", v)
        range_ov.store_value(50, "70", v)
    assert dht.get(0, 10, "42") == values
    assert dht.get(1, 10, "70") == values
    assert dht.get_range(1, 10, "60", "80") == [("70", v) for v in values]


@settings(max_examples=60, deadline=None)
@given(
    churn=st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=40),
    keys=st.lists(st.text(max_size=8), min_size=1, max_size=12),
)
def test_cached_ring_matches_brute_force_owner(churn, keys):
    pool = range(1, 41)
    net, dht = make_service(pool, hash_mode="fnv")
    ov = dht.overlays[0]
    dht.join(0, 1)
    for joining, peer in churn:
        if joining and peer not in ov.members:
            dht.join(0, peer)
        elif not joining and peer in ov.members and len(ov.members) > 1:
            dht.leave(0, peer)
    ring = sorted((state.position, pid) for pid, state in ov.members.items())
    members = [pid for _, pid in ring]
    for i, key in enumerate(keys):
        assert ov.key_position(key) == ring_hash(key)
        kpos = ring_hash(key)
        owner = next((pid for pos, pid in ring if pos >= kpos), ring[0][1])
        assert ov.owner_of(key) == owner
        value = f"v{i}".encode()
        dht.put(0, members[i % len(members)], [(key, value)])
        assert value in ov.members[owner].store[key]
        assert value in dht.get(0, members[-1 - i % len(members)], key)


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
        fingers.add(next((pid for p, pid in ring if p >= target), ring[0][1]))
    fingers.discard(peer)
    dist = {f: (ov.members[f].position - pos) % span for f in fingers}
    kpos = int(key) if ov.mode == "decimal" else ring_hash(key)
    d = (kpos - pos) % span
    successor = min(fingers, key=dist.get)
    if d <= dist[successor]:
        return successor
    return max((f for f in fingers if dist[f] < d), key=dist.get)


def _check_hops(ov, sent):
    """Every put and get request went to Chord's next hop for its keys."""
    for frm, to, payload in sent:
        if payload[0] == 0x01:
            keys = [key for key, _ in unpack_items(payload, 2)]
        elif payload[0] == 0x02:
            keys = [unpack_str(payload, 14)[0]]
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
    ov = dht.overlays[0]
    sent = []
    real_send = net.send
    net.send = lambda frm, to, payload: sent.append((frm, to, payload)) or real_send(
        frm, to, payload
    )
    dht.join(0, 1)
    shadow: dict[str, list[bytes]] = {}
    for n, (joining, peer, picks) in enumerate(steps):
        if joining and peer not in ov.members:
            dht.join(0, peer)
        elif not joining and peer in ov.members and len(ov.members) > 1:
            dht.leave(0, peer)
        members = sorted(ov.members)
        items = [(keys[i % len(keys)], f"{n}.{j}".encode()) for j, i in enumerate(picks)]
        sent.clear()
        dht.put(0, members[peer % len(members)], items)
        _check_hops(ov, sent)
        for key, value in items:
            shadow.setdefault(key, []).append(value)
        for key in {key for key, _ in items}:
            assert ov.members[ov.owner_of(key)].store[key] == shadow[key]
            sent.clear()
            assert dht.get(0, members[(peer + len(key)) % len(members)], key) == shadow[key]
            _check_hops(ov, sent)


def test_finger_routing_hop_bound_at_64_peers():
    net, dht = make_service(range(1, 65), hash_mode="fnv")
    for p in range(1, 65):
        dht.join(0, p)
    keys = [f"t:name{i}" for i in range(512)]
    # a successor walk would average about 32 hops here
    before = net.stats.messages_sent
    for i, key in enumerate(keys):
        dht.put(0, 1 + i % 64, [(key, b"v")])
    assert 1 <= (net.stats.messages_sent - before) / len(keys) <= 6
    # a get adds the owner's one-message answer to the route
    before = net.stats.messages_sent
    for i, key in enumerate(keys):
        assert dht.get(0, 64 - i % 64, key) == [b"v"]
    assert 2 <= (net.stats.messages_sent - before) / len(keys) <= 7


def test_batch_shares_envelopes_along_the_route():
    net, dht = make_service([10, 50, 90], range_domain=(Fraction(0), Fraction(100)))
    for p in (10, 50, 90):
        dht.join(0, p)
        dht.join(1, p)
    before = net.stats.messages_sent
    # 50 owns (10, 50] and 90 owns (50, 90]; 90 routes through 10
    dht.put(0, 90, [("42", b"a"), ("60", b"own"), ("20", b"b"), ("42", b"c")])
    assert net.stats.messages_sent - before == 2  # 90 -> 10 -> 50, one envelope each
    assert dht.overlays[0].members[50].store == {"42": [b"a", b"c"], "20": [b"b"]}
    assert dht.overlays[0].members[90].store == {"60": [b"own"]}
    # the range overlay splits [0, 100) into [0, 25), [25, 50), [50, 100)
    before = net.stats.messages_sent
    dht.put(1, 10, [("30", b"x"), ("70", b"y"), ("5", b"z"), ("31", b"w")])
    assert net.stats.messages_sent - before == 2  # one envelope per remote owner
    assert dht.get_range(1, 50, "0", "100") == [
        ("5", b"z"), ("30", b"x"), ("31", b"w"), ("70", b"y")
    ]
