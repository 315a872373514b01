import heapq

import pytest
from hypothesis import given, settings, strategies as st

from twigstore.errors import DuplicatePeer, TickBudgetExceeded, UnknownPeer
from twigstore.netsim import Network


def collect(log):
    def handler(net, env):
        log.append((env.from_peer, env.to_peer, env.payload))
    return handler


def test_spawn_and_duplicate():
    net = Network()
    for p in (1, 2, 3):
        net.spawn_peer(p, collect([]))
    assert len(net.peers) == 3
    assert net.stats.messages_sent == 0
    with pytest.raises(DuplicatePeer):
        net.spawn_peer(1, collect([]))


def test_send_requires_both_peers():
    net = Network()
    net.spawn_peer(1, collect([]))
    with pytest.raises(UnknownPeer):
        net.send(1, 2, b"x")
    with pytest.raises(UnknownPeer):
        net.send(7, 1, b"x")


def test_bytes_counted_at_delivery():
    net = Network()
    log = []
    net.spawn_peer(1, collect(log))
    net.spawn_peer(2, collect(log))
    net.send(1, 2, b"x" * 100)
    assert net.stats.bytes_sent == 0  # not yet delivered
    net.run_until_quiescent(10)
    assert net.stats.bytes_sent == 100
    assert log == [(1, 2, b"x" * 100)]


def test_self_send_is_free():
    net = Network()
    log = []
    net.spawn_peer(1, collect(log))
    net.send(1, 1, b"y" * 50)
    net.run_until_quiescent(10)
    assert log == [(1, 1, b"y" * 50)]
    assert net.stats.messages_sent == 1
    assert net.stats.bytes_sent == 0
    assert net.stats.per_edge[(1, 1)] == [1, 0]


def test_fifo_within_tick():
    net = Network()
    log = []
    net.spawn_peer(1, collect(log))
    net.spawn_peer(2, collect(log))
    net.send(1, 2, b"first")
    net.send(1, 2, b"second")
    net.run_until_quiescent(10)
    assert [p for _, _, p in log] == [b"first", b"second"]


def test_ping_pong_counts():
    net = Network()

    def ping(net_, env):
        if env.payload == b"ping!ping!":
            net_.send(env.to_peer, env.from_peer, b"pong!pong!")

    net.spawn_peer(1, ping)
    net.spawn_peer(2, ping)
    net.send(1, 2, b"ping!ping!")
    net.run_until_quiescent(10)
    assert net.stats.messages_sent == 2
    assert net.stats.bytes_sent == 20


def test_forward_chain_bytes():
    net = Network()
    peers = [1, 2, 3, 4, 5, 6]

    def forward(net_, env):
        me = env.to_peer
        if me < 6:
            net_.send(me, me + 1, env.payload)

    for p in peers:
        net.spawn_peer(p, forward)
    net.send(1, 2, b"12345678")
    net.run_until_quiescent(10)
    # 5 forwards of 8 bytes: 1->2, 2->3, 3->4, 4->5, 5->6
    assert net.stats.bytes_sent == 40
    assert net.stats.messages_sent == 5


def test_empty_queue_returns_immediately():
    net = Network()
    before = net.stats.copy()
    net.run_until_quiescent(1)
    assert net.stats.delta_since(before).messages_sent == 0


def test_tick_budget_conserves_envelopes():
    net = Network()
    pinging = [True]

    def forward(net_, env):
        if pinging:
            net_.send(env.to_peer, env.from_peer, env.payload)  # ping forever

    net.spawn_peer(1, forward)
    net.spawn_peer(2, forward)
    net.send(1, 2, b"x")
    with pytest.raises(TickBudgetExceeded):
        net.run_until_quiescent(5)
    delivered = net.stats.messages_sent
    assert delivered == 5
    # the undelivered envelope is still queued, alone: a drain that sends
    # nothing more delivers exactly one
    pinging.clear()
    net.run_until_quiescent(5)
    assert net.stats.messages_sent == delivered + 1


def test_stats_totals_match_edges():
    net = Network()
    for p in (1, 2, 3):
        net.spawn_peer(p, collect([]))
    for _ in range(4):
        net.send(1, 2, b"abc")
        net.send(2, 3, b"defg")
    net.run_until_quiescent(10)
    msgs = sum(m for m, _ in net.stats.per_edge.values())
    byts = sum(b for _, b in net.stats.per_edge.values())
    assert (msgs, byts) == (net.stats.messages_sent, net.stats.bytes_sent)


def test_determinism_across_runs():
    def run():
        net = Network()
        log = []

        def fanout(net_, env):
            log.append((env.from_peer, env.to_peer, env.payload))
            if len(env.payload) > 1:
                for nxt in (1, 2, 3):
                    if nxt != env.to_peer:
                        net_.send(env.to_peer, nxt, env.payload[1:])

        for p in (1, 2, 3):
            net.spawn_peer(p, fanout)
        net.send(1, 2, b"seed")
        net.run_until_quiescent(50)
        return log, net.stats.report()

    first, second = run(), run()
    assert first == second


def test_report_format():
    net = Network()
    for p in (1, 2):
        net.spawn_peer(p, collect([]))
    net.send(1, 2, b"12345")
    net.run_until_quiescent(5)
    assert net.stats.report() == "1 2 1 5\ntotal 1 5\n"


def _follow_ups(me, payload):
    """The envelopes a peer sends on receiving ``payload``: each is shorter,
    so every chain ends."""
    if len(payload) > 1:
        yield payload[0] % 4 + 1, payload[1:]
    if payload[0] % 3 == 0 and len(payload) > 2:
        yield me, payload[2:]


class _HeapModel:
    """Delivery by a heap ordered on (deliver tick, send sequence)."""

    def __init__(self):
        self.tick = 0
        self.seq = 0
        self.queue = []
        self.log = []

    def send(self, frm, to, payload):
        self.seq += 1
        heapq.heappush(self.queue, (self.tick + 1, self.seq, frm, to, payload))

    def run_until_quiescent(self, max_ticks):
        start = self.tick
        while self.queue:
            if self.queue[0][0] - start > max_ticks:
                raise TickBudgetExceeded("budget")
            self.tick = self.queue[0][0]
            while self.queue and self.queue[0][0] == self.tick:
                _, _, frm, to, payload = heapq.heappop(self.queue)
                self.log.append((self.tick, frm, to, payload))
                for nxt, body in _follow_ups(to, payload):
                    self.send(to, nxt, body)


_PEER = st.integers(1, 4)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("send"), _PEER, _PEER, st.binary(min_size=1, max_size=10)),
            st.tuples(st.just("drain"), st.integers(0, 12)),
        ),
        max_size=24,
    )
)
def test_delivery_follows_send_order_like_a_heap(ops):
    net, model, log = Network(), _HeapModel(), []

    def handler(net_, env):
        assert env.deliver_at == net_.tick
        log.append((net_.tick, env.from_peer, env.to_peer, env.payload))
        for nxt, body in _follow_ups(env.to_peer, env.payload):
            net_.send(env.to_peer, nxt, body)

    for p in (1, 2, 3, 4):
        net.spawn_peer(p, handler)
    for op in ops + [("drain", 100)]:
        if op[0] == "send":
            net.send(*op[1:])
            model.send(*op[1:])
            continue
        outcomes = []
        for sim in (net, model):
            try:
                sim.run_until_quiescent(op[1])
                outcomes.append(None)
            except TickBudgetExceeded:
                outcomes.append("exceeded")
        assert outcomes[0] == outcomes[1]
        assert log == model.log
        assert (net.tick, len(net._queue)) == (model.tick, len(model.queue))
    net.run_until_quiescent(0)  # a zero budget refuses any queued envelope
    assert net.stats.messages_sent == len(log)
