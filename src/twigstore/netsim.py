"""Deterministic discrete-event message-passing harness.

Logical time advances in ticks; an envelope sent at tick t is delivered at
t + 1.  The queue is first in, first out: every send stamps ``tick + 1``
and ``tick`` only moves forward, to the stamp of the envelope delivered,
so stamps never decrease in send order and delivering in send order is
delivering in stamp order, envelopes sharing a tick in enqueue order.
The cost unit is bytes: stats are charged at delivery, and self-addressed
envelopes are counted as messages but cost zero network bytes, because the
placement optimizer's objective only cares about remote transfers.
Peers join and never leave: ``send`` refuses an unknown sender or
recipient, so every queued envelope has a handler to deliver to.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .errors import DuplicatePeer, TickBudgetExceeded, UnknownPeer

PeerId = int
Behavior = Callable[["Network", "Envelope"], None]


class Envelope:
    """One message in flight; treated as immutable."""

    __slots__ = ("from_peer", "to_peer", "payload", "deliver_at")

    def __init__(self, from_peer: PeerId, to_peer: PeerId, payload: bytes,
                 deliver_at: int):
        self.from_peer = from_peer
        self.to_peer = to_peer
        self.payload = payload
        self.deliver_at = deliver_at


class NetworkStats:
    """Message/byte counters, total and per directed edge."""

    def __init__(
        self,
        messages_sent: int = 0,
        bytes_sent: int = 0,
        per_edge: dict[tuple[PeerId, PeerId], list[int]] | None = None,
    ):
        self.messages_sent = messages_sent
        self.bytes_sent = bytes_sent
        self.per_edge = {} if per_edge is None else per_edge

    def record(self, frm: PeerId, to: PeerId, size: int) -> None:
        charged = 0 if frm == to else size
        self.messages_sent += 1
        self.bytes_sent += charged
        edge = self.per_edge.setdefault((frm, to), [0, 0])
        edge[0] += 1
        edge[1] += charged

    def copy(self) -> "NetworkStats":
        return NetworkStats(
            self.messages_sent,
            self.bytes_sent,
            {k: list(v) for k, v in self.per_edge.items()},
        )

    def delta_since(self, earlier: "NetworkStats") -> "NetworkStats":
        per_edge = {}
        for edge, (msgs, byts) in self.per_edge.items():
            prev = earlier.per_edge.get(edge, [0, 0])
            if msgs != prev[0] or byts != prev[1]:
                per_edge[edge] = [msgs - prev[0], byts - prev[1]]
        return NetworkStats(
            self.messages_sent - earlier.messages_sent,
            self.bytes_sent - earlier.bytes_sent,
            per_edge,
        )

    def report(self) -> str:
        """Flat text report: one "from to messages bytes" line per edge."""
        lines = [
            f"{frm} {to} {msgs} {byts}"
            for (frm, to), (msgs, byts) in sorted(self.per_edge.items())
        ]
        lines.append(f"total {self.messages_sent} {self.bytes_sent}")
        return "\n".join(lines) + "\n"


class Network:
    """Single-threaded event loop hosting peers and their message handlers."""

    def __init__(self):
        self.peers: dict[PeerId, Behavior] = {}
        self.stats = NetworkStats()
        self.tick = 0
        self._queue: deque[Envelope] = deque()

    def spawn_peer(self, peer_id: PeerId, behavior: Behavior) -> None:
        if peer_id in self.peers:
            raise DuplicatePeer(f"peer {peer_id} already exists")
        self.peers[peer_id] = behavior

    def send(self, from_peer: PeerId, to_peer: PeerId, payload: bytes) -> None:
        if from_peer not in self.peers:
            raise UnknownPeer(f"sender {from_peer} does not exist")
        if to_peer not in self.peers:
            raise UnknownPeer(f"recipient {to_peer} does not exist")
        self._queue.append(Envelope(from_peer, to_peer, payload, self.tick + 1))

    def drop_pending(self) -> None:
        """Forget every queued envelope undelivered and uncharged."""
        self._queue.clear()

    def run_until_quiescent(self, max_ticks: int) -> None:
        """Drain the queue tick by tick; ``stats`` accumulates deliveries.

        Raises TickBudgetExceeded (leaving undelivered envelopes queued) if
        more than ``max_ticks`` ticks would be needed.
        """
        start = self.tick
        queue = self._queue
        while queue:
            env = queue[0]
            if env.deliver_at - start > max_ticks:
                raise TickBudgetExceeded(
                    f"{len(queue)} envelopes still queued after {max_ticks} ticks"
                )
            queue.popleft()
            self.tick = env.deliver_at
            self.stats.record(env.from_peer, env.to_peer, len(env.payload))
            self.peers[env.to_peer](self, env)
