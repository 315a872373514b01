"""Deterministic discrete-event message-passing harness.

Logical time advances in ticks; an envelope sent at tick t is delivered at
t + 1, and envelopes sharing a tick are delivered in enqueue order.  The
cost unit is bytes: stats are charged at delivery, and self-addressed
envelopes are counted as messages but cost zero network bytes, because the
placement optimizer's objective only cares about remote transfers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from .errors import DuplicatePeer, TickBudgetExceeded, UnknownPeer

PeerId = int
Behavior = Callable[["Network", "Envelope"], None]


@dataclass(frozen=True, slots=True)
class Envelope:
    from_peer: PeerId
    to_peer: PeerId
    payload: bytes
    deliver_at: int


@dataclass
class NetworkStats:
    """Message/byte counters, total and per directed edge."""

    messages_sent: int = 0
    bytes_sent: int = 0
    per_edge: dict[tuple[PeerId, PeerId], list[int]] = field(default_factory=dict)

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
        self._seq = 0
        self._queue: list[tuple[int, int, Envelope]] = []

    def spawn_peer(self, peer_id: PeerId, behavior: Behavior) -> None:
        if peer_id in self.peers:
            raise DuplicatePeer(f"peer {peer_id} already exists")
        self.peers[peer_id] = behavior

    def remove_peer(self, peer_id: PeerId) -> None:
        if peer_id not in self.peers:
            raise UnknownPeer(f"peer {peer_id} does not exist")
        del self.peers[peer_id]

    def send(self, from_peer: PeerId, to_peer: PeerId, payload: bytes) -> None:
        if from_peer not in self.peers:
            raise UnknownPeer(f"sender {from_peer} does not exist")
        if to_peer not in self.peers:
            raise UnknownPeer(f"recipient {to_peer} does not exist")
        env = Envelope(from_peer, to_peer, payload, self.tick + 1)
        self._seq += 1
        heapq.heappush(self._queue, (env.deliver_at, self._seq, env))

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    def run_until_quiescent(self, max_ticks: int) -> None:
        """Drain the queue tick by tick; ``stats`` accumulates deliveries.

        Raises TickBudgetExceeded (leaving undelivered envelopes queued) if
        more than ``max_ticks`` ticks would be needed.
        """
        start = self.tick
        while self._queue:
            next_tick = self._queue[0][0]
            if next_tick - start > max_ticks:
                raise TickBudgetExceeded(
                    f"{len(self._queue)} envelopes still queued after {max_ticks} ticks"
                )
            self.tick = next_tick
            while self._queue and self._queue[0][0] == self.tick:
                _, _, env = heapq.heappop(self._queue)
                self.stats.record(env.from_peer, env.to_peer, len(env.payload))
                handler = self.peers.get(env.to_peer)
                if handler is None:
                    raise UnknownPeer(f"peer {env.to_peer} vanished before delivery")
                handler(self, env)
