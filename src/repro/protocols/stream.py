"""The reliable channel: the one way a protocol node sends a message that
must arrive (:meth:`ReliableChannel.send`).

Every protocol node composes one (``ProtocolRuntime.channel``).  It owns no
transport: ``send(destination, message)`` puts a message on the wire and
``dispatch(message)`` hands one to its handler, returning the handler's
process if it spawned one.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.common.ids import NodeId
from repro.network.message import Message, MessagePriority
from repro.sim.process import Process


class Rejoin(Message):
    """A restarted node's announcement to a peer, sent once its durable
    state is replayed: re-send what I lost (``ProtocolRuntime.redrive``).
    It acks the peer's reliable stream up to ``handled`` and says how many
    of its own messages to the peer are ``unacked``: the peer answers those
    with its ack, and the restarted node re-sends what the peer had not
    handled."""

    __slots__ = ("handled", "unacked")
    priority = MessagePriority.CONTROL

    def __init__(self, handled: int = 0, unacked: int = 0):
        Message.__init__(self)
        self.handled = handled
        self.unacked = unacked


class Envelope(Message):
    """A :meth:`ReliableChannel.send` message on the wire when a message can
    be lost: the message and its position ``seq`` in the sender's stream to
    this peer.  It travels at the message's priority and costs the
    message's size plus the number."""

    __slots__ = ("seq", "message", "priority", "txn_id")

    def __init__(self, seq: int, message: Message):
        Message.__init__(self)
        self.seq = seq
        self.message = message
        self.priority = message.priority
        self.txn_id = getattr(message, "txn_id", None)

    def size_estimate(self) -> int:
        return self.message.size_estimate() + 8


class StreamAck(Message):
    """Cumulative ack of a reliable stream: the receiver has handled every
    message up to ``watermark``.  Bulk priority: an ack unblocks no
    transaction, it only has to beat the fallback timer."""

    __slots__ = ("watermark",)
    priority = MessagePriority.BULK
    base_size = 40

    def __init__(self, watermark: int = 0):
        Message.__init__(self)
        self.watermark = watermark


class ReliableChannel:
    """One node's ends of its reliable streams, one stream per peer.

    Outbound, per peer: contiguous sequence numbers from 1 (``sent``, the
    last one given out) and every message the peer has not acked, with the
    time it was last sent (``unacked``, in sequence order); a cumulative ack
    drops the records at or below it.  Inbound, per peer: the last sequence
    number handled (``handled``), the arrivals above it (``held``) — the
    successors of a gap, or the next message while a handler process is
    still running (``busy``) — and the peers an ack is scheduled for
    (``acks_due``).  ``sent``, ``unacked`` and ``handled`` are durable;
    :meth:`crash` empties the rest and moves ``_epoch``, which ends the
    re-send process and the acks the crash interrupted.  ``period`` is the
    fallback timer (``crash_resubscribe_us``).
    """

    def __init__(self, sim, node_id, send, dispatch, period: float, counters=None):
        self.sim = sim
        self.node_id = node_id
        self._send = send
        self._dispatch = dispatch
        self.period = period
        self.counters = counters if counters is not None else defaultdict(int)
        self.sent: Dict[NodeId, int] = {}
        self.unacked: Dict[NodeId, Dict[int, list]] = {}
        self.handled: Dict[NodeId, int] = {}
        self.held: Dict[NodeId, Dict[int, Message]] = {}
        self.busy: Set[NodeId] = set()
        self.acks_due: Set[NodeId] = set()
        self._fault_mode = False
        self._epoch = 0
        self._resending = False

    def enable_fault_mode(self) -> None:
        """From now on a message can be lost: send in envelopes."""
        self._fault_mode = True

    # ------------------------------------------------------------- sending
    def send(self, destination: NodeId, message: Message) -> None:
        """Send ``message``, which must arrive: the one way to do so.

        When no message can be lost this is the plain send.  Otherwise the
        message is force-written to the stream to ``destination``, sent in
        an :class:`Envelope` and re-sent until acked: on the peer's
        :class:`Rejoin`, when the peer acks this node's own Rejoin after a
        restart, and on the timer once it stayed unacked a whole period.
        The receiver counts a message handled when its handler (or the
        handler's process) ends, so what a handler keeps for later (SSS's
        Decide that overtook its prepare) must be durable state.
        """
        if not self._fault_mode:
            self._send(destination, message)
            return
        message.sender = self.node_id
        seq = self.append(destination, message, self.sim.now)
        self._send(destination, Envelope(seq, message))
        self._start_resending()

    def append(self, peer: NodeId, message: Message, now: float) -> int:
        """Force-write ``message`` as the next of ``peer``'s stream; its number."""
        seq = self.sent[peer] = self.sent.get(peer, 0) + 1
        self.unacked.setdefault(peer, {})[seq] = [message, now]
        return seq

    def ack(self, peer: NodeId, watermark: int) -> None:
        """Drop every record to ``peer`` at or below ``watermark``."""
        records = self.unacked.get(peer)
        while records:
            seq = next(iter(records))
            if seq > watermark:
                return
            del records[seq]

    def peers(self) -> List[NodeId]:
        """The peers some message has not been acked by, in id order."""
        return sorted(peer for peer, records in self.unacked.items() if records)

    def due(self, peer: NodeId, cutoff: float, now: float) -> List[Tuple[int, Message]]:
        """The unacked records to ``peer`` last sent at or before ``cutoff``,
        stamped as sent ``now``."""
        out = []
        for seq, record in self.unacked.get(peer, {}).items():
            if record[1] <= cutoff:
                record[1] = now
                out.append((seq, record[0]))
        return out

    def _start_resending(self) -> None:
        if not self._resending and self.peers():
            self._resending = True
            Process(self.sim, self._resend_loop(), f"resend@{self.node_id}", self)

    def _resend_loop(self):
        """Every period, re-send what has stayed unacked a whole period:
        what no Rejoin announces (a drop-mode partition, a lost ack)."""
        period = self.period
        while self.peers():
            yield self.sim.timeout(period)
            self._resend(self.peers(), self.sim.now - period)
        self._resending = False

    def _resend(self, peers, cutoff: float) -> None:
        """Re-send the unacked messages to ``peers`` last sent by ``cutoff``."""
        now = self.sim.now
        for peer in peers:
            for seq, message in self.due(peer, cutoff, now):
                self.counters["stream_resends"] += 1
                self._send(peer, Envelope(seq, message))

    # ----------------------------------------------------------- receiving
    def receive(self, peer: NodeId, seq: int, message: Message) -> bool:
        """Hold an arrival from ``peer`` for handling; ``False`` for a duplicate."""
        held = self.held.setdefault(peer, {})
        if seq <= self.handled.get(peer, 0) or seq in held:
            return False
        held[seq] = message
        return True

    def next(self, peer: NodeId) -> Optional[Message]:
        """The held message next in ``peer``'s stream (``None`` at a gap)."""
        held = self.held.get(peer)
        return held.get(self.handled.get(peer, 0) + 1) if held else None

    def advance(self, peer: NodeId) -> None:
        """The next message of ``peer``'s stream has been handled."""
        seq = self.handled[peer] = self.handled.get(peer, 0) + 1
        del self.held[peer][seq]

    def on_envelope(self, envelope: Envelope) -> None:
        peer = envelope.sender
        if self.receive(peer, envelope.seq, envelope.message):
            self._handle(peer)
        else:
            self.counters["stream_duplicates"] += 1
        self._ack_soon(peer)

    def _handle(self, peer: NodeId) -> None:
        """Hand ``peer``'s held messages to their handlers in stream order."""
        while peer not in self.busy:
            message = self.next(peer)
            if message is None:
                return
            process = self._dispatch(message)
            if process is not None and not process.triggered:
                self.busy.add(peer)
                process.add_callback(partial(self._handler_done, peer, self._epoch))
                return
            self.advance(peer)

    def _handler_done(self, peer: NodeId, epoch: int, _process) -> None:
        if epoch != self._epoch:
            return  # died with a crash: unhandled, so the sender re-sends it
        self.busy.discard(peer)
        self.advance(peer)
        self._handle(peer)
        self._ack_soon(peer)

    def _ack_soon(self, peer: NodeId) -> None:
        """Ack ``peer``'s stream half a period from now, in one ack for
        everything it sends meanwhile: well before the sender's timer would
        re-send it."""
        if peer not in self.acks_due:
            self.acks_due.add(peer)
            self.sim.call_after(self.period / 2, partial(self._send_ack, peer, self._epoch))

    def _send_ack(self, peer: NodeId, epoch: int) -> None:
        if epoch == self._epoch:  # else the crash dropped it
            self.acks_due.discard(peer)
            self._send(peer, StreamAck(self.handled.get(peer, 0)))

    def on_ack(self, message: StreamAck) -> None:
        self.ack(message.sender, message.watermark)
        self._resend([message.sender], -math.inf)  # what a restart left in doubt

    def on_rejoin(self, message: Rejoin) -> None:
        """A peer restarted: take its ack, then answer for the streams
        between the two in a later engine entry — after the rounds the
        Rejoin woke have re-sent, so their requests do not queue behind the
        streams' backlog on the link."""
        peer = message.sender
        self.ack(peer, message.handled)
        if message.unacked or self.unacked.get(peer):
            self.sim.call_after(0.0, partial(self._answer_rejoin, peer, message.unacked))

    def _answer_rejoin(self, peer: NodeId, unacked: int) -> None:
        """Re-send what ``peer`` has not handled of the stream to it, and
        ack its stream if it holds ``unacked`` messages: it re-sends what
        this node has not handled."""
        self._resend([peer], math.inf)
        if unacked:
            self._send(peer, StreamAck(self.handled.get(peer, 0)))

    # -------------------------------------------------------- crash/restart
    def crash(self) -> None:
        """Lose the volatile state; the re-send process dies with the epoch."""
        self._epoch += 1
        self.held.clear()
        self.busy.clear()
        self.acks_due.clear()
        self._resending = False

    def restart(self) -> None:
        """Which unacked messages arrived is unknown: every one is due.
        Each peer's answer to the Rejoin acks what did, and the rest is
        re-sent; the stream to this node itself is answered at once."""
        for records in self.unacked.values():
            for record in records.values():
                record[1] = -math.inf
        self.ack(self.node_id, self.handled.get(self.node_id, 0))
        self._resend([self.node_id], -math.inf)

    def announce(self, peers) -> None:
        """Send each of ``peers`` a :class:`Rejoin`, then resume re-sending."""
        for peer in peers:
            self._send(peer, Rejoin(self.handled.get(peer, 0), len(self.unacked.get(peer, ()))))
        self._start_resending()
