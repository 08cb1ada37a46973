"""The one reliable channel: ``ReliableChannel.send``.

The channel is the per-node state of the streams — contiguous per-peer
sequence numbers, cumulative acks, receiver-side duplicate dropping and
gap holding — and the code that drives them.  It owns no transport, so
these tests wire two channels with a stub send and no protocol node: plain
send when no message can be lost, the envelope, its ack, the timed re-send
and the re-send a restart's ``Rejoin`` answers when one can.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

from repro.common.config import ClusterConfig
from repro.network.message import Message, MessagePriority
from repro.protocols.stream import Envelope, Rejoin, ReliableChannel, StreamAck
from repro.sim.engine import Simulation
from repro.sim.process import Process

PERIOD = ClusterConfig().timeouts.crash_resubscribe_us


class Note(Message):
    __slots__ = ("payload",)
    priority = MessagePriority.CONTROL

    def __init__(self, payload: int = 0):
        Message.__init__(self)
        self.payload = payload


def _channel():
    """A channel whose sends go nowhere."""
    return ReliableChannel(Simulation(seed=1), 0, lambda _d, _m: None, lambda _m: None, PERIOD)


class TestReliableStreams:
    def test_sequence_numbers_are_contiguous_per_peer(self):
        channel = _channel()
        assert [channel.append(1, Note(), 0.0) for _ in range(2)] == [1, 2]
        assert channel.append(2, Note(), 0.0) == 1  # peer 2 has its own stream
        assert channel.sent == {1: 2, 2: 1}

    def test_ack_drops_records_at_or_below_the_watermark(self):
        channel = _channel()
        for _ in range(3):
            channel.append(1, Note(), 0.0)
        channel.ack(1, 2)
        assert list(channel.unacked[1]) == [3]
        channel.ack(1, 1)  # a stale ack resurrects nothing
        assert list(channel.unacked[1]) == [3]
        channel.ack(1, 3)
        assert channel.peers() == []

    def test_peers_with_unacked_records_in_id_order(self):
        channel = _channel()
        for peer in (3, 1, 2):
            channel.append(peer, Note(), 0.0)
        channel.ack(2, 1)
        assert channel.peers() == [1, 3]

    def test_due_records_are_those_sent_by_the_cutoff_and_are_restamped(self):
        channel = _channel()
        old, new = Note(1), Note(2)
        channel.append(1, old, 0.0)
        channel.append(1, new, 4_000.0)
        assert channel.due(1, 5_000.0 - 5_000.0, 5_000.0) == [(1, old)]
        assert channel.due(1, 0.0, 5_000.0) == []  # re-sent at 5 000: not due again
        assert channel.due(1, float("inf"), 6_000.0) == [(1, old), (2, new)]

    def test_a_gap_is_held_then_released_in_order(self):
        channel = _channel()
        first, second = Note(1), Note(2)
        assert channel.receive(0, 2, second)
        assert channel.next(0) is None  # seq 1 is missing: hold seq 2
        assert channel.receive(0, 1, first)
        released = []
        while (message := channel.next(0)) is not None:
            released.append(message)
            channel.advance(0)
        assert released == [first, second]
        assert channel.handled[0] == 2 and not channel.held[0]

    def test_duplicates_are_dropped(self):
        channel = _channel()
        assert channel.receive(0, 2, Note())
        assert not channel.receive(0, 2, Note())  # held already
        assert channel.receive(0, 1, Note())
        channel.advance(0)
        assert not channel.receive(0, 1, Note())  # handled already


class _Wire:
    """Channels 0 and 1 on one engine.  The stub send delivers a message to
    the other channel 20 us later, unless the wire is ``cut``; channel 1
    records the payloads of the notes it handles."""

    def __init__(self, handler=None):
        self.sim = Simulation(seed=1)
        self.cut = False
        self.sent = Counter()
        self.handled = []
        dispatch = handler or (lambda message: self.handled.append(message.payload))
        self.channels = [
            ReliableChannel(self.sim, node, partial(self._send, node), dispatch, PERIOD)
            for node in (0, 1)
        ]

    def _send(self, source, destination, message):
        message.sender = source
        self.sent[type(message).__name__] += 1
        if not self.cut:
            self.sim.call_after(20.0, partial(self._deliver, destination, message))

    def _deliver(self, destination, message):
        channel = self.channels[destination]
        if isinstance(message, Envelope):
            channel.on_envelope(message)
        elif isinstance(message, StreamAck):
            channel.on_ack(message)
        elif isinstance(message, Rejoin):
            channel.on_rejoin(message)
        else:
            channel._dispatch(message)

    def arm(self):
        for channel in self.channels:
            channel.enable_fault_mode()
        return self.channels


class TestSendReliable:
    def test_with_no_message_lost_it_is_a_plain_send(self):
        wire = _Wire()
        wire.channels[0].send(1, Note(7))
        wire.sim.run()
        assert wire.handled == [7]
        assert dict(wire.sent) == {"Note": 1}
        assert wire.channels[0].sent == {}

    def test_in_fault_mode_an_envelope_is_handled_once_and_acked(self):
        wire = _Wire()
        sender, receiver = wire.arm()
        for payload in (1, 2):
            sender.send(1, Note(payload))
        wire.sim.run(until=PERIOD)
        assert wire.handled == [1, 2]
        # Half a fallback period after the first arrival one ack covers both.
        assert dict(wire.sent) == {"Envelope": 2, "StreamAck": 1}
        assert sender.peers() == []
        assert receiver.handled == {0: 2}

    def test_a_lost_message_is_resent_once_a_whole_period_passed(self):
        wire = _Wire()
        sender, _receiver = wire.arm()
        wire.cut = True
        sender.send(1, Note(1))
        wire.cut = False
        wire.sim.call_at(PERIOD / 2, lambda: sender.send(1, Note(2)))
        wire.sim.run(until=2 * PERIOD)
        # The first note was lost and is re-sent on the timer.  The second,
        # sent half a period before, is not: the receiver held it above the
        # gap and handles it right after the first.
        assert wire.handled == [1, 2]
        assert sender.counters["stream_resends"] == 1
        assert sender.peers() == []

    def test_a_handler_a_crash_interrupts_runs_again_after_the_restart(self):
        def slow(message):
            yield 50.0
            wire.handled.append(message.payload)

        # The handler's process belongs to the receiving channel, whose crash
        # moves its epoch: the process dies at its next resumption.
        wire = _Wire(lambda message: Process(wire.sim, slow(message), "slow", wire.channels[1]))
        sender, receiver = wire.arm()
        sender.send(1, Note(1))
        wire.sim.call_at(40.0, receiver.crash)  # the handler is still running
        wire.sim.call_at(100.0, receiver.restart)
        wire.sim.call_at(100.0, receiver.announce, [0])
        wire.sim.run(until=PERIOD)
        # Unhandled when the crash hit, so unacked: re-sent on the Rejoin.
        assert wire.handled == [1]
        assert receiver.handled == {0: 1}
        assert sender.counters["stream_resends"] == 1
