"""The runtime's one reliable channel: ``ProtocolRuntime.send_reliable``.

``ReliableStreams`` is the per-node state of the streams — contiguous
per-peer sequence numbers, cumulative acks, receiver-side duplicate
dropping and gap holding — and the runtime tests drive two bare nodes
through it: plain ``send`` when no message can be lost, the envelope, its
ack and the timed re-send when one can.
"""

from __future__ import annotations

from repro.common.config import ClusterConfig
from repro.network.latency import ConstantLatency
from repro.network.message import Message, MessagePriority
from repro.network.transport import Network
from repro.protocols.runtime import ProtocolRuntime, ReliableStreams
from repro.replication.placement import KeyPlacement
from repro.sim.engine import Simulation


class Note(Message):
    __slots__ = ("payload",)
    priority = MessagePriority.CONTROL

    def __init__(self, payload: int = 0):
        Message.__init__(self)
        self.payload = payload


class TestReliableStreams:
    def test_sequence_numbers_are_contiguous_per_peer(self):
        streams = ReliableStreams()
        assert [streams.append(1, Note(), 0.0) for _ in range(2)] == [1, 2]
        assert streams.append(2, Note(), 0.0) == 1  # peer 2 has its own stream
        assert streams.sent == {1: 2, 2: 1}

    def test_ack_drops_records_at_or_below_the_watermark(self):
        streams = ReliableStreams()
        for _ in range(3):
            streams.append(1, Note(), 0.0)
        streams.ack(1, 2)
        assert list(streams.unacked[1]) == [3]
        streams.ack(1, 1)  # a stale ack resurrects nothing
        assert list(streams.unacked[1]) == [3]
        streams.ack(1, 3)
        assert streams.peers() == []

    def test_peers_with_unacked_records_in_id_order(self):
        streams = ReliableStreams()
        for peer in (3, 1, 2):
            streams.append(peer, Note(), 0.0)
        streams.ack(2, 1)
        assert streams.peers() == [1, 3]

    def test_due_records_are_those_sent_by_the_cutoff_and_are_restamped(self):
        streams = ReliableStreams()
        old, new = Note(1), Note(2)
        streams.append(1, old, 0.0)
        streams.append(1, new, 4_000.0)
        assert streams.due(1, 5_000.0 - 5_000.0, 5_000.0) == [(1, old)]
        assert streams.due(1, 0.0, 5_000.0) == []  # re-sent at 5 000: not due again
        assert streams.due(1, float("inf"), 6_000.0) == [(1, old), (2, new)]

    def test_a_gap_is_held_then_released_in_order(self):
        streams = ReliableStreams()
        first, second = Note(1), Note(2)
        assert streams.receive(0, 2, second)
        assert streams.next(0) is None  # seq 1 is missing: hold seq 2
        assert streams.receive(0, 1, first)
        released = []
        while (message := streams.next(0)) is not None:
            released.append(message)
            streams.advance(0)
        assert released == [first, second]
        assert streams.handled[0] == 2 and not streams.held[0]

    def test_duplicates_are_dropped(self):
        streams = ReliableStreams()
        assert streams.receive(0, 2, Note())
        assert not streams.receive(0, 2, Note())  # held already
        assert streams.receive(0, 1, Note())
        streams.advance(0)
        assert not streams.receive(0, 1, Note())  # handled already


def _pair():
    """Two bare runtime nodes 20 us apart; node 1 records the notes it handles."""
    sim = Simulation(seed=1)
    config = ClusterConfig(n_nodes=2, n_keys=2, replication_degree=1)
    network = Network(sim, latency_model=ConstantLatency(20.0))
    placement = KeyPlacement(2, 1, keys=["a", "b"])
    nodes = [ProtocolRuntime(sim, network, node_id, placement, config) for node_id in (0, 1)]
    handled = []
    nodes[1].register_handler(Note, lambda message: handled.append(message.payload))
    return sim, network, nodes, handled


class TestSendReliable:
    def test_with_no_message_lost_it_is_a_plain_send(self):
        sim, network, nodes, handled = _pair()
        nodes[0].send_reliable(1, Note(7))
        sim.run()
        assert handled == [7]
        assert dict(network.stats.sent) == {"Note": 1}
        assert nodes[0].streams.sent == {}

    def test_in_fault_mode_an_envelope_is_handled_once_and_acked(self):
        sim, network, nodes, handled = _pair()
        for node in nodes:
            node.enable_fault_mode()
        for payload in (1, 2):
            nodes[0].send_reliable(1, Note(payload))
        sim.run(until=nodes[0].config.timeouts.crash_resubscribe_us)
        assert handled == [1, 2]
        # Half a fallback period after the first arrival one ack covers both.
        assert dict(network.stats.sent) == {"Envelope": 2, "StreamAck": 1}
        assert nodes[0].streams.peers() == []
        assert nodes[1].streams.handled == {0: 2}

    def test_a_lost_message_is_resent_once_a_whole_period_passed(self):
        sim, network, nodes, handled = _pair()
        for node in nodes:
            node.enable_fault_mode()
        period = nodes[0].config.timeouts.crash_resubscribe_us
        network.partition([[0], [1]], mode="drop")
        nodes[0].send_reliable(1, Note(1))
        sim.call_at(10.0, network.heal_partition)
        sim.call_at(period / 2, lambda: nodes[0].send_reliable(1, Note(2)))
        sim.run(until=2 * period)
        # The first note was lost and is re-sent on the timer.  The second,
        # sent half a period before, is not: the receiver held it above the
        # gap and handles it right after the first.
        assert handled == [1, 2]
        assert nodes[0].counters["stream_resends"] == 1
        assert nodes[0].streams.peers() == []

    def test_a_handler_a_crash_interrupts_runs_again_after_the_restart(self):
        sim, network, nodes, handled = _pair()

        def slow(message):
            yield 50.0
            handled.append(message.payload)

        nodes[1].register_handler(Note, slow)
        for node in nodes:
            node.enable_fault_mode()
        nodes[0].send_reliable(1, Note(1))
        sim.call_at(40.0, nodes[1].crash)  # the handler is still running
        sim.call_at(100.0, nodes[1].restart)
        sim.run(until=nodes[0].config.timeouts.crash_resubscribe_us)
        # Unhandled when the crash hit, so unacked: re-sent on the Rejoin.
        assert handled == [1]
        assert nodes[1].streams.handled == {0: 1}
        assert nodes[0].counters["stream_resends"] == 1
