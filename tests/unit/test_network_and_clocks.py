"""Unit tests for the network substrate, latency models and clock codec."""

from __future__ import annotations

import random

import pytest

from repro.clocks.compression import VCCodec
from repro.clocks.vector_clock import VectorClock
from repro.common.config import NetworkConfig, ServiceTimeConfig
from repro.network.latency import ConstantLatency, LogNormalLatency, UniformLatency
from repro.network.message import Message, MessagePriority
from repro.network.node import NetworkedNode
from repro.network.transport import Network
from repro.sim.engine import Simulation


class Ping(Message):
    __slots__ = ("payload",)
    priority = MessagePriority.READ

    def __init__(self, payload: int = 0):
        Message.__init__(self)
        self.payload = payload


class Pong(Message):
    __slots__ = ("payload",)
    priority = MessagePriority.CONTROL

    def __init__(self, payload: int = 0):
        Message.__init__(self)
        self.payload = payload


class EchoNode(NetworkedNode):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []
        self.register_handler(Ping, self.on_ping)

    def on_ping(self, message: Ping):
        self.received.append(message.payload)
        self.respond(message, Pong(payload=message.payload * 2))


class TestLatencyModels:
    def test_constant_latency(self):
        model = ConstantLatency(15.0)
        rng = random.Random(1)
        assert model.sample(rng) == 15.0
        assert model.mean() == 15.0

    def test_uniform_latency_within_bounds(self):
        model = UniformLatency(base=20.0, jitter=5.0)
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(15.0 <= sample <= 25.0 for sample in samples)
        assert model.mean() == 20.0

    def test_uniform_latency_draws_what_rng_uniform_draws(self):
        """The precomputed ``lo + span * random()`` is ``rng.uniform``, bit for bit."""
        base, jitter = 20.0, 4.0
        model = UniformLatency(base=base, jitter=jitter)
        ours, reference = random.Random(11), random.Random(11)
        for _ in range(10_000):
            assert model.sample(ours) == reference.uniform(base - jitter, base + jitter)

    def test_uniform_latency_invalid_jitter(self):
        with pytest.raises(ValueError):
            UniformLatency(base=10.0, jitter=20.0)

    def test_lognormal_latency_positive_with_tail(self):
        model = LogNormalLatency(median=20.0, sigma=0.5)
        rng = random.Random(3)
        samples = [model.sample(rng) for _ in range(500)]
        assert all(sample > 0 for sample in samples)
        assert max(samples) > 20.0
        assert model.mean() > 20.0

    def test_lognormal_invalid_params(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.0)


class TestTransport:
    def _cluster(self, n=2, **net_kwargs):
        sim = Simulation(seed=9)
        network = Network(sim, config=NetworkConfig(**net_kwargs))
        nodes = [EchoNode(sim, network, i) for i in range(n)]
        return sim, network, nodes

    def test_request_response_roundtrip(self):
        sim, network, nodes = self._cluster()
        results = []

        def client():
            reply = yield nodes[1].request(0, Ping(payload=21))
            results.append((reply.payload, sim.now))

        sim.process(client())
        sim.run()
        assert results[0][0] == 42
        # One round trip ~= 2x the base latency plus handling.
        assert 30.0 <= results[0][1] <= 80.0

    def test_local_send_skips_propagation_latency(self):
        sim, network, nodes = self._cluster()
        results = []

        def client():
            reply = yield nodes[0].request(0, Ping(payload=1))
            results.append(sim.now)

        sim.process(client())
        sim.run()
        assert results[0] < 20.0

    def test_local_send_takes_a_link_slot_ahead_of_later_remote_sends(self):
        sim = Simulation(seed=4)
        network = Network(
            sim,
            config=NetworkConfig(bandwidth_msgs_per_us=0.01),
            latency_model=ConstantLatency(20.0),
        )
        arrivals = []
        for node_id in (0, 1):
            node = NetworkedNode(
                sim, network, node_id, service=ServiceTimeConfig(message_handling_us=0.0)
            )
            node.register_handler(Ping, lambda m: arrivals.append((m.payload, sim.now)))
        # One slot is 1/0.01 = 100 us.  The local send occupies [0, 100) and
        # is delivered at its end; the remote send queues behind it, then
        # pays the 20 us propagation.  At t=500 the link is idle again.
        network.send(0, 0, Ping(1))
        network.send(0, 1, Ping(2))
        sim.call_at(500.0, lambda: network.send(0, 0, Ping(3)))
        sim.run()
        assert sorted(arrivals) == [(1, 100.0), (2, 220.0), (3, 600.0)]

    def test_messages_to_crashed_node_are_dropped(self):
        sim, network, nodes = self._cluster()
        network.crash(0)

        def client():
            nodes[1].send(0, Ping(payload=5))
            yield sim.timeout(200)

        sim.process(client())
        sim.run()
        assert nodes[0].received == []
        assert network.stats.total_dropped == 1

    def test_crash_and_recover(self):
        sim, network, nodes = self._cluster()
        network.crash(0)
        assert network.is_crashed(0)
        network.recover(0)
        assert not network.is_crashed(0)

    def test_duplicate_node_id_rejected(self):
        sim = Simulation()
        network = Network(sim)
        EchoNode(sim, network, 0)
        with pytest.raises(ValueError):
            EchoNode(sim, network, 0)

    def test_priority_messages_dispatched_first(self):
        """CONTROL-priority messages overtake queued READ-priority ones."""
        sim = Simulation(seed=4)
        network = Network(sim, config=NetworkConfig(bandwidth_msgs_per_us=0))
        order = []

        class Slow(Message):
            __slots__ = ("tag",)
            priority = MessagePriority.READ

            def __init__(self, tag: str = ""):
                Message.__init__(self)
                self.tag = tag

        class Urgent(Message):
            __slots__ = ("tag",)
            priority = MessagePriority.CONTROL

            def __init__(self, tag: str = ""):
                Message.__init__(self)
                self.tag = tag

        class Receiver(NetworkedNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.register_handler(Slow, lambda m: order.append(m.tag))
                self.register_handler(Urgent, lambda m: order.append(m.tag))

        receiver = Receiver(sim, network, 0, service=ServiceTimeConfig(message_handling_us=50.0))
        sender = NetworkedNode(sim, network, 1)

        def client():
            # Burst of low-priority messages, then one urgent message; the
            # urgent one must be handled before the queued low-priority ones.
            for index in range(4):
                sender.send(0, Slow(tag=f"slow-{index}"))
            yield sim.timeout(30)
            sender.send(0, Urgent(tag="urgent"))

        sim.process(client())
        sim.run()
        # The first message starts being handled before the urgent one exists;
        # the urgent message must then overtake every still-queued slow one.
        assert order[0].startswith("slow")
        assert order[1] == "urgent"

    def _simultaneous_arrivals(self):
        """Three senders whose five messages all reach node 0 at t=20."""
        sim = Simulation(seed=4)
        network = Network(
            sim,
            config=NetworkConfig(bandwidth_msgs_per_us=0),
            latency_model=ConstantLatency(20.0),
        )
        order = []
        receiver = NetworkedNode(
            sim, network, 0, service=ServiceTimeConfig(message_handling_us=0.0)
        )
        receiver.register_handler(Ping, lambda m: order.append(m.payload))
        for node_id in (1, 2, 3):
            NetworkedNode(sim, network, node_id)
        # An ordinary event of the receiver's unit, created before any send.
        sim.call_at(20.0, order.append, "own event")
        for sender, payload in ((3, "3.0"), (1, "1.0"), (3, "3.1"), (2, "2.0"), (1, "1.1")):
            network.send(sender, 0, Ping(payload))
        return sim, network, order

    def test_simultaneous_arrivals_ordered_by_sender_then_sequence(self):
        sim, network, order = self._simultaneous_arrivals()
        sim.run()
        assert order == ["1.0", "1.1", "2.0", "3.0", "3.1", "own event"]
        assert network.stats.delivered["Ping"] == 5

    def test_destination_crashed_at_the_delivery_instant_drops_every_arrival(self):
        sim, network, order = self._simultaneous_arrivals()
        sim.schedule_fault(20.0, lambda: network.crash(0), label="crash 0")
        sim.run()
        assert order == ["own event"]
        assert network.stats.dropped["Ping"] == 5
        assert network.stats.total_delivered == 0

    def test_congestion_model_delays_bursts(self):
        sim, network, nodes = self._cluster(bandwidth_msgs_per_us=0.01)
        arrival_times = []

        class Recorder(EchoNode):
            def on_ping(self, message):
                arrival_times.append(self.sim.now)

        recorder = Recorder(sim, network, 5)

        def client():
            for _ in range(10):
                nodes[1].send(5, Ping(payload=1))
            yield sim.timeout(5_000)

        sim.process(client())
        sim.run()
        assert len(arrival_times) == 10
        # 10 messages at 0.01 msg/us service rate -> the last one is delayed
        # by roughly 1000 us of link queueing.
        assert arrival_times[-1] - arrival_times[0] > 500

    def test_network_stats_counts(self):
        sim, network, nodes = self._cluster()

        def client():
            reply = yield nodes[1].request(0, Ping(payload=1))
            assert reply.payload == 2

        sim.process(client())
        sim.run()
        assert network.stats.sent["Ping"] == 1
        assert network.stats.delivered["Pong"] == 1
        assert network.stats.bytes_sent > 0


class TestVCCodec:
    def test_first_encoding_is_dense(self):
        codec = VCCodec(size=3)
        kind, payload = codec.encode("peer", VectorClock([1, 2, 3]))
        assert kind == VCCodec.DENSE
        assert payload == (1, 2, 3)

    def test_small_change_uses_delta(self):
        sender = VCCodec(size=8)
        clock1 = VectorClock([1] * 8)
        clock2 = clock1.increment(3)
        sender.encode("peer", clock1)
        kind, payload = sender.encode("peer", clock2)
        assert kind == VCCodec.DELTA
        assert payload == ((3, 2),)

    def test_roundtrip_through_receiver(self):
        sender = VCCodec(size=5)
        receiver = VCCodec(size=5)
        clocks = [
            VectorClock([1, 0, 0, 0, 0]),
            VectorClock([1, 2, 0, 0, 0]),
            VectorClock([1, 2, 0, 0, 9]),
            VectorClock([7, 2, 1, 1, 9]),
        ]
        for clock in clocks:
            encoding = sender.encode("peer", clock)
            assert receiver.decode("peer", encoding) == clock

    def test_large_change_falls_back_to_dense(self):
        codec = VCCodec(size=4)
        codec.encode("peer", VectorClock([0, 0, 0, 0]))
        kind, _ = codec.encode("peer", VectorClock([5, 6, 7, 8]))
        assert kind == VCCodec.DENSE

    def test_delta_from_unknown_peer_rejected(self):
        codec = VCCodec(size=2)
        with pytest.raises(ValueError):
            codec.decode("stranger", (VCCodec.DELTA, ((0, 1),)))

    def test_encoded_size_accounting(self):
        dense = (VCCodec.DENSE, (1, 2, 3, 4))
        delta = (VCCodec.DELTA, ((0, 5),))
        assert VCCodec.encoded_size_bytes(dense) > VCCodec.encoded_size_bytes(delta)

    def test_compression_ratio(self):
        codec = VCCodec(size=16)
        history = []
        clock = VectorClock.zeros(16)
        for step in range(20):
            clock = clock.increment(step % 16)
            history.append(codec.encode("peer", clock))
        ratio = codec.compression_ratio(history)
        assert ratio is not None and ratio < 0.6

    def test_wrong_size_rejected(self):
        codec = VCCodec(size=3)
        with pytest.raises(ValueError):
            codec.encode("peer", VectorClock([1, 2]))
