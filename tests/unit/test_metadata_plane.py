"""Unit tests for the metadata plane: copy-on-write clocks, slotted
messages, dense wire-size accounting.

:class:`VectorClock` merges return an operand unchanged when it already
dominates, and wire messages are ``__slots__`` classes with class-level
priority/size constants; these tests pin their observable semantics.  Wire
bytes are a formula of the message alone — every clock charged densely, no
per-channel state — which the accounting tests pin through the transport.
"""

from __future__ import annotations

import inspect

import pytest

import repro.baselines.rococo  # noqa: F401  (registers the message classes below)
import repro.baselines.twopc  # noqa: F401
import repro.protocols.runtime  # noqa: F401
from repro.baselines.walter import WalterRead
from repro.clocks.compression import VCCodec
from repro.clocks.vector_clock import VectorClock
from repro.common.config import ClusterConfig, WorkloadConfig
from repro.core.messages import (
    Decide,
    ExternalAck,
    ExternalDone,
    Prepare,
    ReadRequest,
    ReadReturn,
    Remove,
    SubscribeExternal,
    Vote,
)
from repro.harness.runner import run_experiment
from repro.network.message import Message, MessagePriority
from repro.network.transport import Network
from repro.sim.engine import Simulation


class TestVectorClockInterning:
    def test_zeros_is_shared(self):
        assert VectorClock.zeros(4) is VectorClock.zeros(4)
        assert VectorClock.zeros(4) is not VectorClock.zeros(5)

    def test_merge_copy_on_write_returns_operand(self):
        low = VectorClock([1, 1, 1])
        high = VectorClock([2, 2, 2])
        assert low.merge(high) is high
        assert high.merge(low) is high
        assert high.merge(high) is high

    def test_equal_value_different_objects_still_equal(self):
        # The public constructor does not intern; equality must not rely on
        # identity.
        a = VectorClock([3, 1])
        b = VectorClock([3, 1])
        assert a == b
        assert hash(a) == hash(b)

    def test_merge_many_matches_pairwise_merges(self):
        base = VectorClock([0, 5, 2, 0])
        others = [
            VectorClock([1, 0, 0, 0]),
            VectorClock([0, 9, 0, 3]),
            VectorClock([1, 1, 4, 1]),
        ]
        expected = base
        for other in others:
            expected = expected.merge(other)
        assert base.merge_many(others) == expected

    def test_merge_many_empty_returns_self(self):
        base = VectorClock([2, 2])
        assert base.merge_many([]) is base

    def test_merge_many_returns_dominating_operand(self):
        base = VectorClock([1, 0])
        top = VectorClock([5, 5])
        assert base.merge_many([VectorClock([2, 1]), top]) is top

    def test_merge_many_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VectorClock([1, 2]).merge_many([VectorClock([1, 2, 3])])


class TestSlottedMessages:
    def test_no_instance_dict(self):
        for message in (ReadRequest(), ReadReturn(), Vote(), Remove()):
            assert not hasattr(message, "__dict__")

    def test_priorities_are_class_level(self):
        assert "priority" not in Message.__slots__
        assert ReadRequest.priority is MessagePriority.READ
        assert ReadReturn.priority is MessagePriority.READ
        assert Prepare.priority is MessagePriority.COMMIT
        assert Vote.priority is MessagePriority.COMMIT
        for cls in (Decide, ExternalAck, ExternalDone, SubscribeExternal, Remove):
            assert cls.priority is MessagePriority.CONTROL
        # Instances read the class attribute.
        assert ReadRequest().priority is MessagePriority.READ

    def test_identity_equality_semantics(self):
        # Messages have unique msg_ids, so two instances were never equal
        # even under the old dataclass field equality; the slotted classes
        # keep identity semantics.
        a, b = Remove(keys=("k",)), Remove(keys=("k",))
        assert a == a
        assert a != b
        assert a.msg_id != b.msg_id

    def test_transport_fields_initialized(self):
        message = Vote(vc=VectorClock.zeros(2), success=True)
        assert message.sender == -1
        assert message.destination == -1
        assert message.reply_to is None
        assert message.send_time == 0.0
        assert message.type_name == "Vote"

    def test_dense_size_estimates_without_codec(self):
        vc = VectorClock.zeros(4)
        assert ReadRequest(vc=vc, has_read=(False,) * 4).size_estimate() == 48 + 32 + 4
        assert Vote(vc=vc).size_estimate() == 48 + 32
        assert Decide(commit_vc=vc).size_estimate() == 56 + 32
        assert ReadReturn(max_vc=vc, version_vc=vc).size_estimate() == 66 + 32 + 32
        prepare = Prepare(vc=vc, read_versions=(("k", vc),), write_items=(("k", 1),))
        assert prepare.size_estimate() == 64 + 32 + (16 + 32) + 32

class TestDenseAccounting:
    """The transport charges a formula of the message, never a channel's history."""

    @staticmethod
    def _charged(sends):
        """Bytes the transport counts for each ``(sender, destination, message)``."""
        network = Network(Simulation(seed=1))
        # Declared but unregistered nodes: sends land in the outbox, which is
        # all the accounting needs.
        network.declare_node_ids(range(4))
        charged = []
        for sender, destination, message in sends:
            before = network.stats.bytes_sent
            network.send(sender, destination, message)
            charged.append(network.stats.bytes_sent - before)
        return charged

    def test_same_message_charges_the_same_bytes_on_every_send_and_destination(self):
        vc = VectorClock([5, 6, 7, 8])
        routes = [(0, 1), (0, 1), (0, 1), (0, 2), (0, 3), (2, 1), (1, 1)]
        charged = self._charged([(src, dst, Vote(vc=vc)) for src, dst in routes])
        assert charged == [Vote.base_size + 8 * 4] * len(routes)

    def test_charge_is_base_size_plus_dense_clocks_plus_payload(self):
        vc = VectorClock([1, 2, 3, 4, 5])
        clock = 8 * vc.size
        cases = [
            (lambda: ReadRequest(vc=vc, has_read=(True,) * 5), ReadRequest.base_size + clock + 5),
            (
                lambda: ReadReturn(max_vc=vc, version_vc=vc, gated=("w",)),
                ReadReturn.base_size + 2 * clock + 16,
            ),
            (
                lambda: Prepare(vc=vc, read_versions=(("k", vc),), write_items=(("k", 1),)),
                Prepare.base_size + clock + (16 + clock) + 32,
            ),
            (lambda: Decide(commit_vc=vc), Decide.base_size + clock),
            (lambda: WalterRead(start_vts=vc), WalterRead.base_size + clock),
            (lambda: Remove(keys=("a", "b")), Remove.base_size + 2 * 16),
            (lambda: ExternalAck(), ExternalAck.base_size),
        ]
        for make, expected in cases:
            assert self._charged([(0, 1, make()), (3, 2, make()), (0, 1, make())]) == [expected] * 3

    def test_no_message_takes_a_codec_or_a_peer(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        classes = list(subclasses(Message))
        assert len(classes) > 30
        for cls in classes:
            assert list(inspect.signature(cls.size_estimate).parameters) == ["self"], cls

    def test_run_reports_bytes_per_msg_from_the_network_totals(self):
        config = ClusterConfig(n_nodes=4, n_keys=40, replication_degree=2, clients_per_node=1, seed=3)
        result = run_experiment(
            "sss", config, WorkloadConfig(), duration_us=4_000.0, warmup_us=0.0, keep_cluster=True
        )
        stats = result.cluster.network.stats
        assert stats.total_sent > 0
        assert result.metrics.bytes_per_msg == round(stats.bytes_sent / stats.total_sent, 2)
        assert not any(name.startswith("clock") for name in result.metrics.extra)


class TestCodecAccounting:
    def test_fixed_width_still_validates(self):
        codec = VCCodec(2)
        with pytest.raises(ValueError):
            codec.encode(0, VectorClock([1, 2, 3]))

    def test_delta_needs_the_peer_reference_clock(self):
        encoder, decoder = VCCodec(4), VCCodec(4)
        decoder.decode("a", encoder.encode("a", VectorClock([1, 2, 3, 4])))
        delta = encoder.encode("a", VectorClock([1, 2, 3, 5]))
        assert delta == (VCCodec.DELTA, ((3, 5),))
        assert decoder.decode("a", delta) == VectorClock([1, 2, 3, 5])
        # Another peer never saw the reference, so the delta cannot decode.
        with pytest.raises(ValueError):
            decoder.decode("b", delta)
        assert encoder.compression_ratio([]) is None
