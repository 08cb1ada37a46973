"""Unit tests for the declarative fault plan and the fault-plane primitives.

Covers the :class:`~repro.common.config.FaultPlan` grammar (compact strings,
dicts, objects), its validation, the phase-window computation the
availability metrics build on, and the low-level crash/partition semantics
of the transport and the node runtime.
"""

from __future__ import annotations

import pickle

import pytest

from repro.common.config import (
    ClusterConfig,
    CrashFault,
    FaultPlan,
    NetworkConfig,
    PartitionFault,
    SlowLinkFault,
    parse_time_us,
)
from repro.common.errors import ConfigurationError, NodeCrashedError
from repro.network.message import Message, MessagePriority
from repro.network.node import NetworkedNode
from repro.network.transport import Network
from repro.sim.engine import Simulation
from repro.storage.locks import LockMode, LockTable
from repro.common.ids import TransactionId


class TestTimeParsing:
    @pytest.mark.parametrize(
        "literal,expected",
        [
            ("250", 250.0),
            (250, 250.0),
            (2.5, 2.5),
            ("500us", 500.0),
            ("30ms", 30_000.0),
            ("1.5s", 1_500_000.0),
            (" 20MS ", 20_000.0),
        ],
    )
    def test_literals(self, literal, expected):
        assert parse_time_us(literal) == expected

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_time_us("soon")


class TestFaultPlanParsing:
    def test_crash_string(self):
        plan = FaultPlan.parse(["crash node=2 at=30ms for=20ms"])
        (fault,) = plan.faults
        assert fault == CrashFault(node=2, at_us=30_000.0, duration_us=20_000.0)

    def test_crash_without_restart(self):
        (fault,) = FaultPlan.parse(["crash node=0 at=5ms"]).faults
        assert fault.duration_us is None

    def test_partition_string(self):
        (fault,) = FaultPlan.parse(["partition groups=0,1|2,3 at=10ms for=20ms mode=drop"]).faults
        assert fault == PartitionFault(
            groups=((0, 1), (2, 3)), at_us=10_000.0, duration_us=20_000.0, mode="drop"
        )

    def test_slowlink_string(self):
        (fault,) = FaultPlan.parse(
            ["slowlink src=0 dst=1 at=5ms for=10ms factor=8 extra=200us"]
        ).faults
        assert fault == SlowLinkFault(
            src=0,
            dst=1,
            at_us=5_000.0,
            duration_us=10_000.0,
            factor=8.0,
            extra_us=200.0,
            bidirectional=True,
        )

    def test_dict_and_object_specs(self):
        crash = CrashFault(node=1, at_us=10.0, duration_us=5.0)
        plan = FaultPlan.parse([crash, {"kind": "crash", "node": 0, "at": "1ms", "for": "1ms"}])
        assert plan.faults[0] is crash
        assert plan.faults[1].node == 0

    @pytest.mark.parametrize(
        "spec",
        [
            "explode node=1 at=1ms",
            "crash node=1 at=1ms wat=2",
            "crash at=1ms",
            "partition groups=0|1 at=1ms",  # missing window
            "slowlink src=0 dst=1 at=1ms",  # missing window
            "",
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises((ConfigurationError, KeyError)):
            FaultPlan.parse([spec])

    def test_plan_is_picklable_and_hashable(self):
        plan = FaultPlan.parse(
            ["crash node=1 at=1ms for=1ms", "partition groups=0|1,2 at=3ms for=1ms"]
        )
        assert pickle.loads(pickle.dumps(plan)) == plan
        hash(plan)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.parse(["crash node=0 at=1ms"])


class TestFaultPlanValidation:
    def test_cluster_config_validates_plan(self):
        config = ClusterConfig(n_nodes=3, faults=FaultPlan.parse(["crash node=7 at=1ms"]))
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_partition_groups_must_be_disjoint(self):
        plan = FaultPlan.parse(["partition groups=0,1|1,2 at=1ms for=1ms"])
        with pytest.raises(ConfigurationError):
            plan.validate(3)

    def test_overlapping_partitions_rejected(self):
        plan = FaultPlan.parse(
            [
                "partition groups=0|1,2 at=1ms for=5ms",
                "partition groups=0,1|2 at=3ms for=5ms",
            ]
        )
        with pytest.raises(ConfigurationError):
            plan.validate(3)

    def test_slowlink_must_degrade(self):
        plan = FaultPlan.parse(["slowlink src=0 dst=1 at=1ms for=1ms factor=0.5"])
        with pytest.raises(ConfigurationError):
            plan.validate(2)


class TestPhaseWindows:
    def test_empty_plan_has_no_phases(self):
        assert FaultPlan().phases(100.0) == []

    def test_crash_with_restart_produces_three_phases(self):
        plan = FaultPlan.parse(["crash node=0 at=30ms for=20ms"])
        phases = plan.phases(100_000.0)
        assert [(label.split(":")[1], start, end) for label, start, end in phases] == [
            ("fail-free", 0.0, 30_000.0),
            ("crash", 30_000.0, 50_000.0),
            ("fail-free", 50_000.0, 100_000.0),
        ]

    def test_crash_forever_extends_to_horizon(self):
        plan = FaultPlan.parse(["crash node=0 at=30ms"])
        phases = plan.phases(100_000.0)
        assert phases[-1][0].endswith("crash")
        assert phases[-1][2] == 100_000.0

    def test_overlapping_kinds_are_joined_in_label(self):
        plan = FaultPlan.parse(
            [
                "crash node=0 at=10ms for=30ms",
                "slowlink src=0 dst=1 at=20ms for=30ms factor=2",
            ]
        )
        labels = [label.split(":")[1] for label, _s, _e in plan.phases(60_000.0)]
        assert labels == ["fail-free", "crash", "crash+slowlink", "slowlink", "fail-free"]


# ----------------------------------------------------------------------
# Low-level fault primitives
# ----------------------------------------------------------------------
class Ping(Message):
    __slots__ = ("payload",)
    priority = MessagePriority.CONTROL
    base_size = 16

    def __init__(self, payload=None):
        Message.__init__(self)
        self.payload = payload


class Recorder(NetworkedNode):
    """Node that records every Ping it handles."""

    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id)
        self.received = []
        self.register_handler(Ping, self.on_ping)

    def on_ping(self, message: Ping) -> None:
        self.received.append((self.sim.now, message.payload))


def _pair(n_nodes: int = 2):
    sim = Simulation(seed=5)
    network = Network(sim, config=NetworkConfig(bandwidth_msgs_per_us=0.0))
    nodes = [Recorder(sim, network, i) for i in range(n_nodes)]
    return sim, network, nodes


class TestTransportFaults:
    def test_buffered_partition_releases_on_heal(self):
        sim, network, nodes = _pair()
        network.partition([(0,), (1,)])
        network.send(0, 1, Ping("held"))
        sim.run(until=1_000.0)
        assert nodes[1].received == []
        assert network.stats.held == 1
        network.heal_partition()
        sim.run(until=2_000.0)
        assert [p for _t, p in nodes[1].received] == ["held"]
        assert network.stats.released == 1
        # Delivered at the heal instant or later, never before.
        assert nodes[1].received[0][0] >= 1_000.0

    def test_drop_partition_loses_messages(self):
        sim, network, nodes = _pair()
        network.partition([(0,), (1,)], mode="drop")
        network.send(0, 1, Ping("lost"))
        network.heal_partition()
        sim.run(until=1_000.0)
        assert nodes[1].received == []
        assert network.stats.total_dropped == 1

    def test_partition_keeps_same_side_traffic(self):
        sim, network, nodes = _pair(3)
        network.partition([(0, 1), (2,)])
        network.send(0, 1, Ping("same-side"))
        sim.run(until=1_000.0)
        assert [p for _t, p in nodes[1].received] == ["same-side"]

    def test_unlisted_nodes_form_one_group(self):
        sim, network, nodes = _pair(3)
        # Only node 0 is named: nodes 1 and 2 stay connected to each other.
        network.partition([(0,)])
        assert network.is_partitioned(0, 1)
        assert network.is_partitioned(0, 2)
        assert not network.is_partitioned(1, 2)

    def test_degraded_link_inflates_latency(self):
        sim, network, nodes = _pair()
        network.send(0, 1, Ping("fast"))
        sim.run(until=500.0)
        baseline = nodes[1].received[-1][0]
        network.degrade_link(0, 1, factor=10.0, extra_us=1_000.0)
        network.send(0, 1, Ping("slow"))
        sim.run(until=5_000.0)
        slow = nodes[1].received[-1][0] - 500.0
        assert slow > baseline + 1_000.0 - 500.0  # extra_us alone dominates
        network.restore_link(0, 1)
        network.send(0, 1, Ping("fast-again"))
        before = sim.now
        sim.run(until=10_000.0)
        assert nodes[1].received[-1][0] - before < 1_000.0


class TestNodeCrashPrimitives:
    def test_same_priority_messages_served_in_arrival_order(self):
        sim, network, nodes = _pair()
        for payload in ("a", "b", "c"):
            nodes[1].enqueue(Ping(payload))
        sim.run()
        handling_us = nodes[1].service.message_handling_us
        assert nodes[1].received == [
            (handling_us, "a"),
            (2 * handling_us, "b"),
            (3 * handling_us, "c"),
        ]

    def test_drop_inbound_counts_queued_messages(self):
        sim, network, nodes = _pair()
        for payload in ("a", "b", "c"):
            nodes[1].enqueue(Ping(payload))
        # "a" went straight into its handling time; "b" and "c" queue behind it.
        assert nodes[1].drop_inbound() == 2
        sim.run()
        assert [p for _t, p in nodes[1].received] == ["a"]

    def test_crashed_node_fails_requests_fast(self):
        sim, network, nodes = _pair()
        nodes[0].enable_fault_mode()
        nodes[0].crashed = True
        event = nodes[0].request(1, Ping("never"))
        assert event.triggered
        with pytest.raises(NodeCrashedError):
            _ = event.value

    def test_crashed_destination_drops_traffic(self):
        sim, network, nodes = _pair()
        network.crash(1)
        network.send(0, 1, Ping("into-the-void"))
        sim.run(until=1_000.0)
        assert nodes[1].received == []
        assert network.stats.total_dropped == 1
        network.recover(1)
        network.send(0, 1, Ping("alive"))
        sim.run(until=2_000.0)
        assert [p for _t, p in nodes[1].received] == ["alive"]

    def test_epoch_guard_kills_handler_after_crash(self):
        sim, network, nodes = _pair()
        node = nodes[0]
        node.enable_fault_mode()
        progress = []

        def slow_handler(message):
            progress.append("started")
            yield 500.0
            progress.append("finished")

        node.register_handler(Ping, slow_handler)
        network.send(1, 0, Ping("work"))
        sim.run(until=100.0)
        assert progress == ["started"]
        node._epoch += 1  # what crash() does
        sim.run(until=5_000.0)
        assert progress == ["started"]  # never finished: epoch moved

    def test_lock_table_reset_except_keeps_prepared(self):
        sim = Simulation()
        locks = LockTable(sim)
        prepared = TransactionId(node=0, seq=1)
        volatile = TransactionId(node=0, seq=2)
        assert locks.try_acquire(prepared, "a", LockMode.EXCLUSIVE)
        assert locks.try_acquire(volatile, "b", LockMode.EXCLUSIVE)
        locks.reset_except({prepared})
        assert locks.holds(prepared, "a")
        assert not locks.holds(volatile, "b")
