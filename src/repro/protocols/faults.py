"""Binding a declarative :class:`~repro.common.config.FaultPlan` to a cluster.

The plan lives in the configuration (so it is validated, pickled and
replayed like every other experiment knob); this module translates it into
scripted engine events at cluster-construction time:

* a :class:`~repro.common.config.CrashFault` becomes ``node.crash()`` /
  ``node.restart()`` calls on the targeted
  :class:`~repro.protocols.runtime.ProtocolRuntime`;
* a :class:`~repro.common.config.PartitionFault` becomes
  ``network.partition(...)`` / ``network.heal_partition()`` calls;
* a :class:`~repro.common.config.SlowLinkFault` becomes
  ``network.degrade_link(...)`` / ``network.restore_link(...)`` calls.

Installing a non-empty plan also arms *fault mode* on every node: a message
can be lost, so rounds re-drive and the reliable channel sends in
envelopes.  An empty plan
installs nothing at all — fail-free runs take none of these code paths and
their histories stay byte-identical.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.common.config import (
    CrashFault,
    FaultPlan,
    PartitionFault,
    SlowLinkFault,
)
from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.cluster import ProtocolCluster


def _as_unit(sim, unit: int, func):
    """Wrap ``func`` so its scheduling is charged to node ``unit``.

    Fault events execute under the engine's control unit; a crash/restart
    callback's effects (recovery processes, timers) belong to the target
    node, and charging them to its unit keeps the node's event keys
    identical whether the fault runs on the serial engine or on the shard
    owning the node.
    """

    def run():
        prev = sim.set_unit(unit)
        try:
            func()
        finally:
            sim.set_unit(prev)

    return run


def install_fault_plan(cluster: "ProtocolCluster", plan: Optional[FaultPlan]) -> None:
    """Schedule ``plan``'s events on ``cluster``'s engine (no-op when empty).

    On a shard owning a subset of the cluster, crash/restart events for
    non-owned nodes install *mirrors* that update only the shared network
    state (the crashed-set), so every shard agrees on message drops while
    the owning shard alone runs the node's real crash/restart logic.  All
    shards install the full plan, which keeps the engine's control-unit
    event keys and ``fault_log`` identical everywhere.
    """
    if plan is None or not plan.faults:
        return
    sim = cluster.sim
    network = cluster.network
    nodes = cluster.nodes
    for node in cluster.local_nodes:
        node.enable_fault_mode()
    for fault in plan.faults:
        if isinstance(fault, CrashFault):
            node = nodes[fault.node]
            if node is not None:
                crash_cb = _as_unit(sim, fault.node, node.crash)
                restart_cb = _as_unit(sim, fault.node, node.restart)
            else:
                crash_cb = partial(network.crash, fault.node)
                restart_cb = partial(network.recover, fault.node)
            sim.schedule_fault(fault.at_us, crash_cb, f"crash:{fault.node}")
            if fault.duration_us is not None:
                sim.schedule_fault(
                    fault.at_us + fault.duration_us,
                    restart_cb,
                    f"restart:{fault.node}",
                )
        elif isinstance(fault, PartitionFault):
            sim.schedule_fault(
                fault.at_us,
                partial(network.partition, fault.groups, mode=fault.mode),
                f"partition:{fault.mode}",
            )
            sim.schedule_fault(
                fault.at_us + fault.duration_us,
                network.heal_partition,
                "heal",
            )
        elif isinstance(fault, SlowLinkFault):
            pairs = [(fault.src, fault.dst)]
            if fault.bidirectional:
                pairs.append((fault.dst, fault.src))
            for src, dst in pairs:
                sim.schedule_fault(
                    fault.at_us,
                    partial(
                        network.degrade_link,
                        src,
                        dst,
                        factor=fault.factor,
                        extra_us=fault.extra_us,
                    ),
                    f"slowlink:{src}->{dst}",
                )
                sim.schedule_fault(
                    fault.at_us + fault.duration_us,
                    partial(network.restore_link, src, dst),
                    f"restorelink:{src}->{dst}",
                )
        else:  # pragma: no cover - parse() only builds the three kinds
            raise ConfigurationError(f"unknown fault spec {fault!r}")
