"""The shared cluster facade.

:class:`ProtocolCluster` assembles a complete simulated deployment of one
protocol — the simulation engine, the network, one node per cluster member,
the key placement, an optional history recorder, and the fault plane — and
exposes the operations example programs and the benchmark harness need:

* ``session(node)`` — obtain a client session co-located with a node;
* ``spawn(process)`` — run a client process inside the simulation;
* ``run(until)`` — advance simulated time;
* ``check_consistency()`` / ``check_contract()`` — run the
  external-consistency checker, or the checks the protocol promises, over
  the recorded history.

:class:`MergedClusterView` answers the same post-run questions for a run
whose nodes were split over several shards, from what the shards report.

Every protocol in the repository (SSS and the three baselines) subclasses
this facade with only ``node_class`` and ``protocol_name``, which is what
lets the harness treat all protocols uniformly through one registry
(:mod:`repro.protocols.registry`).

When the cluster's :class:`~repro.common.config.ClusterConfig` carries a
non-empty :class:`~repro.common.config.FaultPlan`, the plan is installed at
construction time: fault mode is armed on every node and the scripted
crash/partition/slow-link events are scheduled on the engine (see
:mod:`repro.protocols.faults`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError
from repro.consistency.checkers import CheckResult, check_external_consistency
from repro.consistency.history import HistoryRecorder
from repro.consistency.window import (
    WindowedConsistencyChecker,
    WindowedHistoryRecorder,
    default_retention_us,
)
from repro.core.session import Session
from repro.network.transport import Network
from repro.protocols.faults import install_fault_plan
from repro.replication.placement import KeyPlacement
from repro.sim.engine import Simulation
from repro.sim.shard import EngineTagSequencer


class ProtocolCluster:
    """Facade assembling a simulated cluster of one protocol.

    Subclasses set :attr:`node_class` and :attr:`protocol_name`; everything
    else (sessions, spawning client processes, running the simulation,
    history recording, fault-plan installation) is shared.
    """

    node_class = None
    protocol_name = "protocol"

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        keys: Optional[Sequence[object]] = None,
        record_history=True,
        initial_value=0,
        owned_node_ids: Optional[Sequence[int]] = None,
        **node_kwargs,
    ):
        """``record_history`` selects the history plane: ``True`` records
        everything for post-hoc checking, ``False`` records nothing,
        ``"windowed"`` checks online with bounded memory (retention derived
        from the config's timeouts via
        :func:`~repro.consistency.window.default_retention_us`), and a
        recorder instance (:class:`HistoryRecorder` or
        :class:`WindowedHistoryRecorder`) is used as-is.

        ``owned_node_ids`` restricts node construction to a subset of the
        cluster (one shard of a node-sharded run) — the facade still
        describes the full cluster (placement, partitions, fault plan), but
        only the owned nodes exist locally, ``self.nodes`` holds ``None``
        for the rest, and messages to them collect in the network's outbox."""
        if self.node_class is None:  # pragma: no cover - abstract use
            raise ConfigurationError("ProtocolCluster must be subclassed")
        self.config = config or ClusterConfig()
        self.config.validate()
        self.keys: List[object] = (
            list(keys)
            if keys is not None
            else [f"key-{index}" for index in range(self.config.n_keys)]
        )
        self.sim = Simulation(seed=self.config.seed)
        self.network = Network(self.sim, config=self.config.network)
        self.sim.declare_units(self.config.n_nodes)
        self.network.declare_node_ids(range(self.config.n_nodes))
        self.placement = KeyPlacement(
            n_nodes=self.config.n_nodes,
            replication_degree=self.config.replication_degree,
            keys=self.keys,
        )
        if record_history == "windowed":
            self.history = WindowedHistoryRecorder(
                checker=WindowedConsistencyChecker(
                    retention_us=default_retention_us(self.config.timeouts)
                )
            )
        elif isinstance(record_history, (HistoryRecorder, WindowedHistoryRecorder)):
            self.history = record_history
        elif isinstance(record_history, str):
            raise ConfigurationError(
                f"unknown record_history mode {record_history!r}; "
                "expected True/False/'windowed' or a recorder instance"
            )
        else:
            self.history = HistoryRecorder() if record_history else None
        if isinstance(self.history, HistoryRecorder):
            self.history.tags = EngineTagSequencer(self.sim)
        if owned_node_ids is None:
            self.owned_node_ids: List[int] = list(range(self.config.n_nodes))
        else:
            self.owned_node_ids = sorted(owned_node_ids)
        # Every node's construction-time scheduling (dispatcher processes,
        # timers, preload) is charged to its own unit, so the per-unit event
        # keys a shard assigns for its nodes match the serial engine's.
        self.nodes: List[object] = [None] * self.config.n_nodes
        for node_id in self.owned_node_ids:
            prev = self.sim.set_unit(node_id)
            try:
                self.nodes[node_id] = self.node_class(
                    self.sim,
                    self.network,
                    node_id,
                    placement=self.placement,
                    config=self.config,
                    history=self.history,
                    **node_kwargs,
                )
            finally:
                self.sim.set_unit(prev)
        for node_id in self.owned_node_ids:
            prev = self.sim.set_unit(node_id)
            try:
                keys = self.placement.local_keys(node_id)
                self.nodes[node_id].preload(keys, initial_value=initial_value)
            finally:
                self.sim.set_unit(prev)
        self.local_nodes: List[object] = [self.nodes[node_id] for node_id in self.owned_node_ids]
        self._session_counter: Dict[int, int] = {}
        # Fault plane: schedule the declarative plan (no-op when empty).
        install_fault_plan(self, self.config.faults)
        self.sim.set_unit(0)

    # ------------------------------------------------------------------
    # Client-facing API
    # ------------------------------------------------------------------
    def session(self, node_id: int = 0) -> Session:
        """Create a client session co-located with ``node_id``."""
        if not 0 <= node_id < self.config.n_nodes:
            raise ConfigurationError(
                f"node_id {node_id} out of range (cluster has "
                f"{self.config.n_nodes} nodes)"
            )
        node = self.nodes[node_id]
        if node is None:
            raise ConfigurationError(f"node {node_id} is not owned by this shard")
        index = self._session_counter.get(node_id, 0)
        self._session_counter[node_id] = index + 1
        return Session(node, client_index=index)

    def spawn(self, generator, name: str = "", unit: Optional[int] = None):
        """Run a client process (a generator) inside the simulation.

        ``unit`` charges the process's scheduling to a node's execution unit
        (pass the node the client is co-located with); the harness always
        does, so client event keys are identical under the serial and the
        node-sharded engine.
        """
        if unit is None:
            return self.sim.process(generator, name=name or "client")
        prev = self.sim.set_unit(unit)
        try:
            return self.sim.process(generator, name=name or "client")
        finally:
            self.sim.set_unit(prev)

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (to ``until`` microseconds, or to quiescence)."""
        return self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Trace plane
    # ------------------------------------------------------------------
    def attach_tracer(self, spec) -> "object":
        """Enable causal tracing on this cluster's engine.

        ``spec`` is a :class:`repro.trace.spec.TraceSpec` (or anything its
        ``coerce`` accepts).  Returns the installed
        :class:`~repro.trace.recorder.TraceRecorder`; must be called before
        the run starts.  The recorder is passive — attaching it never
        changes histories or metrics (see ``docs/OBSERVABILITY.md``).
        """
        from repro.trace.recorder import TraceRecorder
        from repro.trace.spec import TraceSpec

        resolved = TraceSpec.coerce(spec)
        if resolved is None:
            self.sim.tracer = None
            return None
        recorder = TraceRecorder(self.sim, resolved)
        self.sim.tracer = recorder
        return recorder

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def node(self, node_id: int):
        return self.nodes[node_id]

    def check_consistency(self) -> CheckResult:
        """Run the external-consistency check over the recorded history."""
        return external_consistency(self.history)

    @staticmethod
    def contract(history, replica_versions) -> List[CheckResult]:
        """The checks this protocol *promises* to pass, faults included.

        Stated once per protocol, as a function of the recorded history and
        the per-replica committed-version summary (:meth:`replica_versions`),
        so the live cluster and :class:`MergedClusterView` evaluate the same
        code.  The default is the full external-consistency check — correct
        for SSS and the 2PC baseline.  Weaker protocols override it with
        their own contract (ROCOCO: serializability, Walter: PSI's
        dirty-read freedom and replica convergence) so the fault benches can
        assert "every protocol keeps its own guarantee under every fault
        kind" instead of holding all protocols to the strongest one.
        """
        return [external_consistency(history)]

    def replica_versions(self) -> Dict[object, Dict[int, set]]:
        """Per replicated key, the committed versions each locally owned
        replica holds, in ``self.keys`` order.  Empty unless the protocol's
        contract compares replicas."""
        return {}

    def check_contract(self) -> List[CheckResult]:
        """Evaluate :meth:`contract` on this cluster's own state."""
        return self.contract(self.history, self.replica_versions())

    def total_counters(self) -> Dict[str, int]:
        """Aggregate protocol counters over every locally owned node."""
        totals: Dict[str, int] = {}
        for node in self.local_nodes:
            for name, value in node.stats().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} nodes={self.config.n_nodes} "
            f"keys={len(self.keys)} rf={self.config.replication_degree}>"
        )


def external_consistency(history) -> CheckResult:
    """The external-consistency verdict of ``history``, whichever recorder kept it."""
    if history is None:
        raise ConfigurationError("history recording is disabled for this cluster")
    if isinstance(history, WindowedHistoryRecorder):
        return history.check_external_consistency()
    return check_external_consistency(history)


class MergedClusterView:
    """Read-only stand-in for the cluster of a run split over several shards.

    No shard holds the whole cluster (and in process mode none of them
    outlives its worker), so post-run consumers get this instead: the merged
    history, the summed network accounting and the fault log, with
    ``check_consistency`` / ``check_contract`` answered by the protocol's
    own :meth:`ProtocolCluster.contract` over the merged state.
    """

    def __init__(self, cluster_class, config, history, network, fault_log, replica_versions):
        self.cluster_class = cluster_class
        self.protocol_name = cluster_class.protocol_name
        self.config = config
        self.history = history
        self.network = network
        self.fault_log = fault_log
        self.replica_versions = replica_versions

    def check_consistency(self) -> CheckResult:
        return external_consistency(self.history)

    def check_contract(self) -> List[CheckResult]:
        return self.cluster_class.contract(self.history, self.replica_versions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MergedClusterView {self.protocol_name} nodes={self.config.n_nodes}>"
