"""Experiment runner: one driver for any number of shards.

:func:`run_experiment` is one pipeline — **assemble shard(s) → run →
per-shard report → merge →** :class:`ExperimentResult`.  A *shard*
(:class:`Shard`) is a complete cluster facade that constructs only the nodes
it owns, plus the clients of those nodes; what it observed leaves it as data
(:class:`ShardReport`), and the merge of the reports is the result.  The
serial engine is simply the single shard that owns every node: it has
nobody to exchange messages with, so it runs one event loop with no
barriers, and merging its one report is the identity.  Several shards run
the lookahead-window barrier schedule of :mod:`repro.harness.parallel`, all
in the calling process, to byte-identical results.

The client plane is chosen by the configuration: an empty
:class:`~repro.traffic.plan.TrafficPlan` (the default) starts
``clients_per_node`` closed-loop clients per node — byte-identical to the
historical behaviour — while a non-empty plan starts one open-loop
arrival source per node instead (see :mod:`repro.workload.openloop`) and
additionally produces time-resolved metrics and per-scenario-phase
summaries.

Sweeps of independent runs (:func:`~repro.harness.sweep.run_points`) and
the Figure 4(a) saturation search live in :mod:`repro.harness.sweep`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.config import ClusterConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.harness.cluster import PROTOCOLS, build_cluster
from repro.harness.metrics import ExperimentMetrics
from repro.harness.streaming import StreamingAccumulator
from repro.network.transport import NetworkStats
from repro.protocols.cluster import MergedClusterView
from repro.sim.shard import safe_lookahead, shard_node_ids
from repro.trace.spec import TraceSpec
from repro.workload.profiles import WorkloadGenerator
from repro.workload.ycsb import ClientStats, closed_loop_client

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.history import HistoryRecorder
    from repro.workload.openloop import OpenLoopStats


@dataclass
class ExperimentResult:
    """Everything one experiment run produced."""

    protocol: str
    config: ClusterConfig
    workload: WorkloadConfig
    metrics: ExperimentMetrics
    clients: List[ClientStats] = field(default_factory=list)
    node_counters: Dict[str, int] = field(default_factory=dict)
    #: With ``keep_cluster``: the live cluster of a one-shard run, or the
    #: :class:`~repro.protocols.cluster.MergedClusterView` of a sharded one.
    cluster: Optional[object] = None
    #: Merged :class:`~repro.trace.recorder.TraceResult` when the run was
    #: traced (``trace=`` argument), else ``None``.
    trace: Optional[object] = None

    @property
    def throughput_ktps(self) -> float:
        return self.metrics.throughput_ktps


def default_shards(n_nodes: int) -> int:
    """Default shard count: up to 4, never more than one node per shard."""
    return max(1, min(4, n_nodes))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a shard needs to assemble and drive itself."""

    protocol: str
    config: ClusterConfig
    workload: WorkloadConfig
    duration_us: float
    warmup_us: float
    record_history: object
    streaming_metrics: bool
    drain_us: float
    shards: int
    keys: Optional[Sequence[object]] = None
    phase_windows: Optional[List[Tuple[str, float, float]]] = None
    trace: Optional[TraceSpec] = None

    @property
    def horizon_us(self) -> float:
        return self.duration_us + self.drain_us

    @property
    def window_us(self) -> float:
        """Time-series bin width: open-loop runs only (0 for closed loop)."""
        return self.config.traffic.window_us if self.config.traffic else 0.0


@dataclass
class ShardReport:
    """What one shard observed, as plain data the merge folds."""

    clients: List[ClientStats]
    open_loop: List[OpenLoopStats]
    accumulator: Optional[StreamingAccumulator]
    counters: Dict[str, int]
    network_stats: NetworkStats
    fault_log: List[Tuple[float, str]]
    processed_events: int
    stalled_clients: int
    leaked_writers: int
    leaked_commit_queue: int
    #: ``TraceRecorder.payload()`` of this shard when tracing was on.
    trace_payload: Optional[Tuple]
    #: This shard's part of the history and of the per-replica version
    #: summary, for the merged view of a run split over several shards (a
    #: one-shard run hands out its live cluster instead).
    history: Optional[HistoryRecorder] = None
    replica_versions: Optional[Dict[object, Dict[int, set]]] = None


class Shard:
    """One shard, fully assembled: cluster facade, tracer, client plane."""

    def __init__(self, spec: ExperimentSpec, index: int = 0):
        config = spec.config
        self.spec = spec
        self.cluster = cluster = build_cluster(
            spec.protocol,
            config=config,
            keys=spec.keys,
            record_history=spec.record_history,
            owned_node_ids=shard_node_ids(index, config.n_nodes, spec.shards),
        )
        self.tracer = cluster.attach_tracer(spec.trace)
        self.sink: Optional[StreamingAccumulator] = None
        if spec.streaming_metrics:
            from repro.harness.sketch import QuantileSketch

            self.sink = StreamingAccumulator(
                spec.window_us, spec.duration_us, spec.phase_windows, store=QuantileSketch
            )
        self.clients: List[ClientStats] = []
        self.sessions = []
        self.sources = []
        if config.traffic:
            from repro.workload.openloop import install_open_loop

            # Open loop: the traffic plan's arrival sources drive the run;
            # closed-loop clients (and clients_per_node) do not apply.
            self.sources = install_open_loop(
                cluster,
                spec.workload,
                duration_us=spec.duration_us,
                warmup_us=spec.warmup_us,
                sink=self.sink,
            )
        else:
            self._install_closed_loop_clients()

    def _install_closed_loop_clients(self) -> None:
        spec = self.spec
        cluster = self.cluster
        for node_id in cluster.owned_node_ids:
            for client_index in range(spec.config.clients_per_node):
                session = cluster.session(node_id)
                self.sessions.append(session)
                rng = cluster.sim.rng.stream(f"workload.n{node_id}.c{client_index}")
                generator = WorkloadGenerator(
                    spec.workload,
                    cluster.keys,
                    rng,
                    placement=cluster.placement,
                    node_id=node_id,
                )
                stats = ClientStats(node_id=node_id, client_index=client_index, sink=self.sink)
                self.clients.append(stats)
                # unit=node_id charges each client's scheduling to its
                # node's execution unit, so its event keys are the same
                # whichever shard the node lands on.
                cluster.spawn(
                    closed_loop_client(
                        session,
                        generator,
                        stats,
                        deadline_us=spec.duration_us,
                        warmup_us=spec.warmup_us,
                        think_time_us=spec.workload.think_time_us,
                    ),
                    name=f"client-{node_id}-{client_index}",
                    unit=node_id,
                )

    def report(self) -> ShardReport:
        cluster = self.cluster
        # The accumulator is reported once per shard, not through every
        # client that fed it.
        for stats in self.clients + [source.stats.client for source in self.sources]:
            stats.sink = None
        sessions = self.sessions + [s for source in self.sources for s in source.sessions]
        # Fault-plane accounting: clients whose in-flight transaction never
        # completed, and pre-commit state still held at quiescence (the
        # ROADMAP's known liveness leak, now a first-class metric).
        leaked_writers = leaked_commit_queue = 0
        for node in cluster.local_nodes:
            queued = getattr(node, "queued_writer_count", None)
            if queued is not None:
                leaked_writers += queued()
            commit_queue = getattr(node, "commit_queue", None)
            if commit_queue is not None:
                leaked_commit_queue += len(commit_queue)
        report = ShardReport(
            clients=self.clients,
            open_loop=[source.stats for source in self.sources],
            accumulator=self.sink,
            counters=cluster.total_counters(),
            network_stats=cluster.network.stats,
            fault_log=cluster.sim.fault_log,
            processed_events=cluster.sim.processed_events,
            stalled_clients=sum(1 for session in sessions if session.current is not None),
            leaked_writers=leaked_writers,
            leaked_commit_queue=leaked_commit_queue,
            trace_payload=self.tracer.payload() if self.tracer is not None else None,
        )
        if self.spec.shards > 1 and cluster.history is not None:
            report.history = cluster.history
            report.replica_versions = cluster.replica_versions()
        return report


class MergedNetwork:
    """The transport accounting of every shard, read as one network's."""

    def __init__(self, reports: Sequence[ShardReport]):
        self.stats = NetworkStats()
        for report in reports:
            self.stats.merge_from(report.network_stats)


def run_experiment(
    protocol: str,
    config: ClusterConfig,
    workload: WorkloadConfig,
    duration_us: float = 200_000.0,
    warmup_us: float = 40_000.0,
    record_history: Union[bool, str, HistoryRecorder] = False,
    keep_cluster: bool = False,
    keys: Optional[Sequence[object]] = None,
    drain_us: Optional[float] = None,
    streaming_metrics: bool = False,
    engine: str = "serial",
    shards: Optional[int] = None,
    parallel_mode: str = "inline",
    trace=None,
) -> ExperimentResult:
    """Run one (protocol, configuration, workload) experiment.

    Parameters
    ----------
    duration_us:
        Total simulated time, including the warm-up window.
    warmup_us:
        Simulated time during which client statistics are not recorded (the
        system fills its pipelines and reaches steady state).
    record_history:
        ``True`` records every committed transaction for post-hoc
        consistency checking (slows the run down and grows memory;
        off for benchmarks).  ``"windowed"`` feeds every commit to an
        online :class:`~repro.consistency.window.WindowedConsistencyChecker`
        instead and keeps no record — bounded memory, verdicts as the run
        progresses.  A :class:`~repro.consistency.history.HistoryRecorder`
        instance is used as-is (one built with its own checker sets custom
        epoch/retention bounds).  Either way the kept cluster's
        ``check_consistency`` / ``check_contract`` ask the recorder.
    keep_cluster:
        Keep the cluster object on the result (tests use it to inspect node
        state); off by default so large runs can be garbage collected.  A
        run split over several shards keeps a
        :class:`~repro.protocols.cluster.MergedClusterView` instead.
    drain_us:
        Extra simulated time after clients stop issuing, letting in-flight
        transactions finish so stalls and quiescence leaks can be measured.
        Defaults to 0 for fail-free runs (byte-identical to the historical
        behaviour) and to 25 ms when the config carries a fault plan.
    streaming_metrics:
        Where the run's latency samples live.  Every run is aggregated by
        one :class:`~repro.harness.streaming.StreamingAccumulator`; by
        default the clients keep per-transaction lists and
        :meth:`ExperimentMetrics.from_clients` feeds them into exact
        sample stores after the run.  ``True`` feeds the accumulator
        online over quantile sketches instead: no per-transaction record,
        memory O(windows + phases + sketch buckets), the same counts,
        phases and time-series shape, and percentiles within the sketch's
        ±1 %.
    engine:
        ``"serial"`` (default) runs one shard that owns every node: a
        single event loop.  ``"parallel"`` splits the cluster's nodes over
        ``shards`` shards that exchange messages at lookahead-sized window
        barriers (:mod:`repro.harness.parallel`), every shard stepped in
        the calling process — byte-identical results, no speed-up; it pins
        partitionability and shard-count determinism.  Closed-loop only;
        ``record_history`` must be ``True``/``False``; the latency model
        needs a positive minimum.
    shards:
        Shard count for ``engine="parallel"`` (default: up to 4, capped at
        the node count); ``1`` is the serial path.
    parallel_mode:
        Only ``"inline"``, the default.
    trace:
        Causal-tracing plane (see :mod:`repro.trace` and
        ``docs/OBSERVABILITY.md``).  ``None``/``False`` (default) disables
        tracing; what remains is one pointer check per instrumented site,
        which the ledger (``python -m benchmarks.ledger``) cannot resolve
        inside its ±8 % host-time noise.  Tracing every transaction costs
        1.6–1.8× host time on the ledger's workloads.  ``True`` traces
        every transaction, a string is shorthand for "trace everything and
        write the Perfetto JSON to this path", and a
        :class:`~repro.trace.spec.TraceSpec` selects sampling
        (``sample_every`` / ``slower_than_us`` / ``txn_ids``) and the output
        path.  The merged :class:`~repro.trace.recorder.TraceResult` lands
        on ``ExperimentResult.trace`` and the critical-path attribution
        histogram in ``metrics.extra`` (``trace.*`` keys).
    """
    if engine not in ("serial", "parallel"):
        raise ConfigurationError(f"unknown engine {engine!r}; expected 'serial' or 'parallel'")
    # parallel_mode stays only because benchmarks/ledger/spec.py passes it by name.
    if parallel_mode != "inline":
        raise ConfigurationError(
            f"unknown parallel mode {parallel_mode!r}: shards run inline only; worker "
            "processes showed no gain over the serial engine (docs/BENCHMARKS.md, `scaling`)"
        )
    config.validate()
    workload.validate()
    if engine == "serial":
        if shards is not None:
            raise ConfigurationError("shards only applies to engine='parallel'")
        shards = 1
    else:
        if config.traffic:
            raise ConfigurationError(
                "the parallel engine drives closed-loop clients only; "
                "open-loop traffic plans need engine='serial'"
            )
        if record_history not in (False, True):
            raise ConfigurationError(
                "the parallel engine supports record_history=True/False; "
                "windowed recording and recorder injection need engine='serial'"
            )
        if shards is None:
            shards = default_shards(config.n_nodes)
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        shards = min(shards, config.n_nodes)
        # Rejects a latency model with no lookahead before anything is built.
        safe_lookahead(config)
    if drain_us is None:
        drain_us = 25_000.0 if config.faults else 0.0
    phase_windows = _experiment_phase_windows(config, duration_us)
    spec = ExperimentSpec(
        protocol=protocol,
        config=config,
        workload=workload,
        duration_us=duration_us,
        warmup_us=warmup_us,
        record_history=record_history,
        streaming_metrics=streaming_metrics,
        drain_us=drain_us,
        shards=shards,
        keys=keys,
        phase_windows=phase_windows,
        trace=TraceSpec.coerce(trace),
    )

    if shards == 1:
        # One shard has nobody to exchange messages with: no barriers, just
        # its own event loop.
        shard = Shard(spec)
        wall_start = time.perf_counter()
        shard.cluster.run(until=duration_us)
        if drain_us > 0:
            # Clients stop issuing at ``duration_us``; the drain lets in-flight
            # transactions finish (or reveal themselves as stalled).
            shard.cluster.run(until=spec.horizon_us)
        wall_seconds = time.perf_counter() - wall_start
        reports, barrier_extra = [shard.report()], {}
    else:
        from repro.harness.parallel import run_shards

        wall_start = time.perf_counter()
        reports, barrier_extra = run_shards(spec)
        wall_seconds = time.perf_counter() - wall_start
    result = _merge_reports(spec, reports, wall_seconds, barrier_extra)
    if keep_cluster:
        result.cluster = shard.cluster if shards == 1 else _merged_view(spec, reports)
    return result


def _merged_view(spec: ExperimentSpec, reports: Sequence[ShardReport]) -> MergedClusterView:
    """The cluster of a run split over several shards, rebuilt from their reports."""
    history = None
    replica_versions: Dict[object, Dict[int, set]] = {}
    if spec.record_history:
        from repro.consistency.history import HistoryRecorder

        history = HistoryRecorder.merge([report.history for report in reports])
        for report in reports:
            for key, held in report.replica_versions.items():
                replica_versions.setdefault(key, {}).update(held)
    return MergedClusterView(
        PROTOCOLS[spec.protocol],
        spec.config,
        history,
        MergedNetwork(reports),
        reports[0].fault_log,
        replica_versions,
    )


def _merge_reports(
    spec: ExperimentSpec,
    reports: Sequence[ShardReport],
    wall_seconds: float,
    barrier_extra: Dict[str, float],
) -> ExperimentResult:
    """Fold the shard reports into metrics; a one-report merge is the identity."""
    protocol, config = spec.protocol, spec.config
    duration_us, drain_us = spec.duration_us, spec.drain_us
    # Shards own contiguous node blocks, so concatenating in shard order is
    # the (node, client) creation order: every float summation below happens
    # in the same sequence for any shard count.
    all_stats = [stats for report in reports for stats in report.clients]
    counters: Dict[str, int] = {}
    for report in reports:
        for name, value in report.counters.items():
            counters[name] = counters.get(name, 0) + value
    network = MergedNetwork(reports)
    sink = reports[0].accumulator
    if sink is not None:
        for report in reports[1:]:
            sink.merge_from(report.accumulator)
    fault_log = reports[0].fault_log  # the full plan is installed on every shard

    measured = max(duration_us - spec.warmup_us, 1.0)
    extra: Dict[str, float] = {}
    sources = [stats for report in reports for stats in report.open_loop]
    if sources:
        from repro.workload.openloop import aggregate_open_loop

        open_loop_extra, all_stats = aggregate_open_loop(sources, measured)
        extra.update(open_loop_extra)
    if "starvation_backoffs" in counters:
        extra["starvation_backoffs"] = counters["starvation_backoffs"]
    if drain_us > 0:
        extra["stalled_clients"] = float(sum(report.stalled_clients for report in reports))
        extra["quiescence_leaked_writers"] = float(sum(report.leaked_writers for report in reports))
        extra["quiescence_commit_queue"] = float(
            sum(report.leaked_commit_queue for report in reports)
        )
    if fault_log:
        extra["fault_events"] = float(len(fault_log))
    # Machine-readable performance accounting for the benchmark JSON output.
    extra["sim_events"] = float(sum(report.processed_events for report in reports))
    extra["wall_seconds"] = wall_seconds
    # Modelled wire bytes per message: dense vector clocks grow with the
    # server count, the metadata cost Section III-A of the paper discusses.
    messages_sent = network.stats.total_sent
    if messages_sent:
        extra["bytes_per_msg"] = round(network.stats.bytes_sent / messages_sent, 2)
    extra.update(barrier_extra)
    trace_result = None
    if spec.trace is not None:
        from repro.trace.analysis import analyze_trace, attribution_extra
        from repro.trace.export import write_chrome_trace
        from repro.trace.recorder import merge_trace_payloads

        trace_result = merge_trace_payloads(
            spec.trace, [report.trace_payload for report in reports]
        )
        paths = analyze_trace(trace_result)
        extra.update(attribution_extra(paths, trace_result))
        if spec.trace.path:
            write_chrome_trace(spec.trace.path, trace_result, paths)
    if sink is not None:
        metrics = ExperimentMetrics.from_streaming(
            protocol=protocol,
            n_nodes=config.n_nodes,
            accumulator=sink,
            measured_duration_us=measured,
            extra=extra,
        )
    else:
        metrics = ExperimentMetrics.from_clients(
            protocol=protocol,
            n_nodes=config.n_nodes,
            clients=all_stats,
            measured_duration_us=measured,
            extra=extra,
            phase_windows=spec.phase_windows,
            open_loop=sources,
            window_us=spec.window_us,
            horizon_us=duration_us,
        )
    return ExperimentResult(
        protocol=protocol,
        config=config,
        workload=spec.workload,
        metrics=metrics,
        clients=all_stats,
        node_counters=counters,
        trace=trace_result,
    )


def _experiment_phase_windows(
    config: ClusterConfig, duration_us: float
) -> Optional[List[Tuple[str, float, float]]]:
    """Phase windows of a run: fault windows, scenario windows, or both.

    Fault-only runs keep the exact windows (and labels) of
    :meth:`~repro.common.config.FaultPlan.phases`, so historical fault
    experiments are untouched.  Traffic-only runs use the scenario phases.
    When both planes are active the cut points merge and each window is
    labelled ``p<i>:<scenario>|<fault-kinds>`` — the fault part still ends
    with ``fail-free`` outside fault windows, which is what the
    availability reference in
    :meth:`~repro.harness.streaming.StreamingAccumulator.phase_metrics` keys on.
    """
    fault_windows = config.faults.phases(duration_us) if config.faults else []
    traffic_windows = config.traffic.phase_windows(duration_us) if config.traffic else []
    if not traffic_windows:
        return fault_windows or None
    if not fault_windows:
        return [(label, start, end) for label, start, end, _ in traffic_windows]
    cuts = {0.0, duration_us}
    for _, start, end, _ in traffic_windows:
        cuts.update((start, end))
    for fault in config.faults.faults:
        cuts.add(min(fault.at_us, duration_us))
        cuts.add(min(fault.end_us(duration_us), duration_us))
    ordered = sorted(cut for cut in cuts if 0.0 <= cut <= duration_us)
    merged: List[Tuple[str, float, float]] = []
    for index, (start, end) in enumerate(zip(ordered, ordered[1:])):
        if end - start <= 0:
            continue
        active = sorted(
            {
                fault.kind
                for fault in config.faults.faults
                if fault.at_us < end and fault.end_us(duration_us) > start
            }
        )
        fault_label = "+".join(active) if active else "fail-free"
        scenario = next(
            (
                label.split(":", 1)[1]
                for label, t_start, t_end, _ in traffic_windows
                if t_start < end and t_end > start
            ),
            None,
        )
        if scenario is not None:
            merged.append((f"p{index}:{scenario}|{fault_label}", start, end))
        else:
            merged.append((f"p{index}:{fault_label}", start, end))
    return merged
