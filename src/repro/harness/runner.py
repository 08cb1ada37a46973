"""Experiment runner: one driver for any number of shards.

:func:`run_experiment` is one pipeline — **assemble shard(s) → run →
per-shard report → merge →** :class:`ExperimentResult`.  A *shard*
(:class:`Shard`) is a complete cluster facade that constructs only the nodes
it owns, plus the clients of those nodes; what it observed leaves it as data
(:class:`ShardReport`), and the merge of the reports is the result.  The
serial engine is simply the single shard that owns every node: it has
nobody to exchange messages with, so it runs one event loop with no
barriers, and merging its one report is the identity.  Several shards run
the lookahead-window barrier schedule of :mod:`repro.harness.parallel`,
in-process or one worker process each, to byte-identical results.

The client plane is chosen by the configuration: an empty
:class:`~repro.traffic.plan.TrafficPlan` (the default) starts
``clients_per_node`` closed-loop clients per node — byte-identical to the
historical behaviour — while a non-empty plan starts one open-loop
arrival source per node instead (see :mod:`repro.workload.openloop`) and
additionally produces time-resolved metrics and per-scenario-phase
summaries.

:func:`find_saturation_throughput` is the Figure 4(a) procedure: it sweeps
the number of clients per node and reports the best throughput achieved —
"the number of clients per node differs per reported datapoint".  The
sweep's datapoints are independent simulations and fan out across CPU
cores like every other sweep (:func:`run_points`).
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import ClusterConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.consistency.history import HistoryRecorder
from repro.harness.cluster import PROTOCOLS, build_cluster
from repro.harness.metrics import ExperimentMetrics, compute_timeseries
from repro.harness.streaming import StreamingAccumulator
from repro.network.transport import NetworkStats
from repro.protocols.cluster import MergedClusterView
from repro.sim.shard import safe_lookahead, shard_node_ids
from repro.trace.spec import TraceSpec
from repro.workload.openloop import OpenLoopStats, aggregate_open_loop, install_open_loop
from repro.workload.profiles import WorkloadGenerator
from repro.workload.ycsb import ClientStats, closed_loop_client


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
    """Everything a shard needs to assemble and drive itself.

    With several shards it is picklable: in process mode the spec is the
    only thing that travels to a worker at start-up.
    """

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


@dataclass
class ShardReport:
    """What one shard observed, as data the merge (and a pipe) can carry."""

    clients: List[ClientStats]
    open_loop: List[OpenLoopStats]
    accumulator: Optional[StreamingAccumulator]
    counters: Dict[str, int]
    network_stats: NetworkStats
    clock_stats: Dict[str, float]
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
    #: CPU seconds inside the barrier schedule's windows.
    busy_seconds: float = 0.0


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
            # Open loop keeps its windowed time series; closed loop streams
            # the run-wide sketches and online phase counters only
            # (window_us=0), matching the exact closed-loop path, which
            # never produced a time series.
            self.sink = StreamingAccumulator(
                window_us=config.traffic.window_us if config.traffic else 0.0,
                horizon_us=spec.duration_us,
                phase_windows=spec.phase_windows,
            )
        self.clients: List[ClientStats] = []
        self.sessions = []
        self.sources = []
        if config.traffic:
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
        # The accumulator ships once per shard; the per-client sink
        # references would each pickle another copy.
        for stats in self.clients:
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
            clock_stats=cluster.network.clock_stats(),
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
        self._clock_stats = {
            name: (max if name == "encoded_bytes_max" else sum)(
                report.clock_stats[name] for report in reports
            )
            for name in reports[0].clock_stats
        }

    def clock_stats(self) -> Dict[str, float]:
        return self._clock_stats


def run_experiment(
    protocol: str,
    config: ClusterConfig,
    workload: WorkloadConfig,
    duration_us: float = 200_000.0,
    warmup_us: float = 40_000.0,
    record_history: bool = False,
    keep_cluster: bool = False,
    keys: Optional[Sequence[object]] = None,
    drain_us: Optional[float] = None,
    streaming_metrics: bool = False,
    engine: str = "serial",
    shards: Optional[int] = None,
    parallel_mode: str = "process",
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
        off for benchmarks).  ``"windowed"`` records through the
        online :class:`~repro.consistency.window.WindowedHistoryRecorder`
        instead — bounded memory, verdicts as the run progresses.  A
        recorder instance is used as-is (custom epoch/retention bounds).
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
        Aggregate measurements online through a
        :class:`~repro.harness.streaming.StreamingAccumulator` instead of
        retaining per-transaction records: memory stays O(windows + sketch
        buckets) regardless of transaction count, at the cost of
        sketch-accurate (±1%) latency percentiles.  Open-loop runs keep
        their windowed time series; closed-loop runs stream the run-wide
        sketches and phase counters (no time series, matching the exact
        path).
    engine:
        ``"serial"`` (default) runs one shard that owns every node: a
        single event loop.  ``"parallel"`` splits the cluster's nodes over
        ``shards`` shards that exchange messages at lookahead-sized window
        barriers (:mod:`repro.harness.parallel`) — byte-identical results,
        scaled across cores.  Closed-loop only; ``record_history`` must be
        ``True``/``False``; the latency model needs a positive minimum.
    shards:
        Shard count for ``engine="parallel"`` (default: up to 4, capped at
        the node count); ``1`` is the serial path.  Otherwise each shard is
        one worker process, so sweeps fanning out via :func:`run_points`
        budget ``shards × pool workers`` against the CPU count.
    parallel_mode:
        ``"process"`` (default) runs one worker process per shard;
        ``"inline"`` runs every shard in-process (debugging, equivalence
        tests — same results, no parallel speed-up).
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
        if parallel_mode not in ("process", "inline"):
            raise ConfigurationError(f"unknown parallel mode {parallel_mode!r}")
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
        reports, barrier_extra = run_shards(spec, parallel_mode)
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
    timeseries: List[Dict[str, float]] = []
    sorted_arrivals: List[float] = []
    sorted_shed: List[float] = []
    sources = [stats for report in reports for stats in report.open_loop]
    if sources:
        open_loop_extra, all_stats = aggregate_open_loop(sources, measured)
        extra.update(open_loop_extra)
        if sink is None:
            sorted_arrivals = sorted(t for source in sources for t in source.arrival_times_us)
            drop_times = [t for source in sources for t in source.drop_times_us]
            timeout_times = [t for source in sources for t in source.timeout_times_us]
            sorted_shed = sorted(drop_times + timeout_times)
            timeseries = compute_timeseries(
                window_us=config.traffic.window_us,
                horizon_us=duration_us,
                arrivals=sorted_arrivals,
                completion_times=[t for source in sources for t in source.completion_times_us],
                completion_latencies=[
                    latency for source in sources for latency in source.completion_latencies_us
                ],
                drops=drop_times,
                timeouts=timeout_times,
                abort_times=[t for source in sources for t in source.client.abort_times_us],
            )
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
    # Clock-metadata accounting: what the transport's per-sender delta
    # codecs actually charged for message-borne vector clocks (the paper's
    # metadata-compression story, Section III-A).
    clock_stats = network.clock_stats()
    clocks = clock_stats["clocks_encoded"]
    if clocks:
        encoded = clock_stats["encoded_bytes_total"]
        messages_sent = network.stats.total_sent
        extra["clocks_encoded"] = float(clocks)
        extra["clock_bytes_mean"] = round(encoded / clocks, 2)
        extra["clock_bytes_max"] = float(clock_stats["encoded_bytes_max"])
        extra["clock_bytes_per_msg"] = round(encoded / messages_sent if messages_sent else 0.0, 2)
        extra["clock_compression_ratio"] = round(encoded / clock_stats["dense_bytes_total"], 4)
    extra.update(barrier_extra)
    trace_result = None
    if spec.trace is not None:
        from repro.trace import (
            analyze_trace,
            attribution_extra,
            merge_trace_payloads,
            write_chrome_trace,
        )

        trace_result = merge_trace_payloads(
            spec.trace, [report.trace_payload for report in reports]
        )
        paths = analyze_trace(trace_result)
        extra.update(attribution_extra(paths, trace_result))
        if spec.trace.path:
            write_chrome_trace(spec.trace.path, trace_result, paths)
    if sink is not None:
        # Streaming path: sketches and online bins instead of raw samples
        # (the per-phase offered/shed accounting was binned online too).
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
            timeseries=timeseries,
        )
        if sources and metrics.phases:
            # Per-scenario-phase offered-load accounting: goodput per phase
            # is only meaningful next to what was asked of the system then.
            for phase in metrics.phases:
                start, end = phase["start_us"], phase["end_us"]
                offered = bisect_left(sorted_arrivals, end) - bisect_left(sorted_arrivals, start)
                phase["offered"] = offered
                phase["offered_tps"] = round(offered / max((end - start) / 1_000_000.0, 1e-9), 1)
                phase["shed"] = bisect_left(sorted_shed, end) - bisect_left(sorted_shed, start)
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
    :func:`~repro.harness.metrics.compute_phase_metrics` keys on.
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


@dataclass(frozen=True)
class ExperimentPoint:
    """One picklable datapoint of a sweep, for the parallel runner."""

    protocol: str
    config: ClusterConfig
    workload: WorkloadConfig
    duration_us: float = 200_000.0
    warmup_us: float = 40_000.0
    label: object = None
    """Opaque tag (figure coordinates, sweep indices) echoed with the result."""
    record_history: object = False
    """History plane for the point (``run_experiment`` semantics).  When
    truthy the worker additionally runs the protocol's contract checks
    in-process — clusters cannot cross the process boundary, so the verdict
    travels back in ``metrics.extra`` (``consistency_ok`` /
    ``consistency_violations``)."""
    drain_us: Optional[float] = None
    streaming_metrics: bool = False
    engine: str = "serial"
    """``"serial"`` or ``"parallel"`` (the node-sharded engine).  Parallel
    points spawn ``shards`` worker processes *each*, so :func:`run_points`
    shrinks its pool to keep ``shards × pool workers`` within the CPU
    count."""
    shards: Optional[int] = None


def _point_shards(point: ExperimentPoint) -> int:
    """How many worker processes one point occupies while running."""
    if point.engine != "parallel":
        return 1
    if point.shards is not None:
        return max(1, min(point.shards, point.config.n_nodes))
    return default_shards(point.config.n_nodes)


def _run_point_worker(point: ExperimentPoint) -> Tuple[object, ExperimentResult]:
    """Module-level worker so ProcessPoolExecutor can pickle it."""
    record_history = point.record_history
    result = run_experiment(
        point.protocol,
        point.config,
        point.workload,
        duration_us=point.duration_us,
        warmup_us=point.warmup_us,
        record_history=record_history,
        keep_cluster=bool(record_history),
        drain_us=point.drain_us,
        streaming_metrics=point.streaming_metrics,
        engine=point.engine,
        shards=point.shards if point.engine == "parallel" else None,
    )
    if record_history and result.cluster is not None:
        checks = result.cluster.check_contract()
        violations = sum(len(check.violations) for check in checks)
        result.metrics.extra["consistency_ok"] = float(all(check.ok for check in checks))
        result.metrics.extra["consistency_violations"] = float(violations)
        if violations:
            detail = "; ".join(
                f"{check.name}: {check.violations[0]}"
                for check in checks
                if check.violations
            )
            result.metrics.extra["consistency_detail"] = detail  # type: ignore[assignment]
        # The cluster cannot cross the process boundary back to the parent.
        result.cluster = None
    return point.label, result


def default_parallelism() -> int:
    """Worker count for parallel sweeps.

    ``REPRO_BENCH_PARALLEL`` overrides the default (``0``/``1`` disables
    parallelism, ``N`` uses N workers); otherwise all-but-one CPU is used so
    the host stays responsive.
    """
    raw = os.environ.get("REPRO_BENCH_PARALLEL")
    if raw is not None and raw.strip():
        return max(1, int(raw))
    return max(1, (os.cpu_count() or 2) - 1)


def run_points(
    points: Sequence[ExperimentPoint],
    max_workers: Optional[int] = None,
) -> List[Tuple[object, ExperimentResult]]:
    """Run independent experiment datapoints, fanned out across CPU cores.

    Every datapoint is an isolated simulation with its own seed, so the
    results are byte-identical to a serial run regardless of scheduling;
    only wall-clock time changes.  Results are returned in input order.
    With one worker (or a single point) everything runs in-process, which
    keeps debugging and profiling simple.

    Points using the parallel engine spawn their own shard processes, so
    the pool shrinks to keep ``max point shards × pool workers`` within
    the CPU count (``REPRO_BENCH_PARALLEL`` still caps the pool
    explicitly; it is applied after the shard budget).
    """
    explicit_cap = max_workers is not None or bool(
        (os.environ.get("REPRO_BENCH_PARALLEL") or "").strip()
    )
    if max_workers is None:
        max_workers = default_parallelism()
    widest = max((_point_shards(point) for point in points), default=1)
    if widest > 1 and not explicit_cap:
        max_workers = min(max_workers, max(1, (os.cpu_count() or 2) // widest))
    max_workers = min(max_workers, len(points)) or 1
    if max_workers <= 1 or len(points) <= 1:
        return [_run_point_worker(point) for point in points]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_run_point_worker, points))


def run_trials(
    protocol: str,
    config: ClusterConfig,
    workload: WorkloadConfig,
    trials: int = 1,
    **kwargs,
) -> List[ExperimentResult]:
    """Run ``trials`` independent repetitions with derived seeds."""
    results = []
    for trial in range(trials):
        trial_config = replace(config, seed=config.seed + 1_000 * trial)
        results.append(run_experiment(protocol, trial_config, workload, **kwargs))
    return results


def average_throughput_ktps(results: Sequence[ExperimentResult]) -> float:
    """Mean throughput over a list of trial results."""
    if not results:
        return 0.0
    return sum(result.throughput_ktps for result in results) / len(results)


def find_saturation_throughput(
    protocol: str,
    config: ClusterConfig,
    workload: WorkloadConfig,
    client_counts: Sequence[int] = (1, 3, 5, 10, 15),
    duration_us: float = 200_000.0,
    warmup_us: float = 40_000.0,
    max_workers: Optional[int] = None,
    **kwargs,
) -> ExperimentResult:
    """Figure 4(a): best throughput over a sweep of clients per node.

    Each client count is an independent simulation, so the sweep fans out
    across CPU cores via :func:`run_points`; results (including which
    count wins, ties broken toward the earliest count in ``client_counts``)
    are identical to the historical serial loop.  Extra ``run_experiment``
    keyword arguments force the serial path, since the parallel points
    cannot carry them.
    """
    if kwargs:
        results = [
            (
                clients,
                run_experiment(
                    protocol,
                    replace(config, clients_per_node=clients),
                    workload,
                    duration_us=duration_us,
                    warmup_us=warmup_us,
                    **kwargs,
                ),
            )
            for clients in client_counts
        ]
    else:
        points = [
            ExperimentPoint(
                protocol=protocol,
                config=replace(config, clients_per_node=clients),
                workload=workload,
                duration_us=duration_us,
                warmup_us=warmup_us,
                label=clients,
            )
            for clients in client_counts
        ]
        results = run_points(points, max_workers=max_workers)
    best: Optional[ExperimentResult] = None
    for _clients, result in results:
        if best is None or result.throughput_ktps > best.throughput_ktps:
            best = result
    assert best is not None
    best.metrics.extra["saturation_clients_per_node"] = float(best.config.clients_per_node)
    return best
