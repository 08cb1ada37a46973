"""Aggregation of experiment measurements.

:class:`ExperimentMetrics` collapses the per-client statistics collected by
the closed-loop clients into the quantities the paper's figures report:
throughput in committed transactions per (simulated) second, abort rate,
latency mean and percentiles, and the internal-commit / pre-commit breakdown
of update transaction latency (Figure 5).

Fault-plan experiments additionally get **per-phase** accounting: the fault
plan splits the run into windows (fail-free, crash, partition, ...), and
each window reports its committed/aborted counts, throughput and
*availability* — throughput relative to the best fail-free window of the
same run, capped at 1.  Stalled clients (clients whose in-flight transaction
never completed by the post-run drain) and quiescence leaks (pre-commit
state still held at drain) arrive through ``extra`` from the runner.

Open-loop (traffic-plan) experiments reuse the same phase machinery for
their scenario phases and additionally get **time-resolved** accounting:
:func:`compute_timeseries` bins arrivals, completions and shed load into
fixed windows and summarizes each window's latency percentiles, which is
what makes "p99 under a burst" and "goodput during the ramp's collapse"
readable quantities instead of run-wide averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.config import SECOND
from repro.workload.ycsb import ClientStats


@dataclass(frozen=True)
class LatencySummary:
    """Mean and percentile summary of a latency sample (microseconds)."""

    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return cls(count=0, mean_us=0.0, p50_us=0.0, p95_us=0.0, p99_us=0.0, max_us=0.0)
        ordered = sorted(samples)

        def percentile(fraction: float) -> float:
            index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
            return ordered[index]

        return cls(
            count=len(ordered),
            mean_us=sum(ordered) / len(ordered),
            p50_us=percentile(0.50),
            p95_us=percentile(0.95),
            p99_us=percentile(0.99),
            max_us=ordered[-1],
        )

    @classmethod
    def from_sketch(cls, sketch) -> "LatencySummary":
        """Summary read back from a :class:`~repro.harness.sketch.QuantileSketch`.

        Count, mean and max are exact; the percentiles carry the sketch's
        relative-error guarantee (pinned by ``tests/unit/test_sketch.py``).
        """
        if sketch.count == 0:
            return cls(count=0, mean_us=0.0, p50_us=0.0, p95_us=0.0, p99_us=0.0, max_us=0.0)
        return cls(
            count=sketch.count,
            mean_us=sketch.mean,
            p50_us=sketch.quantile(0.50),
            p95_us=sketch.quantile(0.95),
            p99_us=sketch.quantile(0.99),
            max_us=sketch.max,
        )

    @property
    def mean_ms(self) -> float:
        return self.mean_us / 1_000.0


def compute_phase_metrics(
    phase_windows: Optional[Sequence],
    commit_times: Sequence[float],
    abort_times: Sequence[float],
) -> List[Dict[str, float]]:
    """Per-phase commit/abort/availability accounting of a fault-plan run.

    ``phase_windows`` are ``(label, start_us, end_us)`` tuples (produced by
    :meth:`repro.common.config.FaultPlan.phases`); commits/aborts are binned
    by completion time.  *Availability* of a phase is its committed
    throughput relative to the best fail-free phase of the same run, capped
    at 1 (``None`` when the run has no non-empty fail-free phase to compare
    against).  Returns ``[]`` when there are no windows (fail-free run).
    """
    if not phase_windows:
        return []
    phases: List[Dict[str, float]] = []
    for label, start, end in phase_windows:
        width_us = max(end - start, 1e-9)
        committed = sum(1 for t in commit_times if start <= t < end)
        aborted = sum(1 for t in abort_times if start <= t < end)
        phases.append(
            {
                "label": label,
                "start_us": start,
                "end_us": end,
                "committed": committed,
                "aborted": aborted,
                "throughput_tps": round(committed / (width_us / SECOND), 1),
            }
        )
    attach_availability(phases)
    return phases


def attach_availability(phases: List[Dict[str, float]]) -> None:
    """Attach per-phase availability in place (shared with the streaming path).

    Availability is each phase's committed throughput relative to the best
    phase whose label ends with ``fail-free``, capped at 1; ``None``
    everywhere when the run has no non-empty fail-free phase.
    """
    reference = max(
        (phase["throughput_tps"] for phase in phases if phase["label"].endswith("fail-free")),
        default=0.0,
    )
    for phase in phases:
        if reference > 0:
            phase["availability"] = round(min(1.0, phase["throughput_tps"] / reference), 4)
        else:
            phase["availability"] = None


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def compute_timeseries(
    window_us: float,
    horizon_us: float,
    arrivals: Sequence[float],
    completion_times: Sequence[float],
    completion_latencies: Sequence[float],
    drops: Sequence[float] = (),
    timeouts: Sequence[float] = (),
    abort_times: Sequence[float] = (),
) -> List[Dict[str, float]]:
    """Bin an open-loop run into fixed time windows.

    Every window reports offered arrivals, completed (committed)
    transactions with their latency percentiles, aborts, and shed load
    (drops + queue timeouts), each binned by the instant the event
    happened.  ``completion_times`` and ``completion_latencies`` are
    parallel sequences.  Windows cover ``[0, horizon_us)``; the last one
    may be partial and its rates are normalized by its true width.
    Events at or past the horizon (completions and queue timeouts during
    the post-run drain) are excluded — folding them into the last window
    would inflate its goodput with work that did not happen inside it.
    """
    if window_us <= 0 or horizon_us <= 0:
        return []
    n_windows = max(1, math.ceil(horizon_us / window_us))

    def bin_of(t: float) -> int:
        if not 0.0 <= t < horizon_us:
            return -1
        return min(n_windows - 1, int(t // window_us))

    offered = [0] * n_windows
    dropped = [0] * n_windows
    timed_out = [0] * n_windows
    aborted = [0] * n_windows
    latencies: List[List[float]] = [[] for _ in range(n_windows)]
    for t in arrivals:
        if (index := bin_of(t)) >= 0:
            offered[index] += 1
    for t in drops:
        if (index := bin_of(t)) >= 0:
            dropped[index] += 1
    for t in timeouts:
        if (index := bin_of(t)) >= 0:
            timed_out[index] += 1
    for t in abort_times:
        if (index := bin_of(t)) >= 0:
            aborted[index] += 1
    for t, latency in zip(completion_times, completion_latencies):
        if (index := bin_of(t)) >= 0:
            latencies[index].append(latency)
    windows: List[Dict[str, float]] = []
    for index in range(n_windows):
        start = index * window_us
        end = min(start + window_us, horizon_us)
        width_s = max(end - start, 1e-9) / SECOND
        sample = sorted(latencies[index])
        windows.append(
            {
                "start_us": start,
                "end_us": end,
                "offered": offered[index],
                "offered_tps": round(offered[index] / width_s, 1),
                "completed": len(sample),
                "goodput_tps": round(len(sample) / width_s, 1),
                "aborted": aborted[index],
                "dropped": dropped[index],
                "timed_out": timed_out[index],
                "latency_p50_us": round(_percentile(sample, 0.50), 1),
                "latency_p99_us": round(_percentile(sample, 0.99), 1),
            }
        )
    return windows


@dataclass
class ExperimentMetrics:
    """Aggregated outcome of one experiment run."""

    protocol: str
    n_nodes: int
    measured_duration_us: float
    committed: int = 0
    committed_update: int = 0
    committed_read_only: int = 0
    aborted: int = 0
    latency: LatencySummary = field(default_factory=lambda: LatencySummary.from_samples(()))
    update_latency: LatencySummary = field(default_factory=lambda: LatencySummary.from_samples(()))
    read_only_latency: LatencySummary = field(
        default_factory=lambda: LatencySummary.from_samples(())
    )
    internal_latency: LatencySummary = field(
        default_factory=lambda: LatencySummary.from_samples(())
    )
    precommit_wait: LatencySummary = field(default_factory=lambda: LatencySummary.from_samples(()))
    extra: Dict[str, float] = field(default_factory=dict)
    phases: List[Dict[str, float]] = field(default_factory=list)
    """Per-phase accounting of fault-plan and traffic-scenario runs
    (empty for plain fail-free closed-loop runs)."""
    timeseries: List[Dict[str, float]] = field(default_factory=list)
    """Windowed time series of an open-loop run (see
    :func:`compute_timeseries`); empty for closed-loop runs."""

    # ------------------------------------------------------------------
    @classmethod
    def from_clients(
        cls,
        protocol: str,
        n_nodes: int,
        clients: Iterable[ClientStats],
        measured_duration_us: float,
        extra: Optional[Dict[str, float]] = None,
        phase_windows: Optional[Sequence] = None,
        timeseries: Optional[List[Dict[str, float]]] = None,
    ) -> "ExperimentMetrics":
        clients = list(clients)
        latencies: List[float] = []
        update_latencies: List[float] = []
        read_only_latencies: List[float] = []
        internal_latencies: List[float] = []
        precommit_waits: List[float] = []
        commit_times: List[float] = []
        abort_times: List[float] = []
        committed = committed_update = committed_read_only = aborted = 0
        for stats in clients:
            committed += stats.committed
            committed_update += stats.committed_update
            committed_read_only += stats.committed_read_only
            aborted += stats.aborted
            latencies.extend(stats.latencies_us)
            update_latencies.extend(stats.update_latencies_us)
            read_only_latencies.extend(stats.read_only_latencies_us)
            internal_latencies.extend(stats.internal_latencies_us)
            precommit_waits.extend(stats.precommit_waits_us)
            commit_times.extend(stats.commit_times_us)
            abort_times.extend(stats.abort_times_us)
        phases = compute_phase_metrics(phase_windows, commit_times, abort_times)
        metrics_extra = dict(extra or {})
        if phases:
            availabilities = [
                phase["availability"]
                for phase in phases
                if phase.get("availability") is not None
            ]
            if availabilities:
                metrics_extra.setdefault("availability_min", round(min(availabilities), 4))
        return cls(
            protocol=protocol,
            n_nodes=n_nodes,
            measured_duration_us=measured_duration_us,
            committed=committed,
            committed_update=committed_update,
            committed_read_only=committed_read_only,
            aborted=aborted,
            latency=LatencySummary.from_samples(latencies),
            update_latency=LatencySummary.from_samples(update_latencies),
            read_only_latency=LatencySummary.from_samples(read_only_latencies),
            internal_latency=LatencySummary.from_samples(internal_latencies),
            precommit_wait=LatencySummary.from_samples(precommit_waits),
            extra=metrics_extra,
            phases=phases,
            timeseries=list(timeseries or []),
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_streaming(
        cls,
        protocol: str,
        n_nodes: int,
        accumulator,
        measured_duration_us: float,
        extra: Optional[Dict[str, float]] = None,
    ) -> "ExperimentMetrics":
        """Aggregate from a :class:`~repro.harness.streaming.StreamingAccumulator`.

        The streaming twin of :meth:`from_clients`: counts are exact,
        latency summaries come from the accumulator's quantile sketches,
        and the phase/time-series tables were binned online — no
        per-transaction record was ever retained.
        """
        phases = accumulator.phase_metrics()
        metrics_extra = dict(extra or {})
        if phases:
            availabilities = [
                phase["availability"]
                for phase in phases
                if phase.get("availability") is not None
            ]
            if availabilities:
                metrics_extra.setdefault("availability_min", round(min(availabilities), 4))
        return cls(
            protocol=protocol,
            n_nodes=n_nodes,
            measured_duration_us=measured_duration_us,
            committed=accumulator.committed,
            committed_update=accumulator.committed_update,
            committed_read_only=accumulator.committed_read_only,
            aborted=accumulator.aborted,
            latency=LatencySummary.from_sketch(accumulator.latency),
            update_latency=LatencySummary.from_sketch(accumulator.update_latency),
            read_only_latency=LatencySummary.from_sketch(accumulator.read_only_latency),
            internal_latency=LatencySummary.from_sketch(accumulator.internal_latency),
            precommit_wait=LatencySummary.from_sketch(accumulator.precommit_wait),
            extra=metrics_extra,
            phases=phases,
            timeseries=accumulator.timeseries(),
        )

    # ------------------------------------------------------------------
    @property
    def throughput_tps(self) -> float:
        """Committed transactions per simulated second."""
        if self.measured_duration_us <= 0:
            return 0.0
        return self.committed / (self.measured_duration_us / SECOND)

    @property
    def throughput_ktps(self) -> float:
        """Committed transactions per simulated second, in thousands."""
        return self.throughput_tps / 1_000.0

    @property
    def abort_rate(self) -> float:
        attempts = self.committed + self.aborted
        if attempts == 0:
            return 0.0
        return self.aborted / attempts

    # ------------------------------------------------------- metadata plane
    @property
    def bytes_per_msg(self) -> Optional[float]:
        """Modelled wire bytes per sent message (every clock charged densely)."""
        return self.extra.get("bytes_per_msg")

    # ---------------------------------------------------------- traffic plane
    @property
    def offered_tps(self) -> Optional[float]:
        """Offered load of an open-loop run (arrivals per simulated second)."""
        return self.extra.get("offered_tps")

    @property
    def goodput_tps(self) -> Optional[float]:
        """Committed transactions per simulated second under open loop.

        Distinct from ``throughput_tps`` only in intent: under open loop
        the difference between *offered* and *goodput* is the system
        falling behind, which closed-loop runs cannot express.
        """
        return self.extra.get("goodput_tps")

    @property
    def dropped(self) -> Optional[float]:
        """Arrivals shed because the admission queue was full."""
        return self.extra.get("dropped")

    @property
    def timed_out(self) -> Optional[float]:
        """Queued arrivals abandoned unissued after ``queue_timeout_us``."""
        return self.extra.get("timed_out")

    # ------------------------------------------------------------ fault plane
    @property
    def availability_min(self) -> Optional[float]:
        """Lowest per-phase availability of a fault-plan run."""
        return self.extra.get("availability_min")

    @property
    def stalled_clients(self) -> Optional[float]:
        """Clients whose in-flight transaction never completed by drain."""
        return self.extra.get("stalled_clients")

    @property
    def quiescence_leaked_writers(self) -> Optional[float]:
        """Update transactions still held in snapshot queues at drain.

        This is the ROADMAP's known liveness issue made measurable: a
        fail-free run that drains to quiescence must report zero here; a
        non-zero value means pre-commit state leaked (the 4-party stall
        pattern, or a fault that severed a Remove/Decide chain).
        """
        return self.extra.get("quiescence_leaked_writers")

    # ------------------------------------------------------------ trace plane
    @property
    def traced_txns(self) -> float:
        """Sampled transactions kept by a traced run (0 when untraced)."""
        return self.extra.get("trace.txns", 0.0)

    @property
    def trace_critical_path_us(self) -> Dict[str, float]:
        """Critical-path attribution histogram of a traced run.

        Maps span name (``wait.lock``, ``rpc.prepare``, ``phase.execute``,
        the residual ``run`` bucket, ...) to total microseconds that span
        kind spent *on the critical path* of sampled transactions — the
        ``trace.crit_us.*`` keys the runner folds into ``extra``, with the
        prefix stripped.  Empty for untraced runs.
        """
        prefix = "trace.crit_us."
        return {
            key[len(prefix) :]: value
            for key, value in self.extra.items()
            if key.startswith(prefix)
        }

    @property
    def trace_dominant(self) -> Dict[str, float]:
        """Per-span-name count of transactions it dominated (``trace.dominant.*``)."""
        prefix = "trace.dominant."
        return {
            key[len(prefix) :]: value
            for key, value in self.extra.items()
            if key.startswith(prefix)
        }

    @property
    def precommit_fraction(self) -> float:
        """Share of update-transaction latency spent between internal and
        external commit (Figure 5's red bar)."""
        if self.update_latency.count == 0 or self.update_latency.mean_us == 0:
            return 0.0
        return self.precommit_wait.mean_us / self.update_latency.mean_us

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary used by the reports and EXPERIMENTS.md generation."""
        return {
            "protocol": self.protocol,
            "n_nodes": self.n_nodes,
            "throughput_ktps": round(self.throughput_ktps, 3),
            "committed": self.committed,
            "aborted": self.aborted,
            "abort_rate": round(self.abort_rate, 4),
            "latency_mean_ms": round(self.latency.mean_ms, 4),
            "update_latency_mean_ms": round(self.update_latency.mean_ms, 4),
            "read_only_latency_mean_ms": round(self.read_only_latency.mean_ms, 4),
            "precommit_fraction": round(self.precommit_fraction, 4),
            **self.extra,
        }
