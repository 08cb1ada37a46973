"""The quantities an experiment reports.

:class:`ExperimentMetrics` holds what the paper's figures read off a run:
throughput in committed transactions per (simulated) second, abort rate,
latency mean and percentiles, and the internal-commit / pre-commit
breakdown of update transaction latency (Figure 5).

Fault-plan and scenario runs additionally get **per-phase** accounting
(committed/aborted counts, throughput and *availability* — throughput
relative to the best fail-free window of the same run, capped at 1), and
open-loop runs a **time series** of fixed windows ("p99 under a burst",
"goodput during the ramp's collapse").  Stalled clients and quiescence
leaks arrive through ``extra`` from the runner.

Every one of those numbers comes out of one aggregator,
:class:`~repro.harness.streaming.StreamingAccumulator`.  The two
constructors differ only in its sample store:
:meth:`ExperimentMetrics.from_clients` feeds an exact run's recorded lists
into exact :class:`~repro.harness.streaming.SortedSamples`;
:meth:`ExperimentMetrics.from_streaming` reads an accumulator a
``streaming_metrics=True`` run fed online over quantile sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.config import SECOND
from repro.harness.streaming import SortedSamples, StreamingAccumulator
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
        return cls.from_store(SortedSamples(samples))

    @classmethod
    def from_store(cls, store) -> "LatencySummary":
        """Summary of a sample store: exact :class:`~repro.harness.streaming.SortedSamples`
        or a :class:`~repro.harness.sketch.QuantileSketch`, whose count, mean and
        max are exact and whose percentiles carry its relative-error guarantee."""
        if store.count == 0:
            return cls(count=0, mean_us=0.0, p50_us=0.0, p95_us=0.0, p99_us=0.0, max_us=0.0)
        return cls(
            count=store.count,
            mean_us=store.mean,
            p50_us=store.quantile(0.50),
            p95_us=store.quantile(0.95),
            p99_us=store.quantile(0.99),
            max_us=store.max,
        )

    @property
    def mean_ms(self) -> float:
        return self.mean_us / 1_000.0


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
    :meth:`~repro.harness.streaming.StreamingAccumulator.timeseries`); empty
    for closed-loop runs."""

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
        open_loop: Sequence = (),
        window_us: float = 0.0,
        horizon_us: float = 0.0,
    ) -> "ExperimentMetrics":
        """Aggregate an exact run from its clients' recorded lists.

        ``open_loop`` are the :class:`~repro.workload.openloop.OpenLoopStats`
        of an open-loop run, binned into ``window_us`` windows over
        ``[0, horizon_us)``; their ``client`` stats are among ``clients``.
        """
        accumulator = StreamingAccumulator(window_us, horizon_us, phase_windows)
        for stats in clients:
            accumulator.add_client(stats)
        for source in open_loop:
            accumulator.add_source(source)
        return cls._summarize(protocol, n_nodes, accumulator, measured_duration_us, extra)

    @classmethod
    def from_streaming(
        cls,
        protocol: str,
        n_nodes: int,
        accumulator: StreamingAccumulator,
        measured_duration_us: float,
        extra: Optional[Dict[str, float]] = None,
    ) -> "ExperimentMetrics":
        """Aggregate a ``streaming_metrics=True`` run from the accumulator it
        fed online (sketched percentiles, no per-transaction record)."""
        return cls._summarize(protocol, n_nodes, accumulator, measured_duration_us, extra)

    @classmethod
    def _summarize(
        cls,
        protocol: str,
        n_nodes: int,
        accumulator: StreamingAccumulator,
        measured_duration_us: float,
        extra: Optional[Dict[str, float]],
    ) -> "ExperimentMetrics":
        phases = accumulator.phase_metrics()
        metrics_extra = dict(extra or {})
        availabilities = [
            phase["availability"] for phase in phases if phase["availability"] is not None
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
            latency=LatencySummary.from_store(accumulator.latency),
            update_latency=LatencySummary.from_store(accumulator.update_latency),
            read_only_latency=LatencySummary.from_store(accumulator.read_only_latency),
            internal_latency=LatencySummary.from_store(accumulator.internal_latency),
            precommit_wait=LatencySummary.from_store(accumulator.precommit_wait),
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
        """Flat dictionary of every number the run reports."""
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
