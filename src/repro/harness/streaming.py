"""The one aggregator of a run's measurements, over a chosen sample store.

:class:`StreamingAccumulator` turns a run's outcome events into every
aggregate :class:`~repro.harness.metrics.ExperimentMetrics` reports:

* the five run-wide latency families (overall, update, read-only,
  internal, pre-commit wait) and the outcome counters;
* the windowed time series of an open-loop run (offered / completed /
  aborted / dropped / timed-out counts and per-window latency
  percentiles);
* the per-phase commit / abort counts of a fault-plan or scenario run,
  the availability derived from them, and — open loop only — each
  phase's offered and shed load.

Every event goes through the same hooks (``on_arrival``, ``on_drop``,
``on_timeout``, ``on_completion``, ``on_commit``, ``on_abort``) and the
same binning and finalisation, whichever way the run stores its samples:

* an **exact** run keeps ``ClientStats``' and ``OpenLoopStats``' raw lists
  while it simulates; ``ExperimentMetrics.from_clients`` feeds them into an
  accumulator over :class:`SortedSamples` once, after the run;
* a ``streaming_metrics=True`` run feeds the accumulator online, over
  :class:`~repro.harness.sketch.QuantileSketch` stores, and keeps no
  per-transaction record (memory bounded by windows + phases + sketch
  buckets).

The two differ only in where samples live: counts and bins are identical,
and a sketch's percentiles are within its relative error of the exact ones
(``tests/integration/test_streaming_metrics.py``).

Warm-up rule: time-series bins accept every event inside the horizon
(warm-up included); the run-wide families and the per-phase commit/abort
counts see measured (post-warm-up) outcomes only, because the clients only
report those through ``on_commit`` / ``on_abort``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.config import SECOND

#: Per-window event counters of the time series.
WINDOW_COUNTERS = ("offered", "aborted", "dropped", "timed_out")
#: Per-phase event counters.
PHASE_COUNTERS = ("committed", "aborted", "offered", "shed")


class SortedSamples:
    """The exact sample store: every value kept, read back by nearest rank.

    Percentiles take the ``ceil(q * n)``-th smallest value and the mean is
    the sum of the sorted values over their count, so a summary does not
    depend on the order the samples arrived in.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float] = ()):
        self.values = list(values)

    def add(self, value: float) -> None:
        self.values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.values.extend(values)

    @property
    def count(self) -> int:
        return len(self.values)

    def _sorted(self) -> List[float]:
        self.values.sort()
        return self.values

    @property
    def mean(self) -> float:
        ordered = self._sorted()
        return sum(ordered) / len(ordered) if ordered else 0.0

    @property
    def max(self) -> float:
        return self._sorted()[-1]

    def quantile(self, fraction: float) -> float:
        ordered = self._sorted()
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))]


class StreamingAccumulator:
    """Counters, bins and sample stores of one run (or one shard of it).

    ``window_us > 0`` marks an open-loop run: it bins a time series over
    ``[0, horizon_us)`` and its phases carry offered and shed load.
    ``phase_windows`` are ``(label, start_us, end_us)`` tuples, contiguous
    and in time order.  ``store`` makes an empty sample store.  Window and
    phase bounds are reported as floats.
    """

    def __init__(
        self,
        window_us: float,
        horizon_us: float,
        phase_windows: Optional[Sequence[Tuple[str, float, float]]] = None,
        store: Callable[[], object] = SortedSamples,
    ):
        self.window_us = window_us = float(window_us)
        self.horizon_us = horizon_us = float(horizon_us)
        # Run-wide latency families (measured outcomes only).
        self.latency = store()
        self.update_latency = store()
        self.read_only_latency = store()
        self.internal_latency = store()
        self.precommit_wait = store()
        self.committed = 0
        self.committed_update = 0
        self.committed_read_only = 0
        self.aborted = 0
        n_windows = 0
        if window_us > 0 and horizon_us > 0:
            n_windows = max(1, math.ceil(horizon_us / window_us))
        self._window_latency = [store() for _ in range(n_windows)]
        self._window_counts = {name: [0] * n_windows for name in WINDOW_COUNTERS}
        self._phase_windows = [
            (label, float(start), float(end)) for label, start, end in phase_windows or ()
        ]
        self._phase_starts = [start for _label, start, _end in self._phase_windows]
        self._phase_counts = {name: [0] * len(self._phase_windows) for name in PHASE_COUNTERS}

    # ------------------------------------------------------------------
    # Binning
    # ------------------------------------------------------------------
    def _window_of(self, t: float) -> int:
        if not self._window_latency or not 0.0 <= t < self.horizon_us:
            return -1
        return min(len(self._window_latency) - 1, int(t // self.window_us))

    def _phase_of(self, t: float) -> int:
        index = bisect_right(self._phase_starts, t) - 1
        if index >= 0 and t < self._phase_windows[index][2]:
            return index
        return -1

    def _tally(self, t: float, window_counter: Optional[str], phase_counter: str) -> None:
        if window_counter is not None and (index := self._window_of(t)) >= 0:
            self._window_counts[window_counter][index] += 1
        if (index := self._phase_of(t)) >= 0:
            self._phase_counts[phase_counter][index] += 1

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def on_arrival(self, t: float) -> None:
        self._tally(t, "offered", "offered")

    def on_drop(self, t: float) -> None:
        self._tally(t, "dropped", "shed")

    def on_timeout(self, t: float) -> None:
        self._tally(t, "timed_out", "shed")

    def on_completion(self, t: float, latency_us: float) -> None:
        """An open-loop commit inside the horizon (warm-up included)."""
        if (index := self._window_of(t)) >= 0:
            self._window_latency[index].add(latency_us)

    def on_commit(
        self,
        latency_us: Optional[float],
        commit_time_us: Optional[float],
        read_only: bool,
        internal_latency_us: Optional[float] = None,
        precommit_wait_us: Optional[float] = None,
    ) -> None:
        """A measured (post-warm-up) commit; a missing value is not sampled."""
        self.committed += 1
        if read_only:
            self.committed_read_only += 1
        else:
            self.committed_update += 1
        if latency_us is not None:
            self.latency.add(latency_us)
            (self.read_only_latency if read_only else self.update_latency).add(latency_us)
        if internal_latency_us is not None:
            self.internal_latency.add(internal_latency_us)
        if precommit_wait_us is not None:
            self.precommit_wait.add(precommit_wait_us)
        if commit_time_us is not None:
            self._tally(commit_time_us, None, "committed")

    def on_abort(self, abort_time_us: Optional[float]) -> None:
        """A measured (post-warm-up) abort."""
        self.aborted += 1
        if abort_time_us is not None:
            self._tally(abort_time_us, "aborted", "aborted")

    # ------------------------------------------------------------------
    # Feeding an exact run's recorded lists
    # ------------------------------------------------------------------
    def add_client(self, stats) -> None:
        """Fold one :class:`~repro.workload.ycsb.ClientStats`' counters and lists."""
        self.committed += stats.committed
        self.committed_update += stats.committed_update
        self.committed_read_only += stats.committed_read_only
        self.aborted += stats.aborted
        self.latency.extend(stats.latencies_us)
        self.update_latency.extend(stats.update_latencies_us)
        self.read_only_latency.extend(stats.read_only_latencies_us)
        self.internal_latency.extend(stats.internal_latencies_us)
        self.precommit_wait.extend(stats.precommit_waits_us)
        if self._phase_windows or self._window_latency:
            for t in stats.commit_times_us:
                self._tally(t, None, "committed")
            for t in stats.abort_times_us:
                self._tally(t, "aborted", "aborted")

    def add_source(self, stats) -> None:
        """Fold one :class:`~repro.workload.openloop.OpenLoopStats`' time lists
        (its ``client`` is folded by :meth:`add_client`)."""
        for t in stats.arrival_times_us:
            self.on_arrival(t)
        for t in stats.drop_times_us:
            self.on_drop(t)
        for t in stats.timeout_times_us:
            self.on_timeout(t)
        for t, latency in zip(stats.completion_times_us, stats.completion_latencies_us):
            self.on_completion(t, latency)

    # ------------------------------------------------------------------
    # Shard merging
    # ------------------------------------------------------------------
    def merge_from(self, other: "StreamingAccumulator") -> None:
        """Fold a shard's accumulator into this one.

        Both must be built from the one experiment spec (same windows,
        horizon and phases) over mergeable stores (sketches).  Counters and
        bins add, stores merge; rates and availability are derived at
        finalisation only.
        """
        if (
            other._phase_windows != self._phase_windows
            or other.window_us != self.window_us
            or other.horizon_us != self.horizon_us
        ):
            raise ValueError("cannot merge accumulators of different shapes")
        for name in (
            "latency",
            "update_latency",
            "read_only_latency",
            "internal_latency",
            "precommit_wait",
        ):
            getattr(self, name).merge(getattr(other, name))
        self.committed += other.committed
        self.committed_update += other.committed_update
        self.committed_read_only += other.committed_read_only
        self.aborted += other.aborted
        for mine, theirs in zip(self._window_latency, other._window_latency):
            mine.merge(theirs)
        for counts, other_counts in (
            *zip(self._window_counts.values(), other._window_counts.values()),
            *zip(self._phase_counts.values(), other._phase_counts.values()),
        ):
            for index, value in enumerate(other_counts):
                counts[index] += value

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def timeseries(self) -> List[Dict[str, float]]:
        """One row per window; the last may be partial and its rates use its
        true width.  Events at or past the horizon (the post-run drain) are
        in no window."""
        counts = self._window_counts
        windows: List[Dict[str, float]] = []
        for index, sample in enumerate(self._window_latency):
            start = index * self.window_us
            end = min(start + self.window_us, self.horizon_us)
            width_s = max(end - start, 1e-9) / SECOND
            offered = counts["offered"][index]
            windows.append(
                {
                    "start_us": start,
                    "end_us": end,
                    "offered": offered,
                    "offered_tps": round(offered / width_s, 1),
                    "completed": sample.count,
                    "goodput_tps": round(sample.count / width_s, 1),
                    "aborted": counts["aborted"][index],
                    "dropped": counts["dropped"][index],
                    "timed_out": counts["timed_out"][index],
                    "latency_p50_us": round(sample.quantile(0.50), 1),
                    "latency_p99_us": round(sample.quantile(0.99), 1),
                }
            )
        return windows

    def phase_metrics(self) -> List[Dict[str, float]]:
        """One row per phase window: commits, aborts, throughput and
        availability, and — open loop only — the offered and shed load
        goodput is measured against.

        Availability is a phase's throughput relative to the best phase
        whose label ends with ``fail-free``, capped at 1; ``None`` everywhere
        when the run has no non-empty fail-free phase.
        """
        counts = self._phase_counts
        phases: List[Dict[str, float]] = []
        for index, (label, start, end) in enumerate(self._phase_windows):
            committed = counts["committed"][index]
            phases.append(
                {
                    "label": label,
                    "start_us": start,
                    "end_us": end,
                    "committed": committed,
                    "aborted": counts["aborted"][index],
                    "throughput_tps": round(committed / (max(end - start, 1e-9) / SECOND), 1),
                }
            )
        reference = max(
            (phase["throughput_tps"] for phase in phases if phase["label"].endswith("fail-free")),
            default=0.0,
        )
        for phase in phases:
            phase["availability"] = (
                round(min(1.0, phase["throughput_tps"] / reference), 4) if reference > 0 else None
            )
        if self._window_latency:
            for index, phase in enumerate(phases):
                offered = counts["offered"][index]
                width_s = max(phase["end_us"] - phase["start_us"], 1e-9) / SECOND
                phase["offered"] = offered
                phase["offered_tps"] = round(offered / width_s, 1)
                phase["shed"] = counts["shed"][index]
        return phases


__all__ = ["SortedSamples", "StreamingAccumulator"]
