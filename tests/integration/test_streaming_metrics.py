"""Exact vs streaming metrics: one aggregator, two sample stores.

``run_experiment(..., streaming_metrics=True)`` feeds the run's outcomes
online into quantile sketches instead of keeping raw lists, and must
report what the exact run reports: identical counts (committed, aborted,
offered, shed), identical time-series and phase-table shapes and counts,
exactly equal means, and quantiles within the sketch's pinned
relative-error tolerance — open and closed loop, under a crash, and merged
across shards.
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig, CrashFault, FaultPlan, TrafficPlan, WorkloadConfig
from repro.harness.runner import run_experiment

WORKLOAD = WorkloadConfig(read_only_fraction=0.5)

#: Pinned quantile tolerance: the sketch guarantees 1% relative error on
#: the value at the same ceil-rank; 1.5% leaves room for one rank-boundary
#: crossing inside a bucket.
QUANTILE_REL_TOL = 0.015

PHASED_PLAN = TrafficPlan.parse(
    [
        "const rate=2500 until=12ms",
        "burst base=2500 peak=9000 every=6ms for=2ms until=26ms",
        "poisson rate=3500",
    ]
)


def _config(traffic, faults=FaultPlan(), seed=7):
    return ClusterConfig(
        n_nodes=3,
        n_keys=200,
        replication_degree=2,
        clients_per_node=0,
        seed=seed,
        faults=faults,
        traffic=traffic,
    )


def _closed_config(faults=FaultPlan()):
    return ClusterConfig(
        n_nodes=3, n_keys=100, replication_degree=2, clients_per_node=2, seed=7, faults=faults
    )


CRASH = FaultPlan(faults=(CrashFault(node=1, at_us=16_000.0, duration_us=6_000.0),))


def _pair(protocol, config, duration_us=40_000.0, warmup_us=8_000.0, **engine):
    kwargs = dict(duration_us=duration_us, warmup_us=warmup_us, **engine)
    exact = run_experiment(protocol, config, WORKLOAD, **kwargs)
    streaming = run_experiment(protocol, config, WORKLOAD, streaming_metrics=True, **kwargs)
    return exact.metrics, streaming.metrics


class TestEquivalence:
    @pytest.mark.parametrize("protocol", ["sss", "2pc"])
    def test_counts_match_exactly(self, protocol):
        exact, streaming = _pair(protocol, _config(PHASED_PLAN))
        assert streaming.committed == exact.committed
        assert streaming.aborted == exact.aborted
        assert streaming.committed_read_only == exact.committed_read_only
        assert streaming.committed_update == exact.committed_update
        for field in ("offered", "dropped", "timed_out", "goodput_tps", "open_loop"):
            assert streaming.extra[field] == exact.extra[field], field

    def test_timeseries_identical(self):
        exact, streaming = _pair("sss", _config(PHASED_PLAN))
        assert exact.timeseries and streaming.timeseries
        assert len(streaming.timeseries) == len(exact.timeseries)
        for exact_win, stream_win in zip(exact.timeseries, streaming.timeseries):
            # Counts and window bounds are exact.
            for field in (
                "start_us",
                "end_us",
                "offered",
                "completed",
                "aborted",
                "dropped",
                "timed_out",
                "offered_tps",
                "goodput_tps",
            ):
                assert stream_win[field] == exact_win[field], (field, exact_win)
            # Per-window percentiles come from per-window sketches.
            for field in ("latency_p50_us", "latency_p99_us"):
                assert stream_win[field] == pytest.approx(
                    exact_win[field], rel=QUANTILE_REL_TOL, abs=0.11
                ), (field, exact_win)

    @pytest.mark.parametrize(
        "config",
        [_config(PHASED_PLAN), _closed_config(CRASH)],
        ids=["open-loop-scenario", "closed-loop-crash"],
    )
    def test_phase_tables_identical(self, config):
        exact, streaming = _pair("sss", config)
        assert exact.phases
        assert [phase["label"] for phase in streaming.phases] == [
            phase["label"] for phase in exact.phases
        ]
        for exact_phase, stream_phase in zip(exact.phases, streaming.phases):
            assert set(stream_phase) == set(exact_phase), exact_phase["label"]
            # Every field is a count, a bound or a rate derived from counts.
            assert stream_phase == exact_phase

    def test_latency_summaries_within_pinned_tolerance(self):
        exact, streaming = _pair("sss", _config(PHASED_PLAN))
        for family in ("latency", "update_latency", "read_only_latency", "internal_latency"):
            exact_summary = getattr(exact, family)
            stream_summary = getattr(streaming, family)
            assert stream_summary.count == exact_summary.count, family
            if exact_summary.count == 0:
                continue
            assert stream_summary.mean_us == pytest.approx(exact_summary.mean_us), family
            for attr in ("p50_us", "p95_us", "p99_us"):
                assert getattr(stream_summary, attr) == pytest.approx(
                    getattr(exact_summary, attr), rel=QUANTILE_REL_TOL
                ), (family, attr)
            assert stream_summary.max_us == pytest.approx(exact_summary.max_us)

    def test_equivalence_holds_under_faults(self):
        exact, streaming = _pair("sss", _config(PHASED_PLAN, faults=CRASH))
        assert streaming.committed == exact.committed
        assert streaming.aborted == exact.aborted
        assert streaming.extra.get("availability_min") == exact.extra.get("availability_min")
        for exact_phase, stream_phase in zip(exact.phases, streaming.phases):
            assert stream_phase["committed"] == exact_phase["committed"]
            assert stream_phase.get("availability") == exact_phase.get("availability")


class TestClosedLoopStreaming:
    @pytest.mark.parametrize(
        "engine",
        [{}, {"engine": "parallel", "shards": 2}],
        ids=["serial", "parallel-2-shards"],
    )
    def test_closed_loop_counts_and_latencies_match_exact_path(self, engine):
        # Closed-loop streaming (used by the big sweeps) must agree with the
        # exact closed-loop aggregation: identical outcome counts, means
        # exactly equal, percentiles within the sketch tolerance.  On two
        # shards the merged shard accumulators meet the concatenated client
        # lists.
        exact, streaming = _pair(
            "sss", _closed_config(), duration_us=12_000.0, warmup_us=2_000.0, **engine
        )
        assert streaming.committed == exact.committed
        assert streaming.aborted == exact.aborted
        assert streaming.committed_update == exact.committed_update
        assert streaming.committed_read_only == exact.committed_read_only
        assert streaming.latency.count == exact.latency.count
        assert streaming.latency.mean_us == pytest.approx(exact.latency.mean_us)
        assert streaming.latency.p99_us == pytest.approx(
            exact.latency.p99_us, rel=QUANTILE_REL_TOL
        )
        # No time series for closed loop, matching the exact path.
        assert streaming.timeseries == []

    def test_closed_loop_streaming_keeps_no_raw_lists(self):
        result = run_experiment(
            "sss",
            _closed_config(),
            WORKLOAD,
            duration_us=8_000.0,
            warmup_us=0.0,
            streaming_metrics=True,
        )
        assert result.clients
        for stats in result.clients:
            assert stats.latencies_us == []
            assert stats.commit_times_us == []
            assert stats.abort_times_us == []


class TestStreamingGuards:

    def test_streaming_run_keeps_no_raw_latency_lists(self):
        result = run_experiment(
            "sss",
            _config(PHASED_PLAN),
            WORKLOAD,
            duration_us=30_000.0,
            warmup_us=6_000.0,
            streaming_metrics=True,
            keep_cluster=True,
        )
        stats_list = result.clients
        assert stats_list, "open-loop run should expose per-source client stats"
        for stats in stats_list:
            assert stats.latencies_us == []
            assert stats.update_latencies_us == []
            assert stats.read_only_latencies_us == []
            assert stats.commit_times_us == []
            assert stats.abort_times_us == []
            assert stats.committed > 0  # scalar counters still maintained
        assert result.metrics.latency.count > 0
