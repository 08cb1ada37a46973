"""Unit tests for the consistency checkers, metrics aggregation and reporting."""

from __future__ import annotations

import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import TransactionId
from repro.consistency.checkers import (
    check_external_consistency,
    check_serializability,
    check_snapshot_reads,
    check_update_completion_order,
)
from repro.consistency.dsg import build_dependency_edges, install_order
from repro.consistency.history import (
    CommittedTransaction,
    HistoryRecorder,
    ReadObservation,
)
from repro.harness.metrics import ExperimentMetrics, LatencySummary
from repro.harness.reporting import format_table, speedup_rows
from repro.workload.ycsb import ClientStats


def committed(
    seq,
    node=0,
    reads=(),
    writes=(),
    begin=0.0,
    end=None,
    is_update=None,
    hints=(),
):
    """Shorthand constructor for a committed-transaction record."""
    reads = tuple(ReadObservation(key=key, writer=writer) for key, writer in reads)
    writes = tuple(writes)
    if is_update is None:
        is_update = bool(writes)
    return CommittedTransaction(
        txn_id=TransactionId(node, seq),
        coordinator=node,
        is_update=is_update,
        reads=reads,
        writes=writes,
        begin_time=begin,
        external_commit_time=end if end is not None else begin + 100.0,
        write_version_hints=tuple(hints),
    )


class TestDependencyEdges:
    def test_wr_edge_from_observed_writer(self):
        writer = committed(1, writes=["x"], begin=0, end=100)
        reader = committed(2, reads=[("x", writer.txn_id)], begin=200, end=300)
        edges = build_dependency_edges([writer, reader])
        kinds = {(e.source, e.target, e.kind) for e in edges}
        assert (writer.txn_id, reader.txn_id, "wr") in kinds

    def test_ww_edges_follow_version_hints_not_completion(self):
        first = committed(1, writes=["x"], begin=0, end=500, hints=[("x", 1.0)])
        second = committed(2, writes=["x"], begin=0, end=100, hints=[("x", 2.0)])
        edges = build_dependency_edges([first, second])
        assert any(
            e.kind == "ww" and e.source == first.txn_id and e.target == second.txn_id
            for e in edges
        )

    def test_rw_edge_when_read_version_overwritten(self):
        reader = committed(1, reads=[("x", None)], begin=0, end=50, is_update=False)
        writer = committed(2, writes=["x"], begin=10, end=200)
        edges = build_dependency_edges([reader, writer])
        assert any(
            e.kind == "rw" and e.source == reader.txn_id and e.target == writer.txn_id
            for e in edges
        )

    def test_install_order_falls_back_to_completion_time(self):
        first = committed(1, writes=["x"], begin=0, end=100)
        second = committed(2, writes=["x"], begin=0, end=200)
        order = install_order([second, first])
        assert [txn.txn_id for txn in order["x"]] == [first.txn_id, second.txn_id]


class TestCheckers:
    def test_serializable_history_passes(self):
        t1 = committed(1, writes=["x"], begin=0, end=100, hints=[("x", 1.0)])
        t2 = committed(
            2, reads=[("x", t1.txn_id)], writes=["y"], begin=150, end=250,
            hints=[("y", 2.0)],
        )
        history = [t1, t2]
        assert check_serializability(history).ok
        assert check_external_consistency(history).ok
        assert check_snapshot_reads(history).ok

    def test_dependency_cycle_detected(self):
        # t1 reads x before t2 writes it; t2 reads y before t1 writes it:
        # classic write-skew-like cycle (rw in both directions).
        t1 = committed(1, reads=[("x", None)], writes=["y"], begin=0, end=100, hints=[("y", 1.0)])
        t2 = committed(2, reads=[("y", None)], writes=["x"], begin=0, end=110, hints=[("x", 1.0)])
        result = check_serializability([t1, t2])
        assert not result.ok
        assert result.violations

    def test_realtime_precedence_violation_detected(self):
        writer = committed(1, writes=["x"], begin=0, end=100, hints=[("x", 1.0)])
        # The reader STARTS after the writer's client response, yet observes
        # the initial version: a strict-serializability violation.
        stale_reader = committed(2, reads=[("x", None)], begin=200, end=260, is_update=False)
        result = check_external_consistency([writer, stale_reader])
        assert not result.ok
        # Without real-time edges the same history is serializable.
        assert check_serializability([writer, stale_reader]).ok

    def test_overlapping_transactions_are_not_realtime_ordered(self):
        writer = committed(1, writes=["x"], begin=0, end=300, hints=[("x", 1.0)])
        overlapping_reader = committed(2, reads=[("x", None)], begin=100, end=150, is_update=False)
        assert check_external_consistency([writer, overlapping_reader]).ok

    def test_update_completion_order_check(self):
        # Two conflicting updates whose responses are far apart but whose
        # version order contradicts the response order.
        first_response = committed(1, writes=["x"], begin=0, end=100, hints=[("x", 2.0)])
        second_response = committed(2, writes=["x"], begin=0, end=5_000, hints=[("x", 1.0)])
        result = check_update_completion_order([first_response, second_response])
        assert not result.ok
        # Within the observability tolerance the same pattern is accepted.
        close = committed(2, writes=["x"], begin=0, end=110, hints=[("x", 1.0)])
        assert check_update_completion_order([first_response, close]).ok

    def test_snapshot_reads_detects_torn_view(self):
        writer = committed(
            1, writes=["x", "y"], begin=0, end=100,
            hints=[("x", 1.0), ("y", 1.0)],
        )
        torn = committed(
            2,
            reads=[("x", writer.txn_id), ("y", None)],
            begin=150,
            end=200,
            is_update=False,
        )
        result = check_snapshot_reads([writer, torn])
        assert not result.ok
        assert "older version" in result.violations[0]

    def test_read_from_unknown_writer_detected(self):
        ghost = TransactionId(9, 999)
        reader = committed(1, reads=[("x", ghost)], begin=0, end=50, is_update=False)
        result = check_snapshot_reads([reader])
        assert not result.ok

    def test_empty_history_passes_everything(self):
        history = HistoryRecorder()
        assert check_external_consistency(history).ok
        assert check_serializability(history).ok
        assert check_snapshot_reads(history).ok

    def test_summary_format(self):
        result = check_serializability([])
        assert "PASS" in result.summary()


def test_the_harness_imports_without_networkx():
    """networkx is a test-only oracle: nothing the runner imports loads it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.harness.runner, sys; assert 'networkx' not in sys.modules",
        ],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        check=True,
        timeout=120,
    )


class TestRecorderVerdictCache:
    """The recorder keeps each check's verdict until it records another
    commit; what it hands out is never older than its records."""

    class _Tags:
        def __init__(self):
            self.issued = 0

        def next_tag(self):
            self.issued += 1
            return (0.0, 0, self.issued)

    @staticmethod
    def _meta(seq, reads=(), writes=(), begin=0.0, end=100.0):
        return SimpleNamespace(
            txn_id=TransactionId(0, seq),
            coordinator=0,
            is_update=bool(writes),
            read_set={
                key: SimpleNamespace(
                    key=key, writer=writer, version_vc=VectorClock([0]), served_by=0
                )
                for key, writer in reads
            },
            write_set={key: 1 for key in writes},
            begin_time=begin,
            external_commit_time=end,
            version_hints={key: float(seq) for key in writes},
        )

    def _recorder(self):
        return HistoryRecorder(tags=self._Tags())

    def test_second_verdict_reuses_the_first(self):
        history = self._recorder()
        history.record_commit(self._meta(1, writes=["x"]))
        first = history.check("external-consistency")
        assert first.ok and first.checked_transactions == 1
        assert history.check("external-consistency") is first
        # Each name keeps its own verdict.
        serializable = history.check("serializability")
        assert serializable.name == "serializability"
        assert history.check("serializability") is serializable
        assert history.check("external-consistency") is first

    def test_next_recorded_commit_outdates_the_verdict(self):
        history = self._recorder()
        history.record_commit(self._meta(1, writes=["x"], begin=0.0, end=100.0))
        assert history.check("external-consistency").ok
        # Begins after the writer's client was answered, reads the preloaded
        # version: the history now contradicts the real-time order.
        history.record_commit(self._meta(2, reads=[("x", None)], begin=200.0, end=260.0))
        second = history.check("external-consistency")
        assert not second.ok and second.checked_transactions == 2

    def test_clear_drops_the_verdict(self):
        history = self._recorder()
        history.record_commit(self._meta(1, writes=["x"], begin=0.0, end=100.0))
        history.record_commit(self._meta(2, reads=[("x", None)], begin=200.0, end=260.0))
        assert not history.check("external-consistency").ok
        history.clear()
        history.record_commit(self._meta(3, writes=["y"]))
        history.record_commit(self._meta(4, writes=["z"]))
        assert history.check("external-consistency").ok

    def test_merged_recorder_starts_without_a_verdict(self):
        writer_part, reader_part = self._recorder(), self._recorder()
        writer_part.record_commit(self._meta(1, writes=["x"], begin=0.0, end=100.0))
        reader_part.record_commit(self._meta(2, reads=[("x", None)], begin=200.0, end=260.0))
        # Each part alone is consistent, and each keeps its own verdict.
        assert writer_part.check("external-consistency").ok
        assert reader_part.check("external-consistency").ok
        merged = HistoryRecorder.merge([writer_part, reader_part])
        assert not merged.check("external-consistency").ok
        assert writer_part.check("external-consistency").ok
        assert reader_part.check("external-consistency").ok

    def test_unknown_check_name_is_rejected(self):
        with pytest.raises(ValueError):
            self._recorder().check("linearizability")


class TestMetrics:
    def test_latency_summary_percentiles(self):
        summary = LatencySummary.from_samples(list(range(1, 101)))
        assert summary.count == 100
        assert summary.mean_us == pytest.approx(50.5)
        assert summary.p50_us == 50
        assert summary.p95_us == 95
        assert summary.p99_us == 99
        assert summary.max_us == 100

    def test_latency_summary_empty(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.mean_us == 0.0

    def test_metrics_aggregation(self):
        a = ClientStats(node_id=0, client_index=0)
        b = ClientStats(node_id=1, client_index=0)
        a.committed, a.committed_update, a.latencies_us = 10, 10, [100.0] * 10
        a.update_latencies_us = [100.0] * 10
        a.internal_latencies_us = [70.0] * 10
        a.precommit_waits_us = [30.0] * 10
        b.committed, b.committed_read_only, b.latencies_us = 5, 5, [50.0] * 5
        b.aborted = 5
        metrics = ExperimentMetrics.from_clients("sss", 2, [a, b], measured_duration_us=1_000_000.0)
        assert metrics.committed == 15
        assert metrics.aborted == 5
        assert metrics.throughput_tps == pytest.approx(15.0)
        assert metrics.abort_rate == pytest.approx(5 / 20)
        assert metrics.precommit_fraction == pytest.approx(0.3)
        assert metrics.as_dict()["protocol"] == "sss"

    def test_window_and_phase_bounds_are_floats_for_an_int_duration(self):
        metrics = ExperimentMetrics.from_clients(
            "sss",
            1,
            [],
            measured_duration_us=15_000.0,
            phase_windows=[("p0:fail-free", 0, 4_500), ("p1:crash", 4_500, 15_000)],
            window_us=5_000,
            horizon_us=15_000,
        )
        rows = metrics.phases + metrics.timeseries
        assert len(rows) == 5
        assert all(type(row[bound]) is float for row in rows for bound in ("start_us", "end_us"))

    def test_client_stats_record(self):
        from repro.core.metadata import TransactionMeta

        stats = ClientStats(node_id=0, client_index=0)
        meta = TransactionMeta(TransactionId(0, 1), 0, True, 2)
        meta.begin_time = 0.0
        meta.internal_commit_time = 60.0
        meta.external_commit_time = 100.0
        stats.record(meta, committed=True)
        stats.record(meta, committed=False)
        assert stats.committed == 1
        assert stats.aborted == 1
        assert stats.update_latencies_us == [100.0]
        assert stats.precommit_waits_us == [40.0]


class TestReporting:
    def test_format_table_contains_values(self):
        table = format_table("Example", ["5", "10"], {"sss": [1.0, 2.0], "2pc": [0.5, None]})
        assert "Example" in table
        assert "sss" in table and "2pc" in table
        assert "2.0" in table and "-" in table

    def test_speedup_rows(self):
        rows = speedup_rows({5: 10.0, 10: 20.0}, {"2pc": {5: 5.0, 10: 0.0}})
        assert rows["2pc"][0] == pytest.approx(2.0)
        assert rows["2pc"][1] is None
