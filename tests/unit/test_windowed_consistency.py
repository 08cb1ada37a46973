"""Unit tests for the windowed (online) consistency checker.

Synthetic histories exercise the epoch/prune machinery directly through
``observe()``: clean histories stay clean across many closed epochs,
planted violations are caught and stay sticky after their epoch closes,
and short histories produce verdicts *identical* to the post-hoc oracle
(they are never pruned, so equivalence is by construction).  The
protocol-sweep equivalence lives in
``tests/integration/test_windowed_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig, TimeoutConfig, WorkloadConfig
from repro.common.ids import TransactionId
from repro.consistency.checkers import run_all_checks
from repro.consistency.history import CommittedTransaction, HistoryRecorder, ReadObservation
from repro.consistency.window import (
    ALL_CHECKS,
    WindowedConsistencyChecker,
    default_retention_us,
)
from repro.harness.runner import run_experiment


def committed(seq, node=0, reads=(), writes=(), begin=0.0, end=None, is_update=None, hints=()):
    """Shorthand constructor mirroring test_consistency_and_metrics."""
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


def chain(n, spacing_us=100.0, key="x"):
    """A clean serial history: each txn reads the previous version of ``key``
    and installs the next one."""
    txns = []
    prev = None
    for seq in range(1, n + 1):
        begin = seq * spacing_us
        txns.append(
            committed(
                seq,
                reads=[(key, prev)] if prev is not None else [(key, None)],
                writes=[key],
                begin=begin,
                end=begin + spacing_us / 2.0,
                hints=[(key, float(seq))],
            )
        )
        prev = txns[-1].txn_id
    return txns


def feed(checker, txns):
    for txn in sorted(txns, key=lambda t: t.external_commit_time):
        checker.observe(txn)
    return checker


class TestWindowMechanics:
    def test_clean_chain_stays_clean_across_many_epochs(self):
        checker = WindowedConsistencyChecker(epoch_us=500.0, retention_us=1_000.0)
        feed(checker, chain(200, spacing_us=100.0))
        results = checker.results()
        assert set(results) == set(ALL_CHECKS)
        assert all(result.ok for result in results.values()), {
            name: result.violations for name, result in results.items()
        }
        stats = checker.stats()
        assert stats["epochs_closed"] > 10
        assert stats["pruned"] > 100
        # The retained window is bounded by retention + epoch worth of txns,
        # not by history length.
        assert stats["max_retained"] <= (1_000.0 + 500.0) / 100.0 + 2

    def test_short_history_matches_post_hoc_verbatim(self):
        # Shorter than retention: nothing is pruned, so windowed results
        # must equal the oracle's, violations included.
        txns = chain(12, spacing_us=50.0)
        checker = feed(WindowedConsistencyChecker(), txns)
        windowed = checker.results()
        oracle = {result.name: result for result in run_all_checks(txns)}
        for name in ALL_CHECKS:
            assert windowed[name].ok == oracle[name].ok
            assert windowed[name].violations == oracle[name].violations

    def test_violation_is_caught_and_sticky_after_epoch_closes(self):
        txns = chain(100, spacing_us=100.0)
        # Plant an external-consistency violation early: a transaction that
        # finishes before txn 5 begins yet reads txn 10's version (a wr edge
        # backwards against real time).
        stale = committed(
            900,
            node=1,
            reads=[("x", TransactionId(0, 10))],
            is_update=False,
            begin=100.0,
            end=150.0,
        )
        checker = WindowedConsistencyChecker(epoch_us=500.0, retention_us=1_000.0)
        feed(checker, txns + [stale])
        results = checker.results()
        assert not results["external-consistency"].ok
        # The violation happened ~98 epochs before the end of the run and
        # the window has long since discarded it; the verdict is sticky.
        assert checker.stats()["epochs_closed"] > 10
        violations = results["external-consistency"].violations
        assert any("T1.900" in violation for violation in violations)

    def test_zombie_read_is_flagged_even_though_writer_is_unknown(self):
        # A read from a writer that never committed (a crashed
        # coordinator's leftover) must stay a snapshot violation — the
        # pruned-writer memory only launders *committed* ids.
        txns = chain(60, spacing_us=100.0)
        zombie = committed(
            901,
            node=2,
            reads=[("x", TransactionId(2, 404))],
            is_update=False,
            begin=3_000.0,
            end=3_050.0,
        )
        checker = WindowedConsistencyChecker(epoch_us=500.0, retention_us=1_000.0)
        feed(checker, txns + [zombie])
        results = checker.results()
        assert not results["snapshot-reads"].ok
        assert any("T2.404" in violation for violation in results["snapshot-reads"].violations)

    def test_read_of_pruned_version_is_not_a_false_positive(self):
        # A rarely written key: its current version's writer is pruned long
        # before later readers commit.  The per-key pruned-writer memory
        # must keep classifying those reads as legal.
        writer = committed(1, writes=["cold"], begin=0.0, end=50.0, hints=[("cold", 1.0)])
        readers = [
            committed(
                seq,
                node=1,
                reads=[("cold", writer.txn_id)],
                is_update=False,
                begin=seq * 200.0,
                end=seq * 200.0 + 40.0,
            )
            for seq in range(2, 80)
        ]
        checker = WindowedConsistencyChecker(epoch_us=400.0, retention_us=800.0)
        feed(checker, [writer] + readers)
        results = checker.results()
        assert all(result.ok for result in results.values()), {
            name: result.violations for name, result in results.items()
        }
        assert checker.stats()["stale_window_reads"] > 0

    def test_deeply_stale_read_is_laundered_by_the_expired_id_filter(self):
        # A hot key advances many versions; a frozen replica keeps serving
        # version 1 far beyond the exact per-key memory.  The Bloom tier
        # remembers "was ever committed" and keeps the read legal.
        txns = chain(120, spacing_us=100.0, key="hot")
        frozen_reads = [
            committed(
                800 + i,
                node=1,
                reads=[("hot", TransactionId(0, 1))],
                is_update=False,
                begin=11_000.0 + i * 50.0,
                end=11_020.0 + i * 50.0,
            )
            for i in range(3)
        ]
        checker = WindowedConsistencyChecker(epoch_us=400.0, retention_us=800.0)
        feed(checker, txns + frozen_reads)
        results = checker.results()
        assert results["snapshot-reads"].ok, results["snapshot-reads"].violations
        assert checker.stats()["pruned_ids_filtered"] > 0

    def test_violation_list_is_deduplicated_and_capped(self):
        checker = WindowedConsistencyChecker(
            epoch_us=500.0, retention_us=1_000.0, max_violations=3
        )
        txns = chain(50, spacing_us=100.0)
        zombies = [
            committed(
                700 + i,
                node=2,
                reads=[("x", TransactionId(2, 500 + i))],
                is_update=False,
                begin=1_000.0 + i * 80.0,
                end=1_040.0 + i * 80.0,
            )
            for i in range(10)
        ]
        feed(checker, txns + zombies)
        violations = checker.results()["snapshot-reads"].violations
        assert len(violations) == 3
        assert len(set(violations)) == 3

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            WindowedConsistencyChecker(epoch_us=0.0)
        with pytest.raises(ValueError):
            WindowedConsistencyChecker(retention_us=-1.0)
        with pytest.raises(ValueError):
            WindowedConsistencyChecker(checks=("external-consistency", "nope"))

    def test_check_subset_only_runs_requested_checks(self):
        checker = WindowedConsistencyChecker(checks=("serializability",))
        feed(checker, chain(5))
        assert set(checker.results()) == {"serializability"}


class TestDefaultRetention:
    def test_derived_from_timeouts(self):
        timeouts = TimeoutConfig()
        expected = (
            (timeouts.prepare_retry_limit + 1) * timeouts.crash_resubscribe_us
            + timeouts.readonly_restart_wait_us
            + 2.0 * timeouts.external_done_wait_us
        )
        assert default_retention_us(timeouts) == expected == 28_800.0

    def test_covers_the_longest_lifetime_of_a_fail_free_recipe(self):
        """No timer bounds a fail-free vote round, so the default is checked
        against the lifetimes a windowed recipe really has: the ledger's
        ``history_windowed_ratio`` row (SSS, mixed-6n shape, 30 ms)."""
        config = ClusterConfig(
            n_nodes=6, n_keys=400, replication_degree=2, clients_per_node=3, seed=2024
        )
        workload = WorkloadConfig(read_only_fraction=0.5, read_only_txn_keys=2)
        result = run_experiment(
            "sss",
            config,
            workload,
            duration_us=30_000.0,
            warmup_us=6_000.0,
            record_history=True,
            keep_cluster=True,
        )
        committed = result.cluster.history.committed
        assert committed
        longest = max(txn.external_commit_time - txn.begin_time for txn in committed)
        assert longest < default_retention_us(config.timeouts)


class TestWindowedRetention:
    """A recorder built with a checker feeds it and keeps nothing."""

    def test_check_requires_the_checker_to_run_it(self):
        recorder = HistoryRecorder(
            checker=WindowedConsistencyChecker(checks=("serializability",))
        )
        with pytest.raises(ValueError):
            recorder.check("external-consistency")

    def test_verdicts_stand_until_the_next_observed_commit(self):
        checker = feed(WindowedConsistencyChecker(), chain(5))
        recorder = HistoryRecorder(checker=checker)
        first = recorder.check("external-consistency")
        assert first.ok and first.checked_transactions == 5
        assert recorder.check("external-consistency") is first
        # A read from a writer that never committed.
        zombie = committed(
            99,
            node=1,
            reads=[("x", TransactionId(1, 404))],
            is_update=False,
            begin=900.0,
            end=950.0,
        )
        checker.observe(zombie)
        assert not recorder.check("committed-reads").ok
        assert recorder.check("external-consistency").checked_transactions == 6
