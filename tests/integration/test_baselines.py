"""Integration tests for the three competitor protocols.

Each baseline must (a) execute transactions correctly through the shared
Session API, and (b) exhibit the guarantee level the paper ascribes to it:
the 2PC-baseline is externally consistent but aborts read-only transactions
under conflicts; Walter provides snapshot reads and never aborts or blocks
read-only transactions; ROCOCO never aborts update transactions and retries
read-only transactions.
"""

from __future__ import annotations

import pytest

from repro.baselines.rococo import RococoCluster
from repro.baselines.twopc import TwoPCCluster
from repro.baselines.walter import WalterCluster
from repro.common.config import ClusterConfig, WorkloadConfig
from repro.consistency.checkers import check_external_consistency, check_snapshot_reads
from repro.harness.runner import run_experiment

from tests.conftest import run_client_txn

ALL_CLUSTERS = [TwoPCCluster, WalterCluster, RococoCluster]


def make_cluster(cluster_class, **overrides):
    defaults = dict(n_nodes=3, n_keys=40, replication_degree=2, seed=23)
    if cluster_class is RococoCluster:
        defaults["replication_degree"] = 1
    defaults.update(overrides)
    return cluster_class(ClusterConfig(**defaults), record_history=True)


class TestBasicOperation:
    @pytest.mark.parametrize("cluster_class", [TwoPCCluster, RococoCluster])
    def test_write_then_read_back(self, cluster_class):
        cluster = make_cluster(cluster_class)
        writer = cluster.session(0)
        ok, meta, _ = run_client_txn(cluster, writer, reads=["key-3"], writes={"key-3": 77})
        assert ok is True
        assert meta.committed

        reader = cluster.session(1)
        ok, _meta, values = run_client_txn(cluster, reader, reads=["key-3"], read_only=True)
        assert ok is True
        assert values["key-3"] == 77

    def test_walter_write_read_back_is_psi_stale_but_eventually_visible(self):
        """Walter (PSI) may serve a reader on another node a stale snapshot,
        but a reader co-located with the writer observes the write, and any
        reader observes it once its node's snapshot includes the commit."""
        cluster = make_cluster(WalterCluster)
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 0)
        writer = cluster.session(0)
        ok, _meta, _ = run_client_txn(cluster, writer, reads=[key], writes={key: 77})
        assert ok is True

        local_reader = cluster.session(0)
        ok, _meta, values = run_client_txn(cluster, local_reader, reads=[key], read_only=True)
        assert ok is True
        assert values[key] == 77

        remote_reader = cluster.session(1)
        ok, _meta, values = run_client_txn(cluster, remote_reader, reads=[key], read_only=True)
        assert ok is True
        assert values[key] in (0, 77)  # PSI permits the stale snapshot

    @pytest.mark.parametrize("cluster_class", ALL_CLUSTERS)
    def test_read_your_own_write(self, cluster_class):
        cluster = make_cluster(cluster_class)
        session = cluster.session(0)
        out = {}

        def txn():
            session.begin(read_only=False)
            session.write("key-9", 5)
            out["value"] = yield from session.read("key-9")
            out["ok"] = yield from session.commit()

        cluster.spawn(txn())
        cluster.run()
        assert out["value"] == 5
        assert out["ok"] is True

    @pytest.mark.parametrize("cluster_class", ALL_CLUSTERS)
    def test_read_only_transaction_observes_initial_values(self, cluster_class):
        cluster = make_cluster(cluster_class)
        session = cluster.session(2)
        ok, _meta, values = run_client_txn(
            cluster, session, reads=["key-1", "key-2"], read_only=True
        )
        assert ok
        assert values == {"key-1": 0, "key-2": 0}

    @pytest.mark.parametrize("cluster_class", ALL_CLUSTERS)
    def test_sequential_increments_accumulate(self, cluster_class):
        cluster = make_cluster(cluster_class)
        session = cluster.session(0)
        for _ in range(3):
            ok, _meta, values = run_client_txn(
                cluster, session, reads=["key-5"], writes=None or {}, read_only=True
            )
            # interleave a read-only between updates to exercise both paths
            assert ok
            out = {}

            def incr():
                session.begin(read_only=False)
                value = yield from session.read("key-5")
                session.write("key-5", value + 1)
                out["ok"] = yield from session.commit()

            cluster.spawn(incr())
            cluster.run()
            assert out["ok"] is True
        ok, _meta, values = run_client_txn(cluster, session, reads=["key-5"], read_only=True)
        assert values["key-5"] == 3


class TestTwoPCBaselineSemantics:
    def test_read_only_transactions_can_abort_under_conflict(self):
        """The defining weakness of the 2PC-baseline (paper, Section V)."""
        config = ClusterConfig(
            n_nodes=3, n_keys=8, replication_degree=2, clients_per_node=3, seed=3
        )
        workload = WorkloadConfig(read_only_fraction=0.5)
        result = run_experiment(
            "2pc",
            config,
            workload,
            duration_us=40_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
        )
        aborted_read_only = [
            txn for txn in result.cluster.history.aborted if not txn.is_update
        ]
        assert aborted_read_only, "expected read-only aborts under contention"

    def test_history_is_externally_consistent(self):
        config = ClusterConfig(
            n_nodes=3, n_keys=30, replication_degree=2, clients_per_node=2, seed=4
        )
        result = run_experiment(
            "2pc",
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=30_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
        )
        history = result.cluster.history
        assert len(history.committed) > 30
        assert check_external_consistency(history).ok


class TestWalterSemantics:
    def test_read_only_transactions_never_abort(self):
        config = ClusterConfig(
            n_nodes=4, n_keys=12, replication_degree=2, clients_per_node=3, seed=6
        )
        result = run_experiment(
            "walter",
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=40_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
        )
        history = result.cluster.history
        assert all(txn.is_update for txn in history.aborted), (
            "Walter read-only transactions must never abort"
        )
        assert len(history.committed_read_only) > 0

    def test_fast_commit_path_used_for_preferred_local_writes(self):
        cluster = make_cluster(WalterCluster)
        # Pick a key whose preferred site is node 0 and write it from node 0.
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 0)
        session = cluster.session(0)
        ok, _meta, _ = run_client_txn(cluster, session, reads=[key], writes={key: 1})
        assert ok
        assert cluster.node(0).counters["fast_commits"] == 1

    def test_slow_commit_path_used_for_remote_writes(self):
        cluster = make_cluster(WalterCluster)
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 1)
        session = cluster.session(0)
        ok, _meta, _ = run_client_txn(cluster, session, reads=[key], writes={key: 1})
        assert ok
        assert cluster.node(0).counters["slow_commits"] == 1

    def test_reads_only_observe_committed_data(self):
        """PSI permits torn cross-site snapshots but never exposes uncommitted
        writes; the history must contain no read from an unknown writer."""
        config = ClusterConfig(
            n_nodes=3, n_keys=30, replication_degree=2, clients_per_node=2, seed=8
        )
        result = run_experiment(
            "walter",
            config,
            WorkloadConfig(read_only_fraction=0.6),
            duration_us=30_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
        )
        check = check_snapshot_reads(result.cluster.history)
        dirty_reads = [v for v in check.violations if "uncommitted" in v]
        assert not dirty_reads


class TestRococoSemantics:
    def test_update_transactions_never_abort(self):
        config = ClusterConfig(
            n_nodes=3, n_keys=10, replication_degree=1, clients_per_node=3, seed=12
        )
        result = run_experiment(
            "rococo",
            config,
            WorkloadConfig(read_only_fraction=0.2),
            duration_us=40_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
        )
        history = result.cluster.history
        assert all(not txn.is_update for txn in history.aborted), (
            "ROCOCO update transactions must never abort"
        )
        assert len(history.committed_updates) > 20

    def test_read_only_aborts_increase_with_read_set_size(self):
        def abort_rate(read_set_size: int) -> float:
            config = ClusterConfig(
                n_nodes=3, n_keys=30, replication_degree=1, clients_per_node=3, seed=5
            )
            workload = WorkloadConfig(read_only_fraction=0.8, read_only_txn_keys=read_set_size)
            result = run_experiment(
                "rococo", config, workload, duration_us=40_000, warmup_us=0,
                record_history=True, keep_cluster=True,
            )
            history = result.cluster.history
            read_only_aborts = sum(1 for txn in history.aborted if not txn.is_update)
            attempts = read_only_aborts + len(history.committed_read_only)
            return read_only_aborts / max(attempts, 1)

        assert abort_rate(16) >= abort_rate(2)

    def test_history_is_serializable(self):
        config = ClusterConfig(
            n_nodes=3, n_keys=30, replication_degree=1, clients_per_node=2, seed=9
        )
        result = run_experiment(
            "rococo",
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=30_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
        )
        from repro.consistency.checkers import check_serializability

        assert check_serializability(result.cluster.history).ok


class TestDecideOvertakingPrepare:
    """A fail-fast ``Decide(abort)`` (CONTROL priority) can overtake a sibling
    ``Prepare`` still queued or in its lock wait at another participant.  The
    late prepare used to take its locks with no second decide coming, and
    contended keys stayed locked for the rest of the run (fail-free, on both
    2PC-style baselines).  Every decide is recorded now, and the prepare's
    post-lock-wait check of the decided set releases instead of voting."""

    @pytest.mark.parametrize("protocol", ["2pc", "walter"])
    def test_no_lock_outlives_the_drain(self, protocol):
        result = run_experiment(
            protocol,
            ClusterConfig(n_nodes=3, n_keys=12, clients_per_node=4, seed=5),
            WorkloadConfig(),
            duration_us=60_000,
            drain_us=60_000,
            keep_cluster=True,
        )
        for node in result.cluster.nodes:
            assert node.locks.locked_keys() == [], f"node {node.node_id} leaked locks"
            assert not node._prepared
