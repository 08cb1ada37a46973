"""External-consistency behaviour of SSS: the paper's running examples.

These tests reproduce the two scenarios of Section III-D:

* Figure 1 — an update transaction with an anti-dependency on a concurrent
  read-only transaction delays its client response (external commit) until
  the read-only transaction has returned.
* Figure 2 — two read-only transactions running on different nodes never
  observe two non-conflicting update transactions in different orders.
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig, WorkloadConfig
from repro.consistency.checkers import (
    check_external_consistency,
    check_serializability,
    check_snapshot_reads,
)
from repro.core.cluster import SSSCluster
from repro.harness.runner import run_experiment


def _cluster(n_nodes=2, n_keys=8, rf=1, seed=21, **kwargs) -> SSSCluster:
    config = ClusterConfig(
        n_nodes=n_nodes,
        n_keys=n_keys,
        replication_degree=rf,
        clients_per_node=1,
        seed=seed,
    )
    return SSSCluster(config, record_history=True, **kwargs)


class TestAntiDependencyDelay:
    """Figure 1: a writer waits for the concurrent reader before replying."""

    def _run_scenario(self, hold_reader_us: float):
        cluster = _cluster(n_nodes=2, n_keys=6, rf=1, seed=5)
        # Pick a key stored on node 1 so the read from node 0 is remote.
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 1)
        times = {}

        def reader(session):
            session.begin(read_only=True)
            value = yield from session.read(key)
            times["reader_read_value"] = value
            # Keep the transaction open: the writer must not externally
            # commit while this reader is still outstanding.
            yield session.node.sim.timeout(hold_reader_us)
            yield from session.commit()
            times["reader_return"] = cluster.now

        def writer(session):
            # Start slightly after the reader issued its read.
            yield session.node.sim.timeout(60)
            session.begin(read_only=False)
            value = yield from session.read(key)
            session.write(key, value + 1)
            ok = yield from session.commit()
            times["writer_ok"] = ok
            times["writer_return"] = cluster.now

        cluster.spawn(reader(cluster.session(0)))
        cluster.spawn(writer(cluster.session(1)))
        cluster.run()
        return cluster, times

    def test_writer_returns_after_reader(self):
        cluster, times = self._run_scenario(hold_reader_us=2_000)
        assert times["writer_ok"] is True
        assert times["reader_read_value"] == 0
        # External consistency: the writer's client response comes after the
        # reader's, because the reader is serialized before the writer.
        assert times["writer_return"] >= times["reader_return"]
        assert check_external_consistency(cluster.history).ok

    def test_writer_precommit_wait_scales_with_reader_hold(self):
        _cluster1, fast = self._run_scenario(hold_reader_us=200)
        _cluster2, slow = self._run_scenario(hold_reader_us=4_000)
        fast_wait = fast["writer_return"]
        slow_wait = slow["writer_return"]
        assert slow_wait > fast_wait + 2_000

    def test_writer_version_still_visible_to_later_transactions(self):
        """Pre-commit blocks the client response, not the written versions."""
        cluster = _cluster(n_nodes=2, n_keys=6, rf=1, seed=8)
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 1)
        observed = {}

        def long_reader(session):
            session.begin(read_only=True)
            yield from session.read(key)
            yield session.node.sim.timeout(5_000)
            yield from session.commit()

        def writer(session):
            yield session.node.sim.timeout(50)
            session.begin(read_only=False)
            value = yield from session.read(key)
            session.write(key, value + 10)
            yield from session.commit()

        def late_update_reader(session):
            # An update transaction reading after the writer internally
            # committed observes the new version even though the writer has
            # not externally committed yet.
            yield session.node.sim.timeout(1_500)
            session.begin(read_only=False)
            value = yield from session.read(key)
            observed["value"] = value
            observed["time"] = cluster.now
            session.write(key, value + 100)
            yield from session.commit()

        cluster.spawn(long_reader(cluster.session(0)))
        cluster.spawn(writer(cluster.session(1)))
        cluster.spawn(late_update_reader(cluster.session(1)))
        cluster.run()
        assert observed["value"] == 10
        assert observed["time"] < 5_000
        assert check_external_consistency(cluster.history).ok


class TestNonConflictingUpdatesOrdering:
    """Figure 2: read-only transactions agree on the order of independent writers."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_no_divergent_orders(self, seed):
        config = ClusterConfig(
            n_nodes=4, n_keys=2, replication_degree=1, clients_per_node=1, seed=seed
        )
        cluster = SSSCluster(config, record_history=True)
        key_x, key_y = cluster.keys[0], cluster.keys[1]
        observations = {}

        def reader(session, name, first, second):
            session.begin(read_only=True)
            a = yield from session.read(first)
            b = yield from session.read(second)
            yield from session.commit()
            observations[name] = {first: a, second: b}

        def writer(session, key):
            session.begin(read_only=False)
            value = yield from session.read(key)
            session.write(key, value + 1)
            yield from session.commit()

        cluster.spawn(reader(cluster.session(0), "T1", key_x, key_y))
        cluster.spawn(writer(cluster.session(1), key_x))
        cluster.spawn(writer(cluster.session(2), key_y))
        cluster.spawn(reader(cluster.session(3), "T4", key_y, key_x))
        cluster.run()

        # The anomaly would be T1 seeing (new x, old y) while T4 sees
        # (old x, new y): contradictory serialization orders of the two
        # independent writers.  Any other combination is consistent.
        t1, t4 = observations["T1"], observations["T4"]
        contradictory = (
            t1[key_x] > t4[key_x] and t1[key_y] < t4[key_y]
        ) or (t1[key_x] < t4[key_x] and t1[key_y] > t4[key_y])
        assert not contradictory
        assert check_external_consistency(cluster.history).ok
        assert check_snapshot_reads(cluster.history).ok


class TestRegressionScenarios:
    """Pinned counterexamples found by randomized stress runs.

    Each entry reproduced a distinct external-consistency (or liveness)
    defect of the original read-only path; the whole random workload is
    re-run and every consistency checker plus cluster quiescence asserted.
    """

    CASES = [
        # Reader observed a pre-committing writer inside its bound and
        # answered its client before the writer did (response-order leak).
        {"seed": 1, "n_nodes": 2, "n_keys": 4, "replication_degree": 1,
         "clients_per_node": 2, "read_only_fraction": 0.8},
        # Fractured snapshot via xactVN scalar collision: the NLog reached
        # the reader's bound while an install inside the bound was queued.
        {"seed": 270, "n_nodes": 4, "n_keys": 19, "replication_degree": 2,
         "clients_per_node": 2, "read_only_fraction": 0.2},
        # Cross-replica fracture: the reader's bound covered a writer it had
        # observed at a replica that had already passed its local wait.
        {"seed": 1, "n_nodes": 2, "n_keys": 4, "replication_degree": 2,
         "clients_per_node": 2, "read_only_fraction": 0.8},
        # Fastest-answer race: a losing replica's stale snapshot-queue entry
        # gated a writer against the reader's own dependency wait.
        {"seed": 80, "n_nodes": 3, "n_keys": 40, "replication_degree": 2,
         "clients_per_node": 2, "read_only_fraction": 0.8},
        # Ambiguous-zone writer (locally passed, not yet announced) bridged
        # by two readers into contradictory serialization orders.
        {"seed": 55328, "n_nodes": 4, "n_keys": 5, "replication_degree": 1,
         "clients_per_node": 2, "read_only_fraction": 0.8},
        # Excluding a pending writer would have capped the reader below an
        # already-done writer's colliding clock value (done-watermark rule).
        {"seed": 68423, "n_nodes": 3, "n_keys": 6, "replication_degree": 1,
         "clients_per_node": 2, "read_only_fraction": 0.5},
    ]

    @pytest.mark.parametrize("params", CASES, ids=lambda p: f"seed{p['seed']}")
    def test_stress_counterexamples_stay_fixed(self, params):
        import sys

        sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent.parent / "property"))
        from test_protocol_properties import run_random_workload

        cluster = run_random_workload("sss", params)
        history = cluster.history
        assert check_external_consistency(history).ok
        assert check_serializability(history).ok
        assert check_snapshot_reads(history).ok
        for node in cluster.nodes:
            assert node.queued_writer_count() == 0, "pre-commit entries leaked"
            assert len(node.commit_queue) == 0, "commit queue not drained"
            assert not node._ack_waits, "external-ack waits leaked"


    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect (docs/SEARCH.md, longro-6n): SSS breaks external "
        "consistency with no fault injected — cycle "
        "T3.29(wr) -> T0.33(rw) -> T1.38(wr) -> T0.34(rw); a fix flips this",
    )
    @pytest.mark.parametrize(
        "engine",
        [{}, {"engine": "parallel", "shards": 2, "parallel_mode": "inline"}],
        ids=["serial", "parallel-2-inline"],
    )
    def test_long_read_only_zipfian_stays_external_consistent(self, engine):
        # Found by the PR-12 ledger's longro-6n audit: 80 % read-only 8-key
        # transactions on zipfian keys, no faults, same cycle on any engine.
        result = run_experiment(
            "sss",
            ClusterConfig(
                n_nodes=6, n_keys=400, replication_degree=2, clients_per_node=3, seed=583441962
            ),
            WorkloadConfig(
                read_only_fraction=0.8,
                update_txn_keys=2,
                read_only_txn_keys=8,
                key_distribution="zipfian",
                zipf_theta=0.9,
            ),
            duration_us=18_000,
            warmup_us=3_600,
            record_history=True,
            drain_us=25_000,
            keep_cluster=True,
            **engine,
        )
        check = result.cluster.check_consistency()
        assert check.ok, check.violations


class TestWorkloadLevelConsistency:
    """Closed-loop mixed workloads keep producing externally consistent histories."""

    @pytest.mark.parametrize("read_only_fraction", [0.2, 0.5, 0.8])
    def test_mixed_workload_history_is_external_consistent(self, read_only_fraction):
        config = ClusterConfig(
            n_nodes=3,
            n_keys=40,
            replication_degree=2,
            clients_per_node=2,
            seed=int(read_only_fraction * 100),
        )
        workload = WorkloadConfig(read_only_fraction=read_only_fraction)
        result = run_experiment(
            "sss",
            config,
            workload,
            duration_us=30_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
        )
        history = result.cluster.history
        assert len(history.committed) > 50
        assert check_external_consistency(history).ok
        assert check_serializability(history).ok
        assert check_snapshot_reads(history).ok

    def test_strict_visibility_mode_matches(self):
        """The strict (whole-log) visibility computation is also consistent."""
        config = ClusterConfig(
            n_nodes=3, n_keys=30, replication_degree=2, clients_per_node=2, seed=77
        )
        cluster = SSSCluster(config, record_history=True, strict_visibility=True)
        workload = WorkloadConfig(read_only_fraction=0.5)

        from repro.workload.profiles import WorkloadGenerator
        from repro.workload.ycsb import ClientStats, closed_loop_client

        for node_id in range(config.n_nodes):
            for client in range(config.clients_per_node):
                session = cluster.session(node_id)
                generator = WorkloadGenerator(
                    workload,
                    cluster.keys,
                    cluster.sim.rng.stream(f"w{node_id}.{client}"),
                )
                cluster.spawn(
                    closed_loop_client(
                        session,
                        generator,
                        ClientStats(node_id, client),
                        deadline_us=20_000,
                    )
                )
        cluster.run(until=25_000)
        assert len(cluster.history.committed) > 30
        assert check_external_consistency(cluster.history).ok
