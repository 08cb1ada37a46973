"""The ordered external-commit resolution of the (former) ambiguous zone.

This suite pins the mechanism that replaced the fail-free
timeout-then-exclude heuristic:

* :class:`~repro.core.messages.ExternalStatusQuery` answers definitively —
  committed (with the external-commit timestamp), aborted / torn down,
  unknown (presumed abort), or confirmed in flight;
* a confirmed in-flight writer that a reader is about to *exclude* gets its
  client answer gated behind the reader (answer gates), and the gate is
  released when the reader finishes or restarts;
* a participant that voted and crashed recovers through its durable redo
  log plus the in-doubt resolution at its coordinator — SSS's last 2PC
  in-doubt stall;
* ``fastest_round`` read rounds are re-driven in fault mode
  (``ProtocolRuntime.redrive``), so an rf=1 read against a crashed replica
  resumes after the restart instead of stalling (the ROADMAP's read-wave
  stall).
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig, FaultPlan, WorkloadConfig
from repro.common.ids import TransactionId
from repro.core.cluster import SSSCluster
from repro.core.metadata import TransactionPhase
from repro.harness.runner import run_experiment


def _cluster(n_nodes=2, rf=1, seed=5, n_keys=8, fault_mode=False):
    cluster = SSSCluster(
        ClusterConfig(
            n_nodes=n_nodes,
            n_keys=n_keys,
            replication_degree=rf,
            clients_per_node=1,
            seed=seed,
        ),
        record_history=True,
    )
    if fault_mode:
        for node in cluster.nodes:
            node.enable_fault_mode()
    return cluster


def _query(cluster, from_node, writers, reader=None, gate_writers=frozenset()):
    """Drive _query_external_status in a process; return its result."""
    out = {}

    def probe():
        result = yield from cluster.nodes[from_node]._query_external_status(
            writers, reader=reader, gate_writers=gate_writers
        )
        out["result"] = result

    cluster.spawn(probe())
    cluster.run()
    return out["result"]


class TestExternalStatusQuery:
    def test_committed_writer_reports_done_with_timestamp(self):
        cluster = _cluster()
        session = cluster.session(0)
        key = cluster.keys[0]
        out = {}

        def txn():
            session.begin(read_only=False)
            yield from session.read(key)
            session.write(key, 7)
            out["ok"] = yield from session.commit()
            out["meta"] = session.last

        cluster.spawn(txn())
        cluster.run()
        assert out["ok"]
        meta = out["meta"]
        confirmed, gated, refused = _query(cluster, 1, [meta.txn_id])
        assert confirmed == set() and gated == set() and refused == set()
        querier = cluster.nodes[1]
        assert querier._externally_done[meta.txn_id] == meta.external_commit_time

    def test_unknown_transaction_is_presumed_aborted(self):
        cluster = _cluster()
        phantom = TransactionId(0, 4_242)
        confirmed, _gated, _refused = _query(cluster, 1, [phantom])
        assert confirmed == set()
        # Done, but with no answer timestamp: a transaction that never
        # answered a client imposes no real-time order on readers.
        assert cluster.nodes[1]._externally_done[phantom] is None

    def test_torn_down_writer_reports_done_without_timestamp(self):
        cluster = _cluster(fault_mode=True)
        coordinator = cluster.nodes[0]
        meta = coordinator.begin_transaction(read_only=False)
        meta.record_write(cluster.keys[0], 1)
        coordinator.crash()
        coordinator.restart()
        assert coordinator.coordinated[meta.txn_id].phase is TransactionPhase.ABORTED
        confirmed, _gated, _refused = _query(cluster, 1, [meta.txn_id])
        assert confirmed == set()
        assert cluster.nodes[1]._externally_done[meta.txn_id] is None

    def test_in_flight_writer_is_confirmed_and_gated(self):
        """A writer stuck in pre-commit is confirmed pending; with a gate
        request its client answer is gated behind the reader, and the gate
        is released by the reader's Remove."""
        cluster = _cluster(n_nodes=2, rf=1, seed=9, n_keys=4)
        writer_node = cluster.nodes[0]
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 0)
        marks = {}

        def reader(session):
            # Hold a snapshot-queue entry under the writer's snapshot so the
            # writer parks in its pre-commit wait.
            session.begin(read_only=True)
            yield from session.read(key)
            yield session.node.sim.timeout(3_000)
            yield from session.commit()
            marks["reader_done"] = cluster.now

        def writer(session):
            yield session.node.sim.timeout(200)
            session.begin(read_only=False)
            value = yield from session.read(key)
            session.write(key, value + 1)
            ok = yield from session.commit()
            marks["writer_done"] = cluster.now
            marks["writer_ok"] = ok
            marks["writer_meta"] = session.last

        def prober(session):
            yield session.node.sim.timeout(1_000)
            writer_txn = next(
                txn_id
                for txn_id, m in writer_node.coordinated.items()
                if m.is_update
            )
            fake_reader = TransactionId(1, 777)
            result = yield from session.node._query_external_status(
                [writer_txn], reader=fake_reader, gate_writers={writer_txn}
            )
            marks["probe"] = (writer_txn, result)
            # The writer's answer is now gated behind fake_reader; release
            # after a while so the run can finish.
            yield session.node.sim.timeout(2_000)
            marks["writer_done_before_release"] = marks.get("writer_done")
            writer_node._release_answer_gates(fake_reader)

        cluster.spawn(reader(cluster.session(0)))
        cluster.spawn(writer(cluster.session(0)))
        cluster.spawn(prober(cluster.session(1)))
        cluster.run()

        writer_txn, (confirmed, gated, refused) = marks["probe"]
        assert confirmed == {writer_txn}
        assert gated == {writer_txn}
        assert refused == set()
        assert marks["writer_ok"] is True
        # The gate actually held the answer: even though the reader (whose
        # queue entry gated the pre-commit) returned earlier, the writer
        # could not answer until the explicit release.
        assert marks["writer_done_before_release"] is None
        assert marks["writer_done"] >= marks["reader_done"]
        assert not writer_node._answer_gates
        assert cluster.check_consistency().ok


class TestParticipantRedoRecovery:
    def test_voted_then_crashed_participant_recovers_in_doubt_commit(self):
        """SSS's last in-doubt stall: a write replica crashes after voting
        yes but before the Decide arrives.  The durable redo record plus the
        in-doubt status resolution finish the transaction after restart."""
        cluster = _cluster(n_nodes=2, rf=1, seed=21, n_keys=4, fault_mode=True)
        participant = cluster.nodes[1]
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 1)
        out = {}

        def client(session):
            session.begin(read_only=False)
            value = yield from session.read(key)
            session.write(key, value + 41)
            ok = yield from session.commit()
            out["ok"] = ok

        cluster.spawn(client(cluster.session(0)))
        # Step until the participant has force-written its (undecided) redo
        # record, i.e. it voted but has not learned the decision.
        now = 0.0
        while not any(not r.decided for r in participant.redo_log.records()):
            now += 5.0
            cluster.run(until=now)
            assert now < 10_000, "participant never voted"
        participant.crash()
        cluster.run(until=now + 8_000)
        assert "ok" not in out, "commit finished against a crashed replica"
        participant.restart()
        cluster.run(until=now + 40_000)

        assert out.get("ok") is True, "in-doubt transaction never completed"
        assert len(participant.redo_log) == 0
        assert participant.store.latest(key).value == 41
        counters = cluster.total_counters()
        assert (
            counters.get("redo_decides", 0) + counters.get("in_doubt_resolved", 0)
            > 0
        ), "recovery did not go through the redo/in-doubt path"
        assert counters.get("redo_replays", 0) > 0
        assert cluster.check_consistency().ok


class TestReadWaveRetry:
    def test_rf1_read_against_crashed_replica_retries_after_restart(self):
        """The ROADMAP's read-wave stall: with rf=1, a read whose only
        replica is down used to park forever on a reply that never comes.
        The fault-mode retry round re-sends after the restart."""
        config = ClusterConfig(
            n_nodes=2,
            n_keys=8,
            replication_degree=1,
            clients_per_node=2,
            seed=7,
            faults=FaultPlan.parse(["crash node=1 at=20ms for=15ms"]),
        )
        result = run_experiment(
            "sss",
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=80_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
        )
        metrics = result.metrics
        assert metrics.extra["stalled_clients"] == 0
        assert metrics.extra["quiescence_leaked_writers"] == 0
        assert metrics.committed > 0
        assert result.node_counters.get("read_wave_retries", 0) > 0, (
            "no read wave ever retried — the regression scenario was not hit"
        )
        assert result.cluster.check_consistency().ok

    @pytest.mark.parametrize("protocol", ["2pc", "walter"])
    def test_baseline_rf1_reads_recover_too(self, protocol):
        config = ClusterConfig(
            n_nodes=2,
            n_keys=8,
            replication_degree=1,
            clients_per_node=2,
            seed=7,
            faults=FaultPlan.parse(["crash node=1 at=20ms for=15ms"]),
        )
        result = run_experiment(
            protocol,
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=80_000,
            warmup_us=0,
            keep_cluster=True,
        )
        assert result.metrics.extra["stalled_clients"] == 0
        assert result.metrics.committed > 0
