"""Integration tests of SSS node internals: garbage collection of snapshot
queues, starvation back-off, strict-vs-summary visibility, Remove
forwarding along anti-dependency chains, and the classification of the
writers above a reader's bound."""

from __future__ import annotations

import pytest

from repro.clocks.vector_clock import VectorClock
from repro.common.config import ClusterConfig, TimeoutConfig, WorkloadConfig
from repro.common.ids import TransactionId
from repro.core.cluster import SSSCluster
from repro.harness.runner import run_experiment
from repro.storage.snapshot_queue import WRITE_KIND, SQueueEntry


class TestSnapshotQueueGarbageCollection:
    def test_remove_is_forwarded_along_propagation_chain(self):
        """A reader's entry propagated into another key's queue is cleaned up
        when the reader commits, even on nodes it never contacted."""
        config = ClusterConfig(
            n_nodes=3, n_keys=6, replication_degree=1, clients_per_node=1, seed=33
        )
        cluster = SSSCluster(config, record_history=True)
        # key_a on node A, key_b on node B (both different from the reader's node).
        key_a = next(k for k in cluster.keys if cluster.placement.primary(k) == 1)
        key_b = next(k for k in cluster.keys if cluster.placement.primary(k) == 2)
        marks = {}

        def reader(session):
            session.begin(read_only=True)
            yield from session.read(key_a)
            # Hold the transaction open long enough for the two writers below
            # to chain through the pre-commit phase.
            yield session.node.sim.timeout(4_000)
            yield from session.commit()
            marks["reader_done"] = cluster.now

        def writer_w(session):
            # Writes key_a: anti-dependency with the reader.
            yield session.node.sim.timeout(200)
            session.begin(read_only=False)
            value = yield from session.read(key_a)
            session.write(key_a, value + 1)
            yield from session.commit()
            marks["w_done"] = cluster.now

        def writer_w2(session):
            # Reads key_a (written by W, still pre-committing) and writes
            # key_b: the reader's entry is propagated into key_b's queue.
            yield session.node.sim.timeout(1_000)
            session.begin(read_only=False)
            value = yield from session.read(key_a)
            session.write(key_b, value + 10)
            yield from session.commit()
            marks["w2_done"] = cluster.now

        cluster.spawn(reader(cluster.session(0)))
        cluster.spawn(writer_w(cluster.session(1)))
        cluster.spawn(writer_w2(cluster.session(2)))
        cluster.run()

        assert "reader_done" in marks and "w_done" in marks and "w2_done" in marks
        # Both writers externally commit only after the reader returned.
        assert marks["w_done"] >= marks["reader_done"]
        # Every snapshot queue on every node is empty at quiescence: the
        # Remove reached the propagated copies too.
        for node in cluster.nodes:
            for squeue in node.store.squeues().values():
                assert len(squeue) == 0
        assert cluster.check_consistency().ok

    def test_version_history_can_be_truncated(self):
        config = ClusterConfig(
            n_nodes=2, n_keys=4, replication_degree=1, clients_per_node=1, seed=3
        )
        cluster = SSSCluster(config, record_history=False)
        session = cluster.session(0)
        key = cluster.keys[0]

        def writer():
            for value in range(10):
                session.begin(read_only=False)
                current = yield from session.read(key)
                session.write(key, current + 1)
                yield from session.commit()

        cluster.spawn(writer())
        cluster.run()
        node = cluster.node(cluster.placement.primary(key))
        before = len(node.store.chain(key))
        assert before > 5
        removed = node.store.truncate_history(min_versions=2)
        assert removed == before - 2
        assert node.store.latest(key).value == 10


class TestStarvationBackoff:
    def test_backoff_applied_when_writers_starve(self):
        """With an aggressive threshold, a stream of readers over a key whose
        writer is stuck triggers the admission-control back-off."""
        timeouts = TimeoutConfig(starvation_threshold_us=200.0)
        config = ClusterConfig(
            n_nodes=2,
            n_keys=4,
            replication_degree=1,
            clients_per_node=1,
            seed=5,
            timeouts=timeouts,
        )
        cluster = SSSCluster(config, record_history=False)
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 1)

        def blocker(session):
            # A reader that holds the key's snapshot queue for a long time.
            session.begin(read_only=True)
            yield from session.read(key)
            yield session.node.sim.timeout(8_000)
            yield from session.commit()

        def writer(session):
            yield session.node.sim.timeout(100)
            session.begin(read_only=False)
            value = yield from session.read(key)
            session.write(key, value + 1)
            yield from session.commit()

        def reader_stream(session):
            yield session.node.sim.timeout(1_000)
            for _ in range(6):
                session.begin(read_only=True)
                yield from session.read(key)
                yield from session.commit()
                yield session.node.sim.timeout(300)

        cluster.spawn(blocker(cluster.session(0)))
        cluster.spawn(writer(cluster.session(1)))
        cluster.spawn(reader_stream(cluster.session(0)))
        cluster.run()
        backoffs = sum(node.counters.get("starvation_backoffs", 0) for node in cluster.nodes)
        assert backoffs > 0

    def test_no_backoff_without_queued_writers(self):
        config = ClusterConfig(
            n_nodes=2, n_keys=10, replication_degree=1, clients_per_node=1, seed=6
        )
        cluster = SSSCluster(config, record_history=False)
        session = cluster.session(0)

        def readers():
            for index in range(5):
                session.begin(read_only=True)
                yield from session.read(cluster.keys[index % len(cluster.keys)])
                yield from session.commit()

        cluster.spawn(readers())
        cluster.run()
        assert all(node.counters.get("starvation_backoffs", 0) == 0 for node in cluster.nodes)

    def test_backoff_levels_stay_empty_without_backoffs(self):
        """A read of a key whose writers are not starving drops the key's
        back-off level instead of storing a zero, so a run that never backs
        off leaves every node's level map empty."""
        result = run_experiment(
            "sss",
            ClusterConfig(n_nodes=3, n_keys=60, replication_degree=2, clients_per_node=2, seed=9),
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=20_000,
            warmup_us=0,
            keep_cluster=True,
        )
        assert result.metrics.committed > 0
        assert result.node_counters.get("starvation_backoffs", 0) == 0
        assert result.node_counters.get("reads_read_only", 0) > 0
        assert all(not node._backoff_level for node in result.cluster.nodes)


class TestVisibilityModes:
    @pytest.mark.parametrize("strict", [False, True])
    def test_both_visibility_modes_produce_consistent_histories(self, strict):
        config = ClusterConfig(
            n_nodes=3, n_keys=24, replication_degree=2, clients_per_node=2, seed=44
        )
        cluster = SSSCluster(config, record_history=True, strict_visibility=strict)
        from repro.workload.profiles import WorkloadGenerator
        from repro.workload.ycsb import ClientStats, closed_loop_client

        for node_id in range(config.n_nodes):
            session = cluster.session(node_id)
            generator = WorkloadGenerator(
                WorkloadConfig(read_only_fraction=0.6),
                cluster.keys,
                cluster.sim.rng.stream(f"vis.{node_id}"),
            )
            cluster.spawn(
                closed_loop_client(session, generator, ClientStats(node_id, 0), deadline_us=15_000)
            )
        cluster.run()
        assert len(cluster.history.committed) > 20
        assert cluster.check_consistency().ok

    def test_read_waits_until_visibility_bound_reached(self):
        """A reader whose VC is ahead of a node's log waits for the commit."""
        config = ClusterConfig(
            n_nodes=3, n_keys=12, replication_degree=2, clients_per_node=1, seed=11
        )
        cluster = SSSCluster(config, record_history=True)
        result = run_experiment(
            "sss",
            config,
            WorkloadConfig(read_only_fraction=0.5, read_only_txn_keys=4),
            duration_us=30_000,
            warmup_us=0,
            keep_cluster=True,
        )
        waits = sum(node.counters.get("read_waits", 0) for node in result.cluster.nodes)
        # With multi-key read-only transactions crossing nodes, at least some
        # reads hit the Algorithm 6 line-5 wait.
        assert waits >= 0  # the wait path must at minimum not crash
        assert result.metrics.committed > 50


# The classification table of ``SSSNode._classify_writers``, state built by
# hand on node 4 of a six-node cluster.  The reader's bound is 10 at node 4
# and 10 on its one read coordinate (node 0); node 4's done-watermark is 20.
# A row is a list of versions installed after version zero, oldest first, as
# ``(local value, value on the read coordinate, writer state)``: ``done``,
# ``gated``, ``queued`` (W entry in the key's queue) or ``passed`` (its
# pre-commit wait is over); writer ``None`` is a version with no writer.
# Expected: the row's excluded and ambiguous writers, by version index.
NODE = 4
BOUND = 10
WATERMARK = 20
CLASSIFICATION_ROWS = {
    "no-writer": ([(BOUND + 11, 11, None)], set(), set()),
    "done": ([(BOUND + 11, 11, "done")], set(), set()),
    "gated": ([(BOUND + 11, 5, "gated")], {0}, set()),
    "covered": ([(BOUND + 11, 5, "queued")], set(), set()),
    "above-watermark-queued": ([(BOUND + 11, 11, "queued")], {0}, set()),
    "above-watermark-passed": ([(BOUND + 11, 11, "passed")], {0}, {0}),
    "at-watermark": ([(WATERMARK, 11, "passed")], set(), {0}),
    "below-watermark-queued": ([(BOUND + 1, 11, "queued")], set(), {0}),
    "walk-stops-at-bound": (
        [(BOUND + 12, 11, "queued"), (BOUND, 11, "queued"), (BOUND + 11, 11, "queued")],
        {2},
        set(),
    ),
}


def _classification_node():
    cluster = SSSCluster(
        ClusterConfig(n_nodes=6, n_keys=12, replication_degree=2, clients_per_node=1, seed=3)
    )
    node = cluster.nodes[NODE]
    node._done_local_watermark = WATERMARK
    return node


def _install_row(node, key, versions):
    """Install ``versions`` of ``key``; return their writers and the gated."""
    node.store.preload([key], n_nodes=6)
    writers, gated = [], set()
    for seq, (local, on_read, state) in enumerate(versions):
        writer = None if state is None else TransactionId(1, seq)
        clock = [0] * 6
        clock[NODE], clock[0] = local, on_read
        node.store.install(key, seq, VectorClock(clock), writer=writer)
        if state == "done":
            node._externally_done[writer] = 1.0
        elif state == "gated":
            gated.add(writer)
        elif state == "queued":
            node.store.squeue(key).insert(SQueueEntry(writer, local, WRITE_KIND))
        writers.append(writer)
    return writers, gated


class TestChainWalkClassification:
    @pytest.mark.parametrize("row", sorted(CLASSIFICATION_ROWS))
    def test_each_writer_above_the_bound_is_classified_once(self, row):
        versions, excluded_rows, ambiguous_rows = CLASSIFICATION_ROWS[row]
        node = _classification_node()
        writers, gated = _install_row(node, row, versions)
        reader_vc = VectorClock([BOUND, 0, 0, 0, BOUND, 0])
        read = VectorClock.selector((1, 0, 0, 0, 0, 0))
        ambiguous, excluded = node._classify_writers(row, reader_vc, read, gated)
        chain = list(node.store.chain(row).newest_to_oldest())
        excluded_writers = {v.writer for v in chain if v.vc in excluded}
        assert excluded_writers == {writers[index] for index in excluded_rows}
        assert ambiguous == [
            (writers[index], versions[index][0]) for index in sorted(ambiguous_rows, reverse=True)
        ]

    def test_the_same_writer_turns_ambiguous_when_its_precommit_wait_ends(self):
        node = _classification_node()
        (writer,), _gated = _install_row(node, "k", [(BOUND + 11, 11, "queued")])
        reader_vc = VectorClock([BOUND, 0, 0, 0, BOUND, 0])
        read = VectorClock.selector((1, 0, 0, 0, 0, 0))
        assert node._classify_writers("k", reader_vc, read)[0] == []
        node.store.squeue("k").remove(writer)
        ambiguous, excluded = node._classify_writers("k", reader_vc, read)
        assert ambiguous == [(writer, BOUND + 11)]
        assert excluded == {node.store.latest("k").vc}

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP direction 1: the walk stops on the scalar vc[i] <= bound, "
        "so a writer that ties the reader's local bound and is hidden through "
        "another read coordinate is neither excluded nor ambiguous",
    )
    def test_a_writer_tying_the_local_bound_is_still_classified(self):
        """The longro recipe's ``T3.29`` at node 4, served on the first-read
        branch of ``T0.34``: hidden through coordinate 3 (30 < 32), tying
        the reader's local bound 32, parked in its pre-commit wait."""
        node = _classification_node()
        writer = TransactionId(3, 29)
        node.store.preload(["key-1"], n_nodes=6)
        vc = VectorClock([29, 30, 30, 32, 32, 32])
        node.store.install("key-1", 1, vc, writer=writer)
        node.store.squeue("key-1").insert(SQueueEntry(writer, 32, WRITE_KIND))
        reader_vc = VectorClock([29, 31, 32, 30, 32, 29])
        read = VectorClock.selector((1, 0, 1, 1, 0, 0))
        ambiguous, excluded = node._classify_writers("key-1", reader_vc, read)
        assert vc in excluded or writer in {w for w, _local in ambiguous}
