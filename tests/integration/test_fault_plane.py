"""End-to-end fault-plane behaviour of the four protocols.

The contract this suite pins:

* fail-free behaviour is untouched (covered by the golden-history suite);
* with a fault plan installed, runs remain deterministic (same seed + same
  plan -> byte-identical committed history);
* SSS keeps external consistency under crashes and partitions — faults cost
  availability (phases, stalls), never correctness;
* the 2PC-baseline also holds (durable prepared state + decision re-send);
* crash recovery actually recovers: after a crash+restart the cluster
  drains with no stalled clients and no leaked pre-commit state;
* the weaker baselines keep their own contracts under faults too — ROCOCO
  stays serializable across crash/replay orderings (piece redo log + order
  fencing), Walter keeps dirty-read freedom and replica convergence across
  propagation gaps (durable ack-watermarked streams), and Walter's
  dead-participant aborts stay inside the retry envelope instead of the
  old ~40 ms prepare-timeout drain.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest

from repro.common.config import ClusterConfig, FaultPlan, WorkloadConfig
from repro.core.cluster import SSSCluster
from repro.core.metadata import TransactionPhase
from repro.harness.runner import run_experiment
from repro.network.node import NetworkedNode
from repro.search.genome import ScenarioGenome
from repro.search.scoring import score_genome
from repro.trace import TraceSpec

from test_golden_histories import TIE_ORDER_ENGINES as SHARD_ENGINES  # serial and 2 inline shards
from tests.unit.test_parallel_engine import _digest as run_digest


def _config(faults, *, n_nodes=3, replication_degree=2, seed=11, **overrides):
    defaults = dict(
        n_nodes=n_nodes,
        n_keys=40,
        replication_degree=replication_degree,
        clients_per_node=3,
        seed=seed,
        faults=FaultPlan.parse(faults) if faults else FaultPlan(),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _run(protocol, config, duration_us=120_000, **kwargs):
    return run_experiment(
        protocol,
        config,
        WorkloadConfig(read_only_fraction=0.5),
        duration_us=duration_us,
        warmup_us=0,
        record_history=True,
        keep_cluster=True,
        **kwargs,
    )


CRASH_RESTART = ["crash node=1 at=30ms for=15ms"]
CRASH_FOREVER = ["crash node=1 at=30ms"]
PARTITION = ["partition groups=0|1,2 at=30ms for=15ms"]
SLOWLINK = ["slowlink src=0 dst=1 at=30ms for=30ms factor=10 extra=500us"]


def _history_digest(history) -> str:
    lines = [
        f"{txn.txn_id}|{txn.external_commit_time!r}|"
        f"{','.join(map(str, txn.writes))}"
        for txn in history.committed
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def sss_run():
    """``_run("sss", _config(faults))``, made once per fault plan in this
    module: several tests below assert different things about the same
    120 ms experiment, and they only read the result."""
    results = {}

    def run(faults):
        key = tuple(faults)
        if key not in results:
            results[key] = _run("sss", _config(faults))
        return results[key]

    yield run
    results.clear()


class TestSSSUnderFaults:
    @pytest.mark.parametrize(
        "faults", [CRASH_RESTART, PARTITION, SLOWLINK], ids=["crash", "partition", "slowlink"]
    )
    def test_consistency_preserved(self, faults, sss_run):
        result = sss_run(faults)
        check = result.cluster.check_consistency()
        assert check.ok, f"SSS violated external consistency under {faults}: {check}"
        assert result.metrics.committed > 0

    def test_crash_restart_recovers_fully(self, sss_run):
        result = sss_run(CRASH_RESTART)
        metrics = result.metrics
        assert metrics.extra["stalled_clients"] == 0
        assert metrics.extra["quiescence_leaked_writers"] == 0
        assert metrics.extra["quiescence_commit_queue"] == 0
        # The final fail-free phase must beat the crash window by a wide
        # margin (recovery), even if it does not reach 100%.
        crash_phase = next(p for p in metrics.phases if "crash" in p["label"])
        tail_phase = metrics.phases[-1]
        assert tail_phase["availability"] > crash_phase["availability"]
        assert tail_phase["availability"] > 0.3

    def test_crash_forever_stalls_but_stays_consistent(self):
        result = _run("sss", _config(CRASH_FOREVER))
        assert result.cluster.check_consistency().ok
        # Blocking, not corruption: some clients may be stuck on the dead
        # node's participants, and nothing ever leaks inconsistently.
        assert result.metrics.extra["stalled_clients"] >= 0

    def test_buffered_partition_heals_without_stalls(self, sss_run):
        result = sss_run(PARTITION)
        metrics = result.metrics
        assert metrics.extra["stalled_clients"] == 0
        assert metrics.extra["quiescence_leaked_writers"] == 0
        network_stats = result.cluster.network.stats
        assert network_stats.held > 0, "the partition never held a message"
        assert network_stats.released == network_stats.held
        tail_phase = metrics.phases[-1]
        assert tail_phase["availability"] > 0.5

    def test_availability_dips_during_fault_windows(self, sss_run):
        result = sss_run(CRASH_RESTART)
        phases = result.metrics.phases
        crash_phase = next(p for p in phases if "crash" in p["label"])
        # Availability is relative to the best phase — since rounds re-send
        # on the restarted node's Rejoin, the post-restart one — and only the
        # crash window falls far below it.
        fail_free = [p["availability"] for p in phases if p is not crash_phase]
        assert max(fail_free) == 1.0 and min(fail_free) > 0.85
        assert crash_phase["availability"] < 0.5

    def test_fault_events_recorded_in_engine_log(self, sss_run):
        result = sss_run(CRASH_RESTART)
        labels = [label for _t, label in result.cluster.sim.fault_log]
        assert labels == ["crash:1", "restart:1"]


class TestBaselinesUnderFaults:
    def test_twopc_keeps_external_consistency_under_crash(self):
        result = _run("2pc", _config(CRASH_RESTART))
        assert result.cluster.check_consistency().ok
        assert result.metrics.extra["stalled_clients"] == 0

    def test_twopc_partition_consistent(self):
        result = _run("2pc", _config(PARTITION))
        assert result.cluster.check_consistency().ok

    @pytest.mark.parametrize("protocol,rf", [("walter", 2), ("rococo", 1)])
    def test_weaker_protocols_survive_crash_and_keep_contract(self, protocol, rf):
        """Walter/ROCOCO recover availability *and* keep their own
        consistency contracts (committed reads + convergence for Walter,
        serializability + committed reads for ROCOCO) — the crash-recovery
        machinery removed the old correctness-for-availability trade."""
        result = _run(
            protocol,
            _config(CRASH_RESTART, replication_degree=rf),
            drain_us=30_000,
        )
        metrics = result.metrics
        assert metrics.extra["stalled_clients"] == 0
        tail_phase = metrics.phases[-1]
        assert tail_phase["availability"] > 0.2
        for check in result.cluster.check_contract():
            assert check.ok, f"{protocol} broke {check.name} under crash: {check}"


class TestFaultDeterminism:
    def test_same_plan_same_seed_same_history(self):
        digests = set()
        for _ in range(2):
            result = _run("sss", _config(CRASH_RESTART), duration_us=60_000)
            digests.add(_history_digest(result.cluster.history))
        assert len(digests) == 1

    def test_different_plans_differ(self):
        with_faults = _run("sss", _config(CRASH_RESTART), duration_us=60_000)
        without = _run("sss", _config(None), duration_us=60_000, drain_us=25_000)
        assert _history_digest(with_faults.cluster.history) != _history_digest(
            without.cluster.history
        )


class TestQuiescenceLeakRegression:
    """The (formerly xfailed) pathological micro-config regressions, now strict.

    In pathological micro-configs (4-5 keys, rf=1, high contention) the
    external-commit dependency gating used to convert a 4-party read
    pattern (two read-only transactions bridging two independent
    pre-committing writers) into a wait cycle that leaked pre-commit state
    at quiescence (seeds 3/29), and the ambiguous-zone timeout-then-exclude
    heuristic could serialize a reader before an already-answered writer —
    a real external-consistency violation (seed 17).

    The ordered external-commit resolution closed both: ambiguous writers
    are resolved definitively at their coordinators (ExternalStatusQuery),
    an exclusion of a confirmed in-flight writer gates that writer's client
    answer behind the reader (so contradictory serialization decisions can
    at worst deadlock, never commit), reads refuse real-time-stale bounds,
    and the dependency-wait breaker restarts a stuck read-only transaction
    under a fresh snapshot (externally invisible — read-only transactions
    still never abort).  These seeds are pinned strict: any leak, stall or
    consistency violation here is a regression.
    """

    @staticmethod
    def _stress(seed):
        config = ClusterConfig(
            n_nodes=4,
            n_keys=4,
            replication_degree=1,
            clients_per_node=3,
            seed=seed,
        )
        return run_experiment(
            "sss",
            config,
            WorkloadConfig(read_only_fraction=0.5, update_txn_keys=2),
            duration_us=60_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
            drain_us=40_000,
        )

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_no_precommit_state_leaks_and_consistency_at_quiescence(self, seed):
        result = self._stress(seed)
        check = result.cluster.check_consistency()
        assert check.ok, f"external consistency violated at seed {seed}: {check}"
        metrics = result.metrics
        assert metrics.extra["quiescence_leaked_writers"] == 0
        assert metrics.extra["quiescence_commit_queue"] == 0
        assert metrics.extra["stalled_clients"] == 0
        assert metrics.committed > 0
        # The wait-cycle breaker may only ever withdraw read-only
        # transactions invisibly: no read-only abort reaches the history.
        read_only_aborts = [
            txn for txn in result.cluster.history.aborted if not txn.is_update
        ]
        assert read_only_aborts == []


class TestReaderEntriesSurviveACrash:
    """A reader's snapshot-queue entry outlives a crash of the node holding it.

    The entry holds back every writer its reader read around; the redo
    replay brings those writers back, and with the entry gone they could
    externally commit ahead of a reader still in flight.  Seed 59 of the
    pathological sweep shape did exactly that once a restart re-drove its
    rounds at once: ``T0.32(wr) -> T2.46(rw) -> T3.43(wr) -> T2.51(rw)``,
    ``T2.51``'s entry at node 1 lost in the crash.  Entries survive now, and
    the restart re-validates each at its reader's coordinator, dropping
    those whose Remove the down window swallowed; the record of removed
    readers survives too, so a replay does not re-insert theirs.
    """

    def test_seed_59_crash_keeps_the_four_party_cycle_out(self):
        results = {
            name: run_experiment(
                "sss",
                ClusterConfig(
                    n_nodes=4,
                    n_keys=4,
                    replication_degree=1,
                    clients_per_node=3,
                    seed=59,
                    faults=FaultPlan.parse(["crash node=1 at=15000 for=9000"]),
                ),
                WorkloadConfig(read_only_fraction=0.5, update_txn_keys=2),
                duration_us=60_000,
                warmup_us=0,
                record_history=True,
                keep_cluster=True,
                drain_us=40_000,
                **engine,
            )
            for name, engine in SHARD_ENGINES.items()
        }
        assert len({run_digest(result) for result in results.values()}) == 1
        result = results["serial"]
        assert result.cluster.check_consistency().ok
        extra = result.metrics.extra
        assert extra["stalled_clients"] == 0
        assert extra["quiescence_leaked_writers"] == extra["quiescence_commit_queue"] == 0

    def test_entry_of_a_reader_done_while_down_is_dropped_on_restart(self):
        cluster = SSSCluster(
            ClusterConfig(n_nodes=2, n_keys=8, replication_degree=1, clients_per_node=1, seed=5)
        )
        for node in cluster.nodes:
            node.enable_fault_mode()
        holder = cluster.nodes[1]
        key = next(k for k in cluster.keys if cluster.placement.primary(k) == 1)
        session = cluster.session(0)

        def reader():
            session.begin(read_only=True)
            yield from session.read(key)
            yield cluster.sim.timeout(2_000.0 - cluster.sim.now)
            yield from session.commit()  # its Remove to node 1 is lost

        cluster.spawn(reader(), unit=0)
        cluster.run(until=1_000.0)
        entries = holder.store.squeue(key).readers()
        assert len(entries) == 1
        holder.crash()
        cluster.run(until=3_000.0)
        assert session.last.phase.name == "EXTERNALLY_COMMITTED"
        assert holder.store.squeue(key).readers() == entries  # survived the crash
        holder.restart()
        cluster.run()
        assert len(holder.store.squeue(key)) == 0
        assert not holder._reader_keys.get(entries[0].txn_id)

    @pytest.mark.parametrize("name", ["sss-crash-local-readers", "sss-three-faults-seed982"])
    def test_replayed_entries_of_returned_readers_strand_nobody(self, name):
        """The two ``sss:stall`` / ``sss:leak`` reproductions of the triage list.

        A restart replays redo records together with the reader entries
        they propagated, of readers that may already have returned; with a
        volatile removed-reader record and Removes lost in the down window
        those entries stranded 8 and 4 clients, 9 and 3 writers parked in
        pre-commit.  The durable record keeps them out and the restart's
        re-validation drops the rest.  Both are corpus genomes, so a relapse
        is a search finding.
        """
        path = Path(__file__).resolve().parents[2] / "benchmarks/search_corpus"
        genome = ScenarioGenome.from_json((path / f"{name}.genome.json").read_text())
        outcome = score_genome(genome)
        assert outcome.failures == (), outcome.failure_detail
        assert outcome.signal["stalled_clients"] == 0
        assert outcome.signal["quiescence_leaked_writers"] == 0


class TestCoordinatorCrashSessionTeardown:
    """Regression: the Walter small-offset double-commit.

    When a coordinator crash-stops while a client process is suspended on a
    purely *local* step (Walter's local-replica reads charge cpu() with no
    network round-trip to fail), the fault plane marks the in-flight
    transaction ABORTED under the client's feet.  The session used to let
    the resumed client drive ``txn_commit`` against the dead transaction —
    on Walter this raised ``TransactionStateError`` (a double state
    transition) and killed the whole run.  ``Session._require_open`` now
    surfaces the crash as ``NodeCrashedError``, the documented
    client-visible outcome, and the client reconnects.
    """

    # Small offsets land the crash inside the local-read window; this exact
    # configuration reproduced the crash before the fix.
    SMALL_OFFSET_CRASH = ["crash node=1 at=3750us for=2250us"]

    def test_walter_survives_small_offset_crash(self):
        # drain long enough for Walter's prepare timeout (~40 ms) to abort
        # updates whose participant crashed mid-prepare; those are slow
        # aborts, not stalls.
        result = _run(
            "walter",
            _config(self.SMALL_OFFSET_CRASH, n_keys=400, seed=2024),
            duration_us=15_000,
            drain_us=45_000,
        )
        metrics = result.metrics
        assert metrics.committed > 0
        assert metrics.aborted > 0  # the torn-down transactions abort cleanly
        assert metrics.extra["stalled_clients"] == 0

    # Crash points are not hand-picked: they are the instants at which node 1
    # handles a message in one recording run of a tiny cluster (~100
    # transactions), whose plan crashes after the run only to arm fault mode
    # as the crash runs do.  Tier-1 tries every CRASH_POINT_STRIDE-th; the
    # nightly job sets REPRO_STRESS_SCALE to the stride and tries them all.
    CRASH_POINT_STRIDE = 32
    TINY_US = 4_000

    def _tiny(self, protocol, crash_at_us, **engine):
        return _run(
            protocol,
            _config(
                [f"crash node=1 at={crash_at_us}us for=2250us"],
                n_keys=400,
                seed=2024,
                clients_per_node=1,
            ),
            duration_us=self.TINY_US,
            drain_us=15_000,
            **engine,
        )

    def _crash_points(self, protocol, monkeypatch):
        instants = set()
        serve = NetworkedNode._serve

        def recording_serve(node, message):
            if node.node_id == 1:
                instants.add(node.sim.now)
            serve(node, message)

        with monkeypatch.context() as patch:
            patch.setattr(NetworkedNode, "_serve", recording_serve)
            self._tiny(protocol, 1_000 * self.TINY_US)
        scale = max(1, int(os.environ.get("REPRO_STRESS_SCALE", "1") or "1"))
        stride = max(1, self.CRASH_POINT_STRIDE // scale)
        return sorted(t for t in instants if t < self.TINY_US)[::stride]

    @pytest.mark.parametrize("protocol", ["sss", "2pc", "walter", "rococo"])
    def test_all_protocols_survive_crash_offset_sweep(self, protocol, monkeypatch):
        # Every run keeps the protocol's own contract, drains clean, and is
        # the same run on one and on two shards.
        redriven = 0
        for at_us in self._crash_points(protocol, monkeypatch):
            results = {
                name: self._tiny(protocol, at_us, **engine)
                for name, engine in SHARD_ENGINES.items()
            }
            assert len({run_digest(result) for result in results.values()}) == 1, (protocol, at_us)
            result = results["serial"]
            assert result.metrics.committed > 0, (protocol, at_us)
            assert result.metrics.extra["stalled_clients"] == 0, (protocol, at_us)
            for check in result.cluster.check_contract():
                assert check.ok, f"{protocol} broke {check.name} at crash point {at_us}: {check}"
            redriven += result.node_counters.get("prepare_retries", 0)
        if protocol != "rococo":  # no vote round: dispatch/commit rounds re-send on their own
            assert redriven > 0, "no crash point ever swallowed a prepare"


class TestTornDownTransactionsRetire:
    """Transactions a crash tore down, or that began at a down node, are
    retired once they are recovered and close their trace.

    Node 1's crash tears down the transactions it coordinates (recovered by
    the restart) and fails those its clients begin while it is down (the
    session abandons them).  Neither kind reached an outcome, so none is
    recorded as a history abort; both used to stay ABORTED in
    ``coordinated`` forever and export as unfinished in the trace.
    """

    @pytest.mark.parametrize("protocol", ["sss", "2pc", "walter", "rococo"])
    def test_no_finished_metadata_and_no_unfinished_trace_after_drain(self, protocol):
        config = _config(
            ["crash node=1 at=5000 for=3000"], n_keys=30, clients_per_node=2, seed=1
        )
        result = _run(protocol, config, duration_us=20_000, trace=TraceSpec())
        counters = result.node_counters
        assert counters["coordinator_crash_aborts"] > 0
        finished = [
            (node.node_id, meta.txn_id, meta.abort_reason)
            for node in result.cluster.nodes
            for meta in node.coordinated.values()
            if meta.phase in (TransactionPhase.ABORTED, TransactionPhase.EXTERNALLY_COMMITTED)
        ]
        assert finished == []
        assert result.trace.unfinished == []
        assert result.metrics.extra["stalled_clients"] == 0
        for check in result.cluster.check_contract():
            assert check.ok, check


class TestRococoReplayOrdering:
    """ROCOCO's piece redo log and order fencing under crash/replay races.

    The historical Known Defect: a server restarting mid-transaction lost
    its volatile piece state, so a fault-mode re-send could re-execute a
    piece *behind* already-executed higher-ordered pieces — a replay
    reordering that broke serializability.  The durable piece redo log
    replays logged-but-unexecuted pieces in order on restart, and the order
    fence refuses anything below the executed frontier.  The fence is a
    backstop: because the dispatch round completes on every server before
    any order is assigned, a correctly recovered server never actually has
    to refuse — so these tests pin ``order_fence_refusals == 0`` as well.
    """

    # Offsets straddle the dispatch round (~piece payload logged, no order
    # yet), the execute round (order assigned, execution racing the crash)
    # and the post-commit window; the short down-time makes the restart's
    # replay race live fault-mode re-sends of the same pieces.
    CRASH_OFFSETS_US = (1_500, 3_750, 7_500, 30_000)

    @pytest.mark.parametrize("at_us", CRASH_OFFSETS_US)
    def test_replay_keeps_serializability_across_crash_offsets(self, at_us):
        result = _run(
            "rococo",
            _config(
                [f"crash node=1 at={at_us}us for=2250us"],
                replication_degree=1,
                n_keys=40,
                seed=2024,
            ),
            duration_us=60_000,
            drain_us=30_000,
        )
        for check in result.cluster.check_contract():
            assert check.ok, f"rococo broke {check.name} at crash offset {at_us}: {check}"
        assert result.node_counters.get("order_fence_refusals", 0) == 0
        assert result.metrics.extra["stalled_clients"] == 0

    def test_crash_window_exercises_replay_and_crash_completion(self):
        # Across a contended sweep the recovery machinery must actually
        # engage — otherwise the offsets above silently stopped covering
        # the dispatch/execute race and this suite tests nothing.
        engaged = 0
        for seed in (11, 2024, 77):
            result = _run(
                "rococo",
                _config(CRASH_RESTART, replication_degree=1, seed=seed),
                drain_us=30_000,
            )
            counters = result.node_counters
            engaged += counters.get("pieces_replayed", 0)
            engaged += counters.get("crash_completed_commits", 0)
            engaged += counters.get("crash_recoveries", 0)
            for check in result.cluster.check_contract():
                assert check.ok, f"seed {seed}: {check}"
        assert engaged > 0, "no crash ever engaged the redo log / recovery path"


class TestWalterPropagationDurability:
    """Walter's durable propagation streams: no batch is ever lost.

    The historical gap: ``_async_propagate`` was fire-and-forget, so a
    crash (sender or receiver) or a partition could permanently lose a
    propagation batch and the replicas of a key silently diverged.  The
    propagation log force-writes every batch, receivers apply in stream
    order (buffering gaps) and ack a cumulative watermark, and restart plus
    the fault-mode cadence retransmit everything above the watermark.
    """

    def test_crash_retransmits_until_replicas_converge(self):
        result = _run(
            "walter",
            _config(CRASH_RESTART, replication_degree=2),
            drain_us=30_000,
        )
        for check in result.cluster.check_contract():
            assert check.ok, f"walter broke {check.name} under crash: {check}"
        # The crash must have forced actual retransmission work...
        assert result.node_counters.get("propagation_retransmits", 0) > 0
        # ...and at quiescence every durable stream has been fully acked.
        for node in result.cluster.nodes:
            assert not node.plog.has_unacked(), (
                f"node {node.node_id} still holds unacked propagation records"
            )

    def test_partition_heals_with_watermark_catchup(self):
        result = _run(
            "walter",
            _config(PARTITION, replication_degree=2),
            drain_us=30_000,
        )
        for check in result.cluster.check_contract():
            assert check.ok, f"walter broke {check.name} under partition: {check}"
        # After the heal the watermarks catch up: nothing left unacked and
        # every receiver's applied watermark matches what was sent to it.
        for node in result.cluster.nodes:
            assert not node.plog.has_unacked()
        for sender in result.cluster.nodes:
            sent_to = sender.plog._next_stream_seq
            for destination, high in sent_to.items():
                receiver = result.cluster.nodes[destination]
                applied = receiver._prop_applied.get(sender.node_id, 0)
                assert applied == high, (
                    f"receiver {destination} applied watermark {applied} != "
                    f"stream high {high} from sender {sender.node_id}"
                )

    def test_crash_offset_sweep_never_diverges(self):
        # The small-offset window that produced the session-teardown bug is
        # also the hardest propagation race: decide applied, propagation
        # half-sent, crash.  Sweep it and require convergence every time.
        for at_us in (1_500, 3_750, 7_500):
            result = _run(
                "walter",
                _config(
                    [f"crash node=1 at={at_us}us for=2250us"],
                    n_keys=400,
                    seed=2024,
                ),
                duration_us=15_000,
                drain_us=30_000,
            )
            for check in result.cluster.check_contract():
                assert check.ok, f"offset {at_us}: {check}"


class TestWalterBoundedPrepareAbort:
    """Regression pin: dead-participant slow aborts stay inside the retry
    envelope.

    Before the prepare retry cadence, an update whose slow-path participant
    crash-stopped sat on a coarse 50 ms guard (the "~40 ms drain" the
    session-teardown test historically budgeted for).  ``vote_round``
    re-sends every ``crash_resubscribe_us`` (5 ms) and gives up after
    ``prepare_retry_limit`` (3) resends: the abort lands within ~20 ms, so
    a 30 ms drain must fully quiesce.
    """

    def test_dead_participant_abort_bounded_by_retry_envelope(self):
        config = _config(CRASH_FOREVER, replication_degree=2)
        timeouts = config.timeouts
        envelope_us = (timeouts.prepare_retry_limit + 1) * timeouts.crash_resubscribe_us
        drain_us = 30_000
        assert envelope_us < drain_us, (
            "retry envelope must undercut the drain for the bound to mean anything"
        )
        result = _run("walter", config, duration_us=60_000, drain_us=drain_us)
        counters = result.node_counters
        # The bound must have been exercised: some slow-path prepare gave up
        # through the retry cadence, and no survivor is left stalled on the
        # old 50 ms timeout (the 30 ms drain would catch that as a stall).
        assert counters.get("prepare_retry_aborts", 0) > 0
        assert result.metrics.extra["stalled_clients"] == 0
        # Dirty-read freedom still holds; convergence is deliberately not
        # asserted — the victim never restarts, so its replicas legitimately
        # miss the tail of the propagation streams.
        from repro.consistency.checkers import check_committed_reads

        check = check_committed_reads(result.cluster.history)
        assert check.ok, f"dead-participant aborts leaked dirty reads: {check}"
