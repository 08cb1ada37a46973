"""Crash-time commit rounds are re-driven, not waited out.

The paper's system model is crash-stop: a ``Prepare`` sent into a
participant's down window is lost, and only its coordinator can re-send it.
In fault mode :meth:`ProtocolRuntime.vote_round` therefore re-sends an
unanswered prepare the instant its participant announces its restart
(``Rejoin``), and on the ``crash_resubscribe_us`` fallback timer otherwise,
giving up after ``prepare_retry_limit`` silent waves; a re-sent prepare needs idempotent
participants, which is one runtime-level guard
(:meth:`ProtocolRuntime.admit_prepare`) with three clients — SSS, the
2PC-baseline and Walter.  This suite pins:

* **the guard**, hand-driven against one participant of each protocol — a
  duplicate of a prepare that was *voted and is undecided* repeats the
  recorded vote and changes nothing; one *racing its still-running
  original* is dropped; one arriving *after the decision* (commit or abort)
  is a no-op, also when it outlives a crash of the participant, because the
  decided set is kept with the durable state;
* **the re-drive**, with a scripted crash of the one remote participant —
  back inside the retry envelope the round commits on the re-send its
  ``Rejoin`` triggers and costs the rest of the down window plus a few
  message hops, not a fallback timer; never back, the round aborts within
  ``(prepare_retry_limit + 1) * crash_resubscribe_us``;
* **a prepare that outlives a crash of its participant** (a buffering
  partition held it) while the Decide was sent into the down window — the
  participant asks the coordinator for the recorded outcome instead of
  holding the vote forever (SSS wedged here before: 8 stalled clients);
* all of it **on one and on two inline shards with equal digests**, and the
  trace of a re-driven round says it needed a re-send;
* **the restart announcement** — one ``Rejoin`` per peer per restart; a
  round waiting on the restarted peer ends within two vote round trips of
  the restart; a drop-mode partition (nothing restarts) sends none and
  recovers on the fallback timer; and no round is left registered at drain.
"""

from __future__ import annotations

import pytest

from repro.baselines.twopc import Decide2PC, Prepare2PC, TwoPCCluster
from repro.baselines.walter import WalterCluster, WalterDecide, WalterPrepare
from repro.clocks.vector_clock import VectorClock
from repro.common.config import ClusterConfig, FaultPlan, WorkloadConfig
from repro.core.cluster import SSSCluster
from repro.core.messages import Decide, Prepare
from repro.core.node import SSSNode
from repro.harness.runner import run_experiment
from repro.storage.locks import LockMode
from repro.trace import TraceSpec

from test_fault_plane import SHARD_ENGINES, run_digest

N_NODES = 2
COORDINATOR, PARTICIPANT = 0, 1

#: protocol -> (cluster class, prepare factory, decide factory); the decide
#: factory gets the participant's vote so SSS can commit at the proposed clock.
PROTOCOLS = {
    "sss": (
        SSSCluster,
        lambda txn, key: Prepare(
            txn_id=txn, vc=VectorClock.zeros(N_NODES), write_items=((key, 1),)
        ),
        lambda txn, outcome, vote: Decide(txn_id=txn, commit_vc=vote.vc, outcome=outcome),
    ),
    "2pc": (
        TwoPCCluster,
        lambda txn, key: Prepare2PC(txn_id=txn, write_items=((key, 1),)),
        lambda txn, outcome, vote: Decide2PC(txn_id=txn, outcome=outcome),
    ),
    "walter": (
        WalterCluster,
        lambda txn, key: WalterPrepare(
            txn_id=txn, start_vts=VectorClock.zeros(N_NODES), write_items=((key, 1),)
        ),
        lambda txn, outcome, vote: WalterDecide(txn_id=txn, outcome=outcome, site=0, seqno=1),
    ),
}


def _prepared(node):
    """The transactions a participant holds a yes-vote for (SSS keeps a write
    replica's in its redo log, a read-only participant's apart)."""
    if isinstance(node, SSSNode):
        return [*node.redo_log, *node._read_prepared]
    return list(node._prepared)


class _Round:
    """One hand-driven 2PC round against the remote participant of a cluster."""

    def __init__(self, protocol: str, faults=None):
        cluster_class, self._prepare, self._decide = PROTOCOLS[protocol]
        self.cluster = cluster_class(
            ClusterConfig(
                n_nodes=N_NODES,
                n_keys=8,
                replication_degree=1,
                clients_per_node=1,
                seed=5,
                faults=FaultPlan.parse(faults) if faults else FaultPlan(),
            ),
            record_history=True,
        )
        if not faults:
            for node in self.cluster.nodes:
                node.enable_fault_mode()
        self.coordinator = self.cluster.nodes[COORDINATOR]
        self.participant = self.cluster.nodes[PARTICIPANT]
        placement = self.cluster.placement
        self.key = next(k for k in self.cluster.keys if placement.primary(k) == PARTICIPANT)
        self.txn_id = self.coordinator.begin_transaction(read_only=False).txn_id

    def prepare(self):
        """Send one (more) copy of the round's prepare; returns the vote event."""
        return self.coordinator.request(PARTICIPANT, self._prepare(self.txn_id, self.key))

    def decide(self, outcome: bool, vote) -> None:
        self.coordinator.send(PARTICIPANT, self._decide(self.txn_id, outcome, vote))

    def state(self):
        """Everything a second prepare could disturb at the participant."""
        node = self.participant
        sss = isinstance(self.cluster, SSSCluster)
        state = {
            "locks": {key: node.locks.holders(key) for key in node.locks.locked_keys()},
            "prepared": sorted(_prepared(node)),
        }
        if sss:
            state["node_vc"] = node.node_vc
            state["commit_queue"] = [(e.txn_id, e.vc, e.status) for e in node.commit_queue.entries()]
            state["redo_log"] = [(r.txn_id, r.vc, r.decided) for r in node.redo_log.records()]
        return state

    def assert_nothing_held(self) -> None:
        state = self.state()
        assert state["locks"] == {} and state["prepared"] == []
        if isinstance(self.cluster, SSSCluster):
            assert state["commit_queue"] == [] and state["redo_log"] == []
            assert self.participant.queued_writer_count() == 0


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
class TestPrepareGuard:
    def test_duplicate_after_vote_repeats_the_vote_and_changes_nothing(self, protocol):
        round_ = _Round(protocol)
        first = round_.prepare()
        round_.cluster.run()
        assert first.value.success
        voted = round_.state()
        assert voted["prepared"] == [round_.txn_id] and voted["locks"]

        second = round_.prepare()
        round_.cluster.run()
        assert second.value.success
        assert round_.state() == voted
        if protocol == "sss":
            # The redo-logged proposal, not a fresh node_vc tick.
            assert second.value.vc == first.value.vc == voted["redo_log"][0][1]
            assert voted["node_vc"][PARTICIPANT] == 1
        counters = round_.participant.counters
        assert counters["prepare_revotes"] == 1 and counters["prepare_duplicates_dropped"] == 0

    def test_duplicate_racing_its_original_is_dropped(self, protocol):
        round_ = _Round(protocol)
        blocker = round_.coordinator.begin_transaction(read_only=False).txn_id
        locks = round_.participant.locks
        assert locks.try_acquire(blocker, round_.key, LockMode.EXCLUSIVE)
        original = round_.prepare()
        round_.cluster.run(until=200.0)
        assert round_.txn_id in round_.participant._preparing  # parked on the lock
        duplicate = round_.prepare()
        round_.cluster.run(until=400.0)
        assert round_.participant.counters["prepare_duplicates_dropped"] == 1
        locks.release(blocker, [round_.key])
        round_.cluster.run()
        assert original.triggered and original.value.success
        assert not duplicate.triggered
        assert round_.state()["prepared"] == [round_.txn_id]
        assert not round_.participant._preparing
        if protocol == "sss":
            assert round_.participant.node_vc[PARTICIPANT] == 1
            assert len(round_.participant.commit_queue) == 1

    @pytest.mark.parametrize("outcome", [True, False], ids=["commit", "abort"])
    def test_duplicate_after_the_decision_is_a_noop_even_across_a_crash(self, protocol, outcome):
        round_ = _Round(protocol)
        vote = round_.prepare()
        round_.cluster.run()
        round_.decide(outcome, vote.value)
        round_.cluster.run()
        round_.assert_nothing_held()
        decided = round_.state()

        late = round_.prepare()
        round_.cluster.run()
        assert not late.triggered
        assert round_.state() == decided
        # The duplicate a buffering partition delivers after the participant
        # crashed and restarted: the decided set is durable, so still a no-op.
        round_.participant.crash()
        round_.participant.restart()
        later = round_.prepare()
        round_.cluster.run()
        assert not later.triggered
        assert round_.state() == decided
        round_.assert_nothing_held()
        assert round_.participant.counters["prepare_duplicates_dropped"] == 2


DOWN_AT_US, DOWN_FOR_US = 1_000.0, 3_000.0


def round_trip_us(config) -> float:
    """Upper bound of one uncongested request/reply exchange: two hops, each
    the base latency plus jitter plus the receiver's handling time."""
    hop = config.network.base_latency_us + config.network.jitter_us
    return 2 * (hop + config.service.message_handling_us)


def _commit_into_the_down_window(round_, out):
    """Client at the coordinator: read early, commit once the participant is down."""
    session = round_.cluster.session(COORDINATOR)

    def client():
        session.begin(read_only=False)
        value = yield from session.read(round_.key)
        session.write(round_.key, value + 1)
        yield round_.cluster.sim.timeout(DOWN_AT_US + 500.0 - round_.cluster.sim.now)
        out["commit_at"] = round_.cluster.sim.now
        out["ok"] = yield from session.commit()
        out["answered_at"] = round_.cluster.sim.now

    round_.cluster.spawn(client(), unit=COORDINATOR)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
class TestRedrive:
    def test_participant_back_inside_the_envelope_commits_on_a_resend(self, protocol):
        round_ = _Round(protocol, faults=[f"crash node=1 at={DOWN_AT_US} for={DOWN_FOR_US}"])
        timeouts = round_.cluster.config.timeouts
        out = {}
        _commit_into_the_down_window(round_, out)
        round_.cluster.run(until=30_000.0)
        assert out.get("ok") is True
        counters = round_.cluster.total_counters()
        assert counters["prepare_retries"] == 1
        assert counters.get("prepare_retry_aborts", 0) == 0
        assert round_.cluster.network.stats.sent["Rejoin"] == N_NODES - 1
        # The re-send follows the participant's Rejoin, not the fallback
        # timer: the rest of the down window plus a few message hops.
        rest_of_window = DOWN_AT_US + DOWN_FOR_US - out["commit_at"]
        latency = out["answered_at"] - out["commit_at"]
        hops = 3 * round_trip_us(round_.cluster.config)
        assert rest_of_window < latency < rest_of_window + hops < timeouts.crash_resubscribe_us
        for node in round_.cluster.nodes:
            assert node.locks.locked_keys() == [] and not _prepared(node)

    def test_participant_never_back_aborts_within_the_envelope(self, protocol):
        round_ = _Round(protocol, faults=[f"crash node=1 at={DOWN_AT_US}"])
        timeouts = round_.cluster.config.timeouts
        envelope_us = (timeouts.prepare_retry_limit + 1) * timeouts.crash_resubscribe_us
        # The runner's default drain under a fault plan: a dead participant's
        # abort must land inside it.
        drain_us = 25_000.0
        assert envelope_us < drain_us
        out = {}
        _commit_into_the_down_window(round_, out)
        round_.cluster.run(until=out.get("commit_at", DOWN_AT_US + 500.0) + envelope_us + 100.0)
        counters = round_.cluster.total_counters()
        assert counters["prepare_retries"] == timeouts.prepare_retry_limit
        assert counters["prepare_retry_aborts"] == 1
        if protocol == "2pc":
            # The 2PC-baseline answers after every participant acknowledged
            # the decision, so its client blocks on the dead one (2PC's
            # in-doubt window); the vote round itself gave up in time.
            assert "ok" not in out
        else:
            assert out["ok"] is False
            assert out["answered_at"] - out["commit_at"] <= envelope_us + 100.0


#: A prepare outlives a crash of its participant: node 1 is cut off (buffering)
#: from 2 ms to 14 ms and crashes inside the cut, so prepares sent before the
#: crash are delivered after the restart while their Decide — sent into the
#: down window — was dropped.  Seeds 7 and 11 wedged SSS before PR 19.
OUTLIVES_CRASH = ["partition groups=0,2|1 at=2000 for=12000", "crash node=1 at=3750 for=2250"]
PLANS = {
    "back-inside-envelope": ["crash node=1 at=3750 for=2250"],
    "never-back": ["crash node=1 at=3750"],
    "prepare-outlives-crash": OUTLIVES_CRASH,
}


def _scenario(protocol, plan, seed, **kwargs):
    config = ClusterConfig(
        n_nodes=3,
        n_keys=40,
        replication_degree=2,
        clients_per_node=3,
        seed=seed,
        faults=FaultPlan.parse(PLANS[plan] if isinstance(plan, str) else plan),
    )
    return run_experiment(
        protocol,
        config,
        WorkloadConfig(read_only_fraction=0.5),
        duration_us=25_000,
        warmup_us=0,
        record_history=True,
        keep_cluster=True,
        drain_us=40_000,
        **kwargs,
    )


class TestOnOneAndTwoShards:
    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_redriven_rounds_equal_digests_and_contract(self, protocol, plan):
        results = {name: _scenario(protocol, plan, 7, **kw) for name, kw in SHARD_ENGINES.items()}
        assert len({run_digest(result) for result in results.values()}) == 1
        serial = results["serial"]
        counters = serial.node_counters
        assert counters.get("prepare_retries", 0) > 0, "no prepare was ever re-sent"
        if plan == "never-back":
            assert counters["prepare_retry_aborts"] > 0
            return  # a dead replica legitimately stalls clients and breaks convergence
        assert counters.get("prepare_retry_aborts", 0) == 0
        for check in serial.cluster.check_contract():
            assert check.ok, f"{protocol} broke {check.name} under {plan}: {check}"
        extra = serial.metrics.extra
        assert extra["stalled_clients"] == 0
        assert extra["quiescence_leaked_writers"] == 0
        assert extra["quiescence_commit_queue"] == 0
        for node in serial.cluster.nodes:
            assert node.locks.locked_keys() == [], f"node {node.node_id} leaked locks"
            assert not _prepared(node)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_sss_prepare_that_outlives_a_crash_is_resolved_in_doubt(self, seed):
        result = _scenario("sss", "prepare-outlives-crash", seed)
        assert result.node_counters.get("in_doubt_resolved", 0) > 0
        assert result.metrics.extra["stalled_clients"] == 0
        assert result.metrics.extra["quiescence_commit_queue"] == 0
        assert result.cluster.check_consistency().ok


class TestRedriveTrace:
    def _prepare_spans(self, plan):
        result = _scenario("sss", plan, 7, trace=TraceSpec())
        return [
            event
            for events in result.trace.txns.values()
            for event in events
            if event.name == "rpc.prepare"
        ]

    def test_a_redriven_round_says_so(self):
        """Node 1 is down 3 750-6 000 us: a round that lost its prepare to the
        window re-sends to node 1 only, on its Rejoin, with no silent wave."""
        spans = self._prepare_spans("back-inside-envelope")
        redriven = [span for span in spans if span.args]
        assert redriven and len(redriven) < len(spans)  # first-wave rounds carry no args
        for span in redriven:
            assert span.args == {"rejoined": ["1"]}
            assert span.ts < 6_000.0 < span.ts + span.dur < 6_000.0 + 5_000.0

    def test_a_round_that_gives_up_says_retry_exhausted(self):
        spans = self._prepare_spans("never-back")
        exhausted = [span for span in spans if span.args and "outcome" in span.args]
        assert exhausted
        for span in exhausted:
            assert span.args == {"resends": 3, "silent": ["1"], "outcome": "retry-exhausted"}
            assert 20_000.0 <= span.dur < 20_100.0


#: Two crash/restart cycles of different nodes, then a crash that never ends.
TWO_RESTARTS = [
    "crash node=1 at=3750 for=2250",
    "crash node=2 at=12000 for=1500",
    "crash node=0 at=20000",
]
#: Node 1 is cut off for the same window, by a partition that loses messages.
DROP_PARTITION = ["partition groups=0,2|1 at=3750 for=2250 mode=drop"]
RESTART_US = 6_000.0  # the back-inside-envelope plan's restart


class TestRejoin:
    @pytest.mark.parametrize("protocol", ["sss", "2pc", "walter", "rococo"])
    def test_one_rejoin_per_peer_per_restart(self, protocol):
        result = _scenario(protocol, TWO_RESTARTS, 7)
        stats = result.cluster.network.stats
        assert stats.sent["Rejoin"] == 2 * (3 - 1)  # two restarts, two peers each
        assert result.node_counters["restarts"] == 2

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_a_round_waiting_on_a_down_peer_resolves_within_two_round_trips(self, protocol):
        results = {
            name: _scenario(protocol, "back-inside-envelope", 7, trace=TraceSpec(), **kw)
            for name, kw in SHARD_ENGINES.items()
        }
        assert len({run_digest(result) for result in results.values()}) == 1
        spans = [
            event
            for events in results["serial"].trace.txns.values()
            for event in events
            if event.name == "rpc.prepare"
        ]
        # A round trip as this run measures it: the median prepare round
        # that no crash touched.
        clean = sorted(span.dur for span in spans if not span.args)
        round_trip = clean[len(clean) // 2]
        woken = [span for span in spans if span.args]
        assert woken, "no prepare round waited on the down participant"
        for span in woken:
            assert span.args == {"rejoined": ["1"]}
            assert span.ts < RESTART_US < span.ts + span.dur <= RESTART_US + 2 * round_trip

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_drop_partition_sends_no_rejoin_and_recovers_on_the_timer(self, protocol):
        result = _scenario(protocol, DROP_PARTITION, 7)
        assert result.cluster.network.stats.sent.get("Rejoin", 0) == 0
        counters = result.node_counters
        assert counters["prepare_retries"] > 0  # silent waves, on the fallback timer
        assert counters.get("prepare_retry_aborts", 0) == 0
        if protocol != "sss":
            # SSS's Decide is still fire-and-forget: one the partition eats
            # strands its participant (ROADMAP, known defects), timer or not.
            assert result.metrics.extra["stalled_clients"] == 0
        for check in result.cluster.check_contract():
            assert check.ok, f"{protocol} broke {check.name} under a drop partition: {check}"

    @pytest.mark.parametrize("protocol", ["sss", "2pc", "walter", "rococo"])
    def test_rejoin_registry_is_empty_at_drain(self, protocol):
        result = _scenario(protocol, "back-inside-envelope", 7)
        assert result.cluster.network.stats.delivered["Rejoin"] == 2
        for node in result.cluster.nodes:
            assert not any(node._rejoin_waits.values()), f"node {node.node_id} kept a wait"
