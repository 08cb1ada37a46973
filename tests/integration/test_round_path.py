"""Every RPC round of the runtime is one path: ``RoundRequests`` + ``redrive``.

:meth:`ProtocolRuntime.redrive` is the one place that asks whether a message
can be lost.  When none can (no fault plan, no injected crash), a round
waits on its replies alone:

* it arms no ``crash_resubscribe_us`` fallback timer — not even for the SSS
  read path's external-status queries, which a fail-free long read-only
  workload sends;
* a vote round has no timeout at all: votes that arrive after 50 ms (the
  coarse guard the fail-free round used to wait out) still commit it;
* a crash injected without a fault plan while a round waits moves that
  round into the re-drive's waves, so it still gives up within the retry
  envelope instead of waiting forever.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.twopc import TwoPCCluster
from repro.baselines.walter import WalterCluster
from repro.common.config import ClusterConfig, TimeoutConfig, WorkloadConfig
from repro.core.cluster import SSSCluster
from repro.harness.runner import run_experiment
from repro.sim.engine import Simulation
from repro.sim.events import Timeout

#: A fallback-timer delay no other timer of the run uses.
RESUBSCRIBE_US = 4_321.0


def test_fail_free_status_queries_arm_no_fallback_timer(monkeypatch):
    """The ledger's longro shape: external-status queries, no timer."""
    config = ClusterConfig(
        n_nodes=6,
        n_keys=400,
        replication_degree=2,
        clients_per_node=3,
        seed=7,
        timeouts=replace(TimeoutConfig(), crash_resubscribe_us=RESUBSCRIBE_US),
    )
    workload = WorkloadConfig(
        read_only_fraction=0.8,
        read_only_txn_keys=8,
        key_distribution="zipfian",
        zipf_theta=0.9,
    )
    armed = []
    push = Simulation._push

    def recording_push(sim, time, func, arg):
        owner = getattr(func, "__self__", None)
        if isinstance(owner, Timeout) and owner.delay == RESUBSCRIBE_US:
            armed.append(("timer", time))
        elif getattr(func, "__name__", "") == "_fire_deadline":
            armed.append(("deadline", time))
        push(sim, time, func, arg)

    monkeypatch.setattr(Simulation, "_push", recording_push)
    result = run_experiment(
        "sss", config, workload, duration_us=12_000, warmup_us=0, keep_cluster=True
    )
    assert result.cluster.total_counters()["external_status_queries"] > 0
    assert armed == []


#: protocol -> cluster class; each coordinates a 2PC-style vote round.
VOTING = {"sss": SSSCluster, "2pc": TwoPCCluster, "walter": WalterCluster}
COORDINATOR, PARTICIPANT = 0, 1
VOTE_DELAY_US = 60_000.0


@pytest.mark.parametrize("protocol", sorted(VOTING))
def test_fail_free_vote_round_waits_for_late_votes(protocol):
    cluster = VOTING[protocol](
        ClusterConfig(n_nodes=2, n_keys=8, replication_degree=1, clients_per_node=1, seed=5),
        record_history=True,
    )
    key = next(k for k in cluster.keys if cluster.placement.primary(k) == PARTICIPANT)
    # Every reply of the participant crawls back: its vote arrives long
    # after the round started.  No fault plan, so no message can be lost.
    cluster.network.degrade_link(PARTICIPANT, COORDINATOR, extra_us=VOTE_DELAY_US)
    session = cluster.session(COORDINATOR)
    out = {}

    def client():
        session.begin(read_only=False)
        session.write(key, 1)
        out["commit_at"] = cluster.sim.now
        out["ok"] = yield from session.commit()
        out["answered_at"] = cluster.sim.now

    cluster.spawn(client(), unit=COORDINATOR)
    cluster.run(until=500_000.0)
    assert out["ok"] is True
    assert out["answered_at"] - out["commit_at"] > VOTE_DELAY_US
    assert not any(node._fault_mode for node in cluster.nodes)
    assert cluster.total_counters().get("prepare_retries", 0) == 0


@pytest.mark.parametrize("protocol", sorted(VOTING))
def test_crash_without_a_plan_mid_round_ends_the_waiting_round(protocol):
    cluster = VOTING[protocol](
        ClusterConfig(n_nodes=2, n_keys=8, replication_degree=1, clients_per_node=1, seed=5),
        record_history=True,
    )
    coordinator = cluster.nodes[COORDINATOR]
    participant = cluster.nodes[PARTICIPANT]
    key = next(k for k in cluster.keys if cluster.placement.primary(k) == PARTICIPANT)
    # The participant's vote crawls back, so the round is still waiting on
    # its target alone when the participant crashes, with no plan, for good.
    cluster.network.degrade_link(PARTICIPANT, COORDINATOR, extra_us=VOTE_DELAY_US)
    session = cluster.session(COORDINATOR)
    out = {}

    def crash():
        out["waiting"] = len(coordinator._unguarded)
        out["crash_at"] = cluster.sim.now
        participant.crash()

    def client():
        session.begin(read_only=False)
        session.write(key, 1)
        cluster.sim.call_after(1_000.0, crash)
        out["ok"] = yield from session.commit()
        out["answered_at"] = cluster.sim.now

    cluster.spawn(client(), unit=COORDINATOR)
    timeouts = cluster.config.timeouts
    envelope_us = (timeouts.prepare_retry_limit + 1) * timeouts.crash_resubscribe_us
    cluster.run(until=1_000.0 + envelope_us + 100.0)
    assert out["waiting"] == 1
    counters = cluster.total_counters()
    assert counters["prepare_retries"] == timeouts.prepare_retry_limit
    assert counters["prepare_retry_aborts"] == 1
    assert coordinator._unguarded == {}
    if protocol == "2pc":
        # The 2PC-baseline answers only once every participant acknowledged
        # the decision (its in-doubt window); the vote round gave up in time.
        assert "ok" not in out
    else:
        assert out["ok"] is False
        assert out["answered_at"] - out["crash_at"] <= envelope_us + 100.0
