"""Shard-count equivalence of the one experiment driver.

``run_experiment`` is one pipeline for any shard count; the serial engine
is its one-shard case.  Splitting the nodes over several shards
(``engine="parallel"``) must not be statistically close but
*byte-identical*: the same committed/aborted history, the same per-client
statistics, the same protocol and network counters.  The one-shard run
stays the golden reference; these tests pin the equivalence

* for every protocol × {fail-free, crash, crash+partition};
* across shard counts (1, 2, 4 shards — one digest);
* across interpreters with different ``PYTHONHASHSEED`` values.

plus that ``engine="parallel", shards=1`` *is* the serial run, that each
protocol's contract has one implementation answering for the live cluster
and the merged view alike, the driver's configuration guards (closed-loop
only, no windowed recording, positive lookahead required, shards run
inline only), and that a message to a node nobody registered fails at send
time on any shard count.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys

import pytest

from repro.common.config import (
    ClusterConfig,
    CrashFault,
    FaultPlan,
    PartitionFault,
    TrafficPlan,
    WorkloadConfig,
)
from repro.baselines import walter
from repro.common.errors import ConfigurationError
from repro.consistency.history import HistoryRecorder
from repro.harness.cluster import build_cluster
from repro.harness.runner import run_experiment
from repro.network.message import Message
from repro.protocols.cluster import MergedClusterView
from repro.protocols.registry import protocol_names
from repro.sim.shard import shard_node_ids
from repro.trace import export_chrome_trace, trace_to_bytes

WORKLOAD = WorkloadConfig(read_only_fraction=0.5)
DURATION_US = 8_000.0

FAULT_PLANS = {
    "fail-free": FaultPlan(),
    "crash": FaultPlan(faults=(CrashFault(node=1, at_us=2_500.0, duration_us=1_500.0),)),
    "crash+partition": FaultPlan(
        faults=(
            CrashFault(node=1, at_us=2_500.0, duration_us=1_500.0),
            PartitionFault(groups=((0, 1), (2, 3)), at_us=4_000.0, duration_us=1_500.0),
        )
    ),
}


def _config(faults=FaultPlan(), seed=5):
    return ClusterConfig(
        n_nodes=4,
        n_keys=48,
        replication_degree=2,
        clients_per_node=2,
        seed=seed,
        faults=faults,
    )


def _digest(result) -> str:
    """Byte-stable digest of everything the equivalence contract covers."""
    history = result.cluster.history
    lines = []
    for txn in history.committed:
        reads = ";".join(
            f"{read.key}<-{read.writer}@{read.version_local_value}" for read in txn.reads
        )
        lines.append(
            f"{txn.txn_id}|{txn.coordinator}|{int(txn.is_update)}|{reads}|"
            f"{','.join(map(str, txn.writes))}|{txn.begin_time!r}|"
            f"{txn.external_commit_time!r}"
        )
    for txn in history.aborted:
        lines.append(f"ABORT {txn.txn_id}|{txn.reason}|{txn.abort_time!r}")
    for name, value in sorted(result.node_counters.items()):
        lines.append(f"COUNTER {name}={value}")
    for name, value in result.cluster.network.stats.as_dict().items():
        lines.append(f"NETWORK {name}={value}")
    for stats in result.clients:
        lines.append(
            f"CLIENT {stats.node_id}.{stats.client_index}|{stats.committed}|"
            f"{stats.aborted}|{stats.latencies_us!r}|{stats.commit_times_us!r}|"
            f"{stats.abort_times_us!r}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _run(engine, faults=FaultPlan(), seed=5, **kwargs):
    return run_experiment(
        "sss" if "protocol" not in kwargs else kwargs.pop("protocol"),
        _config(faults, seed=seed),
        WORKLOAD,
        duration_us=DURATION_US,
        warmup_us=0.0,
        record_history=True,
        keep_cluster=True,
        engine=engine,
        **kwargs,
    )


def _run_parallel_fingerprint(protocol: str = "sss", seed: int = 5) -> str:
    """Module-level hook for the PYTHONHASHSEED subprocess test."""
    result = run_experiment(
        protocol,
        _config(FAULT_PLANS["crash"], seed=seed),
        WORKLOAD,
        duration_us=DURATION_US,
        warmup_us=0.0,
        record_history=True,
        keep_cluster=True,
        engine="parallel",
        shards=2,
        parallel_mode="inline",
    )
    return _digest(result)


_SUBPROCESS_SNIPPET = (
    "import sys; sys.path.insert(0, {src!r}); sys.path.insert(0, {tests!r}); "
    "from test_parallel_engine import _run_parallel_fingerprint; "
    "print(_run_parallel_fingerprint({protocol!r}, {seed}))"
)


def _fingerprint_in_subprocess(hash_seed: str, protocol: str, seed: int) -> str:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    snippet = _SUBPROCESS_SNIPPET.format(
        src=os.path.join(root, "src"),
        tests=os.path.join(root, "tests", "unit"),
        protocol=protocol,
        seed=seed,
    )
    output = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return output.stdout.strip()


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("fault_name", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_histories_identical(self, protocol, fault_name):
        faults = FAULT_PLANS[fault_name]
        serial = _run("serial", faults, protocol=protocol)
        parallel = _run(
            "parallel", faults, protocol=protocol, shards=2, parallel_mode="inline"
        )
        assert _digest(parallel) == _digest(serial)


#: ``metrics.extra`` keys that read the host's clock.
WALL_CLOCK_KEYS = ("wall_seconds",)


class TestOneShardIsTheSerialRun:
    def test_every_result_field_matches(self):
        # engine="parallel", shards=1 selects the same code path as
        # engine="serial"; nothing in the result may tell them apart.
        faults = FAULT_PLANS["crash"]
        serial = _run("serial", faults, trace=True, drain_us=5_000.0)
        one_shard = _run(
            "parallel", faults, shards=1, parallel_mode="inline", trace=True, drain_us=5_000.0
        )
        assert type(one_shard.cluster) is type(serial.cluster)
        assert one_shard.cluster.history == serial.cluster.history
        assert one_shard.clients == serial.clients
        assert one_shard.node_counters == serial.node_counters
        assert list(one_shard.node_counters) == list(serial.node_counters)

        def stable(result):
            flat = result.metrics.as_dict()
            return [(k, v) for k, v in flat.items() if k not in WALL_CLOCK_KEYS]

        assert stable(one_shard) == stable(serial)
        assert "parallel_shards" not in one_shard.metrics.extra
        assert one_shard.metrics.phases == serial.metrics.phases
        assert trace_to_bytes(export_chrome_trace(one_shard.trace)) == trace_to_bytes(
            export_chrome_trace(serial.trace)
        )
        assert (one_shard.protocol, one_shard.config, one_shard.workload) == (
            serial.protocol,
            serial.config,
            serial.workload,
        )

    def test_a_one_part_history_merge_is_the_identity(self):
        history = _run("serial", FAULT_PLANS["crash"]).cluster.history
        assert history.committed and len(history.committed_tags) == len(history.committed)
        assert len(history.aborted_tags) == len(history.aborted)
        assert HistoryRecorder.merge([history]) == history
        shipped = pickle.loads(pickle.dumps(history))
        assert shipped == history and shipped.tags is None and history.tags is not None


class TestOneContractImplementation:
    """Live cluster and merged view evaluate the same ``contract`` function."""

    @pytest.mark.parametrize("fault_name", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_live_cluster_and_merged_view_agree(self, protocol, fault_name):
        faults = FAULT_PLANS[fault_name]
        live = _run("serial", faults, protocol=protocol, drain_us=25_000.0).cluster
        merged = _run(
            "parallel",
            faults,
            protocol=protocol,
            shards=2,
            parallel_mode="inline",
            drain_us=25_000.0,
        ).cluster
        assert isinstance(merged, MergedClusterView)
        assert merged.cluster_class is type(live)
        assert merged.replica_versions == live.replica_versions()
        assert list(merged.replica_versions) == list(live.replica_versions())
        assert [(c.name, c.ok, c.violations) for c in merged.check_contract()] == [
            (c.name, c.ok, c.violations) for c in live.check_contract()
        ]

    @pytest.mark.parametrize("view", ["live", "merged"])
    def test_walter_contract_is_the_single_convergence_check(self, view, monkeypatch):
        if view == "live":
            cluster = _run("serial", protocol="walter", drain_us=25_000.0).cluster
            versions = cluster.replica_versions()
        else:
            cluster = _run(
                "parallel", protocol="walter", shards=2, parallel_mode="inline", drain_us=25_000.0
            ).cluster
            versions = cluster.replica_versions
        assert versions and all(len(held) == 2 for held in versions.values())
        seen = []
        real = walter.replica_convergence

        def spy(replica_versions):
            seen.append(replica_versions)
            return real(replica_versions)

        monkeypatch.setattr(walter, "replica_convergence", spy)
        names = [check.name for check in cluster.check_contract()]
        assert names == ["committed-reads", "walter-replica-convergence"]
        assert seen == [versions]

    def test_convergence_flags_a_replica_missing_a_version(self):
        summary = {
            "key-0": {0: {(0, 1), (1, 4)}, 1: {(0, 1), (1, 4)}},
            "key-1": {1: {(1, 2), (2, 7)}, 2: {(1, 2)}},
            "key-2": {0: set(), 2: set()},
        }
        check = walter.replica_convergence(summary)
        assert not check.ok
        assert check.name == "walter-replica-convergence"
        assert check.checked_transactions == 3
        assert check.violations == ["replica 2 of 'key-1' is missing committed versions [(2, 7)]"]
        checks = walter.WalterCluster.contract(HistoryRecorder(), summary)
        assert [c.ok for c in checks] == [True, False]
        del summary["key-1"][1]
        assert walter.replica_convergence(summary).ok


class TestShardCountInvariance:
    def test_shard_count_does_not_change_the_history(self):
        faults = FAULT_PLANS["crash"]
        digests = {
            shards: _digest(_run("parallel", faults, shards=shards, parallel_mode="inline"))
            for shards in (1, 2, 4)
        }
        assert len(set(digests.values())) == 1, digests
        assert digests[2] == _digest(_run("serial", faults))


class TestProcessMode:
    def test_streaming_metrics_merge_across_shards(self):
        exact = _run("serial")
        streaming = run_experiment(
            "sss",
            _config(),
            WORKLOAD,
            duration_us=DURATION_US,
            warmup_us=0.0,
            streaming_metrics=True,
            engine="parallel",
            shards=2,
        )
        assert streaming.metrics.committed == exact.metrics.committed
        assert streaming.metrics.aborted == exact.metrics.aborted
        assert streaming.metrics.latency.count == exact.metrics.latency.count
        assert streaming.metrics.latency.mean_us == pytest.approx(
            exact.metrics.latency.mean_us
        )


class TestHashSeedIndependence:
    def test_parallel_engine_survives_hash_randomization(self):
        first = _fingerprint_in_subprocess("1", "sss", 5)
        second = _fingerprint_in_subprocess("4242", "sss", 5)
        assert first == second


class TestGuards:
    def test_traffic_plans_are_rejected(self):
        config = ClusterConfig(
            n_nodes=4,
            n_keys=48,
            replication_degree=2,
            clients_per_node=0,
            seed=5,
            traffic=TrafficPlan.parse(["const rate=2000"]),
        )
        with pytest.raises(ConfigurationError):
            run_experiment("sss", config, WORKLOAD, engine="parallel")

    def test_windowed_history_is_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(
                "sss", _config(), WORKLOAD, record_history="windowed", engine="parallel"
            )

    def test_zero_lookahead_is_rejected(self):
        from dataclasses import replace

        config = _config()
        config = replace(
            config, network=replace(config.network, jitter_us=config.network.base_latency_us)
        )
        with pytest.raises(ConfigurationError):
            run_experiment("sss", config, WORKLOAD, engine="parallel")

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("sss", _config(), WORKLOAD, engine="warp")

    def test_shards_require_the_parallel_engine(self):
        with pytest.raises(ConfigurationError):
            run_experiment("sss", _config(), WORKLOAD, shards=2)

    def test_process_mode_is_rejected(self):
        with pytest.raises(ConfigurationError, match="docs/BENCHMARKS.md"):
            run_experiment(
                "sss", _config(), WORKLOAD, engine="parallel", shards=2, parallel_mode="process"
            )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_message_to_a_node_nobody_registered_fails_at_send_time(self, shards):
        cluster = build_cluster(
            "sss",
            config=_config(),
            record_history=False,
            owned_node_ids=shard_node_ids(0, 4, shards),
        )
        network = cluster.network
        with pytest.raises(KeyError):
            network.send(0, 99, Message())
        assert network.outbox == []
        # Node 3 is a member: delivered locally by the one shard that owns
        # every node, exported at the next barrier by the first shard of two.
        network.send(0, 3, Message())
        assert len(network.outbox) == (0 if shards == 1 else 1)
