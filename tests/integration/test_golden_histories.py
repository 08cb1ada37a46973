"""Golden-history equivalence of the protocol-runtime refactor.

The PR that introduced :mod:`repro.protocols` collapsed four independently
grown node runtimes (SSS + the three baselines) onto one shared
:class:`~repro.protocols.runtime.ProtocolRuntime`.  The refactor's contract
is that **fail-free histories are byte-identical** before and after the
port: same seed, same config, same committed history, bit for bit.

The fingerprints below were captured on the pre-refactor tree (commit
6f83410, "PR 2") with this very module's ``--write`` mode and committed to
``tests/golden/history_hashes.json``.  Any change to these hashes means the
refactor (or a later change) altered fail-free protocol behaviour — which is
only acceptable for a deliberate, documented protocol change, never for a
"pure" refactor.

The **SSS** fingerprints were deliberately re-captured by the
ambiguous-zone PR (ordered external-commit resolution): the fail-free read
path now resolves ambiguous writers definitively at their coordinators
(ExternalStatusQuery + answer gates) instead of excluding on timeout, which
legitimately changes fail-free serialization in the rare reads that used to
hit the timeout heuristic.  The three baseline protocols' histories were
untouched by that PR and still match their PR-2 capture bit for bit.

The same eight runs also pin what the history *cost*: the ``"counts"`` block
holds each point's simulation events, network messages sent / delivered,
bytes sent and messages handled.  These repeat to the last digit for a seed
on any machine, so unlike a wall-clock floor they fail on one extra message
per commit.  A separate test asserts them, so "the history moved" and "the
cost moved" fail under different ids; a change that moves the counts on
purpose refreshes the block in the same diff and says why, exactly like the
hashes.

The eight runs are 3-node micro-configurations, so the ``"counts"`` block
also holds three SSS runs at the shapes of the performance ledger's
workloads (:data:`LEDGER_SHAPES`): a cost that only shows at clock width,
with long zipfian readers or in fault mode under a crash is pinned by name
too, and ROCOCO's recovery under the same crash.  ``sss/openloop-crash-3n``
is the ledger's crash workload as it really runs: open-loop arrivals and a
warm-up window.

``"metrics"`` pins what the harness *reports* of every one of those runs: a
sha256 of the exact :class:`~repro.harness.metrics.ExperimentMetrics` dump
(``as_dict()`` without the host-timed ``wall_seconds``, the five latency
summaries, the phase table and the time series).  The open-loop run covers
time windows, per-phase offered load and the warm-up rule.

``"tie_order"`` pins what orders messages that reach one node in the same
instant.  With the default jitter no two arrivals ever coincide, so the
runs above never exercise it; :data:`TIE_ORDER_NETWORK` (constant latency,
no link service time) makes ties the common case.  The transport breaks
them by ``(sender, per-sender sequence)``, ahead of the node's own events of
that instant, on any shard count — each protocol's history under that rule
is pinned on one and on two shards.

Regenerate (deliberately!) with::

    PYTHONPATH=src python tests/integration/test_golden_histories.py --write
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.common.config import (
    ClusterConfig,
    FaultPlan,
    NetworkConfig,
    TrafficPlan,
    WorkloadConfig,
)
from repro.harness.runner import run_experiment

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "history_hashes.json"

#: (protocol, seed, replication_degree) -> one golden datapoint each.
GOLDEN_POINTS = [
    ("sss", 7, 2),
    ("sss", 13, 2),
    ("2pc", 7, 2),
    ("2pc", 13, 2),
    ("walter", 7, 2),
    ("walter", 13, 2),
    ("rococo", 7, 1),
    ("rococo", 13, 1),
]

#: ``protocol/shape`` -> (config, workload, duration_us[, warmup_us]): SSS at
#: the shapes of the ledger's workloads, each well under a second of host
#: time, and ROCOCO at the crash shape, which pins the cost of its recovery.
LEDGER_SHAPES = {
    "sss/wide-32n": (
        ClusterConfig(n_nodes=32, n_keys=704, replication_degree=2, clients_per_node=1, seed=7),
        WorkloadConfig(read_only_fraction=0.5),
        6_000,
    ),
    "sss/longro-6n": (
        ClusterConfig(n_nodes=6, n_keys=400, replication_degree=2, clients_per_node=3, seed=7),
        WorkloadConfig(
            read_only_fraction=0.8,
            read_only_txn_keys=8,
            key_distribution="zipfian",
            zipf_theta=0.9,
        ),
        12_000,
    ),
    "sss/crash-3n": (
        ClusterConfig(
            n_nodes=3,
            n_keys=24,
            replication_degree=2,
            clients_per_node=2,
            seed=13,
            faults=FaultPlan.parse(["crash node=1 at=3750 for=2250"]),
        ),
        WorkloadConfig(read_only_fraction=0.2),
        15_000,
    ),
}
LEDGER_SHAPES["rococo/crash-3n"] = LEDGER_SHAPES["sss/crash-3n"]
LEDGER_SHAPES["sss/openloop-crash-3n"] = (
    ClusterConfig(
        n_nodes=3,
        n_keys=24,
        replication_degree=2,
        clients_per_node=1,
        seed=13,
        faults=FaultPlan.parse(["crash node=1 at=4500 for=3000"]),
        traffic=TrafficPlan.parse(["poisson rate=15000tps"]),
    ),
    WorkloadConfig(read_only_fraction=0.2, read_only_txn_keys=2),
    15_000,
    1_500,
)

#: Every cross-node message takes exactly 20 us and occupies its link for no
#: time, so fan-outs and their replies reach a node in the same instant.
TIE_ORDER_NETWORK = NetworkConfig(base_latency_us=20.0, jitter_us=0.0, bandwidth_msgs_per_us=0.0)
#: (protocol, replication_degree)
TIE_ORDER_POINTS = [("sss", 2), ("2pc", 2), ("walter", 2), ("rococo", 1)]
TIE_ORDER_ENGINES = {
    "serial": {},
    "2-shards": {"engine": "parallel", "shards": 2, "parallel_mode": "inline"},
}


def history_fingerprint(history) -> str:
    """Canonical byte-stable digest of a committed/aborted history.

    Mirrors the digest used by ``tests/unit/test_determinism.py`` so the two
    suites pin the same notion of "the history".
    """
    lines = []
    for txn in history.committed:
        reads = ";".join(
            f"{read.key}<-{read.writer}@{read.version_local_value}"
            for read in txn.reads
        )
        hints = ";".join(f"{key}={value}" for key, value in txn.write_version_hints)
        lines.append(
            f"{txn.txn_id}|{txn.coordinator}|{int(txn.is_update)}|{reads}|"
            f"{','.join(map(str, txn.writes))}|{txn.begin_time!r}|"
            f"{txn.external_commit_time!r}|{hints}"
        )
    for txn in history.aborted:
        lines.append(f"ABORT {txn.txn_id}|{txn.reason}|{txn.abort_time!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: The latency summaries of :class:`~repro.harness.metrics.ExperimentMetrics`.
LATENCY_SUMMARIES = (
    "latency",
    "update_latency",
    "read_only_latency",
    "internal_latency",
    "precommit_wait",
)


def metrics_fingerprint(metrics) -> str:
    """sha256 of everything a run reports except its host time."""
    flat = {key: value for key, value in metrics.as_dict().items() if key != "wall_seconds"}
    summaries = [dataclasses.asdict(getattr(metrics, name)) for name in LATENCY_SUMMARIES]
    dump = json.dumps([flat, summaries, metrics.phases, metrics.timeseries])
    return hashlib.sha256(dump.encode()).hexdigest()


def _run(
    protocol: str, config, workload, duration_us, warmup_us=0, **engine
) -> Tuple[str, Dict[str, int], str]:
    """One recorded experiment: its history fingerprint, cost counts and metrics digest."""
    result = run_experiment(
        protocol,
        config,
        workload,
        duration_us=duration_us,
        warmup_us=warmup_us,
        record_history=True,
        keep_cluster=True,
        **engine,
    )
    stats = result.cluster.network.stats
    counts = {
        "sim_events": int(result.metrics.extra["sim_events"]),
        "sent": stats.total_sent,
        "delivered": stats.total_delivered,
        "bytes_sent": stats.bytes_sent,
        "messages_handled": int(result.node_counters["messages_handled"]),
    }
    return history_fingerprint(result.cluster.history), counts, metrics_fingerprint(result.metrics)


@functools.cache
def run_golden_point(
    protocol: str, seed: int, replication_degree: int
) -> Tuple[str, Dict[str, int], str]:
    """One fail-free experiment at a fixed micro-configuration, run once."""
    config = ClusterConfig(
        n_nodes=3,
        n_keys=24,
        replication_degree=replication_degree,
        clients_per_node=2,
        seed=seed,
    )
    return _run(protocol, config, WorkloadConfig(read_only_fraction=0.5), 15_000)


@functools.cache
def run_ledger_shape(name: str) -> Tuple[str, Dict[str, int], str]:
    return _run(name.split("/")[0], *LEDGER_SHAPES[name])


@functools.cache
def run_tie_order_point(
    protocol: str, replication_degree: int, engine: str
) -> Tuple[str, Dict[str, int], str]:
    """A zero-jitter run: 4 nodes so that two shards own two nodes each."""
    config = ClusterConfig(
        n_nodes=4,
        n_keys=24,
        replication_degree=replication_degree,
        clients_per_node=2,
        seed=7,
        network=TIE_ORDER_NETWORK,
    )
    workload = WorkloadConfig(read_only_fraction=0.5)
    return _run(protocol, config, workload, 15_000, **TIE_ORDER_ENGINES[engine])


def _point_key(protocol: str, seed: int, replication_degree: int) -> str:
    return f"{protocol}/seed={seed}/rf={replication_degree}"


def load_golden() -> dict:
    with GOLDEN_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "protocol,seed,replication_degree",
    GOLDEN_POINTS,
    ids=[_point_key(*point) for point in GOLDEN_POINTS],
)
def test_fail_free_history_matches_pre_refactor_golden(protocol, seed, replication_degree):
    golden = load_golden()
    key = _point_key(protocol, seed, replication_degree)
    assert key in golden["fingerprints"], (
        f"no golden fingerprint for {key}; regenerate with --write"
    )
    fingerprint, _, _ = run_golden_point(protocol, seed, replication_degree)
    assert fingerprint == golden["fingerprints"][key], (
        f"fail-free history for {key} diverged from the pre-refactor golden "
        "capture — the runtime port must preserve byte-identical histories"
    )


def _assert_counts(key: str, counts: Dict[str, int]) -> None:
    golden = load_golden()["counts"]
    assert key in golden, f"no golden counts for {key}; regenerate with --write"
    moved = {
        name: f"{golden[key].get(name)} -> {value}"
        for name, value in counts.items()
        if golden[key].get(name) != value
    }
    assert not moved, (
        f"the cost of the run {key} moved: {moved}. These counts are exact for a seed; "
        "if the change is meant to move them, regenerate with --write and say why"
    )


@pytest.mark.parametrize(
    "protocol,seed,replication_degree",
    GOLDEN_POINTS,
    ids=[_point_key(*point) for point in GOLDEN_POINTS],
)
def test_fail_free_cost_counts_match_golden(protocol, seed, replication_degree):
    _, counts, _ = run_golden_point(protocol, seed, replication_degree)
    _assert_counts(_point_key(protocol, seed, replication_degree), counts)


@pytest.mark.parametrize("name", LEDGER_SHAPES)
def test_ledger_shape_cost_counts_match_golden(name):
    _, counts, _ = run_ledger_shape(name)
    _assert_counts(name, counts)


def _metrics_runs():
    """``name -> the run's metrics digest`` over every golden point and ledger shape."""
    runs = {
        _point_key(*point): functools.partial(run_golden_point, *point)
        for point in GOLDEN_POINTS
    }
    runs.update({name: functools.partial(run_ledger_shape, name) for name in LEDGER_SHAPES})
    return runs


@pytest.mark.parametrize("name", list(_metrics_runs()))
def test_exact_metrics_match_golden(name):
    golden = load_golden()["metrics"]
    assert name in golden, f"no golden metrics digest for {name}; regenerate with --write"
    assert _metrics_runs()[name]()[2] == golden[name], (
        f"the exact metrics of {name} moved: the aggregation of a run's outcomes must not "
        "change what it reports"
    )


@pytest.mark.parametrize("engine", TIE_ORDER_ENGINES)
@pytest.mark.parametrize("protocol,replication_degree", TIE_ORDER_POINTS)
def test_simultaneous_arrivals_keep_their_order(protocol, replication_degree, engine):
    golden = load_golden()["tie_order"]
    fingerprint, counts, _ = run_tie_order_point(protocol, replication_degree, engine)
    assert fingerprint == golden["fingerprints"][protocol], (
        f"the zero-jitter {protocol} history on {engine} diverged: arrivals at one node in "
        "one instant must be served by (sender, per-sender sequence), before the node's "
        "own events of that instant"
    )
    assert counts["sim_events"] == golden["sim_events"][protocol]


def write_golden() -> None:
    fingerprints, counts, metrics = {}, {}, {}
    for protocol, seed, replication_degree in GOLDEN_POINTS:
        key = _point_key(protocol, seed, replication_degree)
        fingerprints[key], counts[key], metrics[key] = run_golden_point(
            protocol, seed, replication_degree
        )
        print(f"{key}: {fingerprints[key]} {counts[key]}")
    for name in LEDGER_SHAPES:
        _, counts[name], metrics[name] = run_ledger_shape(name)
        print(f"{name}: {counts[name]}")
    tie_order = {"fingerprints": {}, "sim_events": {}}
    for protocol, replication_degree in TIE_ORDER_POINTS:
        fingerprint, tie_counts, _ = run_tie_order_point(protocol, replication_degree, "serial")
        tie_order["fingerprints"][protocol] = fingerprint
        tie_order["sim_events"][protocol] = tie_counts["sim_events"]
        print(f"tie order {protocol}: {fingerprint} {tie_counts}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "comment": (
            "Byte-identical fail-free history fingerprints captured before "
            "the ProtocolRuntime refactor (see test_golden_histories.py)."
        ),
        "config": {
            "n_nodes": 3,
            "n_keys": 24,
            "clients_per_node": 2,
            "duration_us": 15000,
            "warmup_us": 0,
            "read_only_fraction": 0.5,
        },
        "fingerprints": fingerprints,
        "counts": counts,
        "tie_order": tie_order,
        "metrics": metrics,
    }
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_golden()
    else:
        print(__doc__)
