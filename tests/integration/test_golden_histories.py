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

Regenerate (deliberately!) with::

    PYTHONPATH=src python tests/integration/test_golden_histories.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.common.config import ClusterConfig, WorkloadConfig
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


@functools.cache
def run_golden_point(
    protocol: str, seed: int, replication_degree: int
) -> Tuple[str, Dict[str, int]]:
    """One fail-free experiment at a fixed micro-configuration, run once.

    Returns its history fingerprint and its cost counts.
    """
    config = ClusterConfig(
        n_nodes=3,
        n_keys=24,
        replication_degree=replication_degree,
        clients_per_node=2,
        seed=seed,
    )
    workload = WorkloadConfig(read_only_fraction=0.5)
    result = run_experiment(
        protocol,
        config,
        workload,
        duration_us=15_000,
        warmup_us=0,
        record_history=True,
        keep_cluster=True,
    )
    stats = result.cluster.network.stats
    counts = {
        "sim_events": int(result.metrics.extra["sim_events"]),
        "sent": stats.total_sent,
        "delivered": stats.total_delivered,
        "bytes_sent": stats.bytes_sent,
        "messages_handled": sum(node.messages_handled for node in result.cluster.nodes),
    }
    return history_fingerprint(result.cluster.history), counts


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
    fingerprint, _ = run_golden_point(protocol, seed, replication_degree)
    assert fingerprint == golden["fingerprints"][key], (
        f"fail-free history for {key} diverged from the pre-refactor golden "
        "capture — the runtime port must preserve byte-identical histories"
    )


@pytest.mark.parametrize(
    "protocol,seed,replication_degree",
    GOLDEN_POINTS,
    ids=[_point_key(*point) for point in GOLDEN_POINTS],
)
def test_fail_free_cost_counts_match_golden(protocol, seed, replication_degree):
    golden = load_golden()
    key = _point_key(protocol, seed, replication_degree)
    assert key in golden["counts"], f"no golden counts for {key}; regenerate with --write"
    _, counts = run_golden_point(protocol, seed, replication_degree)
    moved = {
        name: f"{golden['counts'][key].get(name)} -> {value}"
        for name, value in counts.items()
        if golden["counts"][key].get(name) != value
    }
    assert not moved, (
        f"the cost of the fail-free run {key} moved: {moved}. These counts are exact for "
        "a seed; if the change is meant to move them, regenerate with --write and say why"
    )


def write_golden() -> None:
    fingerprints, counts = {}, {}
    for protocol, seed, replication_degree in GOLDEN_POINTS:
        key = _point_key(protocol, seed, replication_degree)
        fingerprints[key], counts[key] = run_golden_point(protocol, seed, replication_degree)
        print(f"{key}: {fingerprints[key]} {counts[key]}")
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
