"""Trace byte-determinism: the export is a pure function of the scenario.

The trace plane's contract mirrors the history contracts: for a given
protocol, config and seed the exported Chrome trace JSON is *byte*
identical

* between the serial engine and the node-sharded parallel engine (the
  shard recorders tag events with engine keys and the merge reproduces
  the serial recording order);
* across shard counts (1, 2, 4 — trace payloads ride home in the shard
  reports);
* across interpreters with different ``PYTHONHASHSEED`` values;
* for every protocol × {fail-free, crash}.

Byte equality is asserted on :func:`repro.trace.export.trace_to_bytes` of
the exported document — the same canonical encoding
``run_experiment(trace="out.json")`` writes to disk.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from repro.common.config import ClusterConfig, CrashFault, FaultPlan, WorkloadConfig
from repro.harness.runner import run_experiment
from repro.protocols.registry import protocol_names
from repro.trace import TraceSpec, export_chrome_trace, trace_to_bytes

WORKLOAD = WorkloadConfig(read_only_fraction=0.5)
DURATION_US = 8_000.0

FAULT_PLANS = {
    "fail-free": FaultPlan(),
    "crash": FaultPlan(faults=(CrashFault(node=1, at_us=2_500.0, duration_us=1_500.0),)),
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


def _run(engine, protocol="sss", faults=FaultPlan(), seed=5, **kwargs):
    return run_experiment(
        protocol,
        _config(faults, seed=seed),
        WORKLOAD,
        duration_us=DURATION_US,
        warmup_us=0.0,
        trace=TraceSpec(),
        engine=engine,
        **kwargs,
    )


def _trace_bytes(result) -> bytes:
    assert result.trace is not None
    return trace_to_bytes(export_chrome_trace(result.trace))


def _trace_digest_for_subprocess(protocol: str = "sss", seed: int = 5) -> str:
    """Module-level hook for the PYTHONHASHSEED subprocess test."""
    result = _run(
        "parallel",
        protocol=protocol,
        faults=FAULT_PLANS["crash"],
        seed=seed,
        shards=2,
        parallel_mode="inline",
    )
    return hashlib.sha256(_trace_bytes(result)).hexdigest()


_SUBPROCESS_SNIPPET = (
    "import sys; sys.path.insert(0, {src!r}); sys.path.insert(0, {tests!r}); "
    "from test_trace_determinism import _trace_digest_for_subprocess; "
    "print(_trace_digest_for_subprocess({protocol!r}, {seed}))"
)


def _digest_in_subprocess(hash_seed: str, protocol: str = "sss", seed: int = 5) -> str:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    snippet = _SUBPROCESS_SNIPPET.format(
        src=os.path.join(root, "src"),
        tests=os.path.join(root, "tests", "integration"),
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


class TestSerialParallelTraceEquivalence:
    @pytest.mark.parametrize("fault_name", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_trace_bytes_identical(self, protocol, fault_name):
        faults = FAULT_PLANS[fault_name]
        serial = _run("serial", protocol=protocol, faults=faults)
        parallel = _run(
            "parallel", protocol=protocol, faults=faults, shards=2, parallel_mode="inline"
        )
        assert _trace_bytes(parallel) == _trace_bytes(serial)

    def test_repeated_serial_runs_identical(self):
        assert _trace_bytes(_run("serial")) == _trace_bytes(_run("serial"))


class TestShardAndModeInvariance:
    def test_shard_count_does_not_change_the_trace(self):
        faults = FAULT_PLANS["crash"]
        blobs = {
            shards: _trace_bytes(
                _run("parallel", faults=faults, shards=shards, parallel_mode="inline")
            )
            for shards in (1, 2, 4)
        }
        assert len(set(blobs.values())) == 1, sorted(blobs)
        assert blobs[2] == _trace_bytes(_run("serial", faults=faults))


class TestHashSeedInvariance:
    def test_trace_bytes_stable_across_hash_seeds(self):
        local = hashlib.sha256(
            _trace_bytes(
                _run("parallel", faults=FAULT_PLANS["crash"], shards=2, parallel_mode="inline")
            )
        ).hexdigest()
        assert _digest_in_subprocess("0") == local
        assert _digest_in_subprocess("4242") == local
