"""A run imports the planes it uses and no others.

Every package ``__init__`` is empty of imports and the optional planes —
history and windowed checking, fault plans, streaming metrics, open-loop
traffic, trace recording, the process pool, the clock codec — are imported
where they are used, so a closed-loop SSS run never loads them (nor their
memory).  Each check runs in a fresh interpreter: this process has long
imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"))

#: Modules a closed-loop SSS run without history, faults or tracing never calls.
NEVER_CALLED = [
    "repro.baselines",
    "repro.baselines.rococo",
    "repro.baselines.twopc",
    "repro.baselines.walter",
    # The delta codec is the compression ablation's offline replay tool;
    # the transport charges clocks densely and never loads it.
    "repro.clocks.compression",
    "repro.consistency",
    "repro.consistency.checkers",
    "repro.consistency.dsg",
    "repro.consistency.history",
    "repro.consistency.window",
    "repro.harness.parallel",
    "repro.harness.reporting",
    "repro.harness.scenario",
    # Streaming metrics' quantile sketches; the accumulator in
    # repro.harness.streaming aggregates every run, so it is not listed.
    "repro.harness.sketch",
    "repro.protocols.faults",
    "repro.storage.durable_log",
    "repro.trace.analysis",
    "repro.trace.export",
    "repro.trace.recorder",
    "repro.workload.openloop",
    "concurrent.futures",
    "multiprocessing",
]

#: What ``build_cluster`` must not import for a protocol other than its own.
PROTOCOL_MODULES = [
    "repro.core.ambiguous",
    "repro.core.cluster",
    "repro.core.commit_path",
    "repro.core.coordinator",
    "repro.core.node",
    "repro.core.read_path",
    "repro.core.recovery",
    "repro.baselines.rococo",
    "repro.baselines.twopc",
]


def _imported_after(code: str, watched) -> list:
    """Run ``code`` in a fresh interpreter; the ``watched`` modules it imported."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {list(watched)!r} if m in sys.modules))"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return completed.stdout.split()


def test_a_closed_loop_sss_run_imports_no_plane_it_does_not_use():
    code = (
        "from repro.harness.runner import run_experiment\n"
        "from repro.common.config import ClusterConfig, WorkloadConfig\n"
        "result = run_experiment('sss', ClusterConfig(n_nodes=3, n_keys=60, clients_per_node=2),"
        " WorkloadConfig(read_only_fraction=0.5), duration_us=2_000, warmup_us=0)\n"
        "assert result.metrics.committed > 0"
    )
    assert _imported_after(code, NEVER_CALLED) == []


def test_a_sharded_run_starts_no_worker_process():
    code = (
        "from repro.harness.runner import run_experiment\n"
        "from repro.common.config import ClusterConfig, WorkloadConfig\n"
        "result = run_experiment('sss', ClusterConfig(n_nodes=4, n_keys=60, clients_per_node=2),"
        " WorkloadConfig(read_only_fraction=0.5), duration_us=2_000, warmup_us=0,"
        " engine='parallel', shards=2)\n"
        "assert result.metrics.extra['parallel_shards'] == 2"
    )
    assert _imported_after(code, ["concurrent.futures", "multiprocessing"]) == []


def test_building_one_protocol_imports_no_other():
    code = (
        "from repro.protocols.registry import build_cluster\n"
        "from repro.common.config import ClusterConfig\n"
        "build_cluster('walter', ClusterConfig(n_nodes=3, n_keys=24))"
    )
    assert _imported_after(code, PROTOCOL_MODULES) == []


def test_a_full_history_run_never_loads_the_windowed_checker():
    code = (
        "from repro.harness.runner import run_experiment\n"
        "from repro.common.config import ClusterConfig, WorkloadConfig\n"
        "result = run_experiment('sss', ClusterConfig(n_nodes=3, n_keys=60, clients_per_node=2),"
        " WorkloadConfig(read_only_fraction=0.5), duration_us=2_000, warmup_us=0,"
        " record_history=True, keep_cluster=True)\n"
        "assert all(check.ok for check in result.cluster.check_contract())"
    )
    assert _imported_after(code, ["repro.consistency.window"]) == []
