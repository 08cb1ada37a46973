"""What the ledger measures: the workloads and the metric registry.

Standard library only — the parent process never imports ``repro`` (it
must stay small, so that a child's ``ru_maxrss`` is the child's own), and
``BENCHMARK.json`` at the repository root is checked against this module
by ``test_ledger.py``.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PACKAGE_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: ``--seconds`` at which the workloads have the sizes quoted in README.md;
#: simulated durations scale linearly with ``--seconds / NOMINAL_SECONDS``.
NOMINAL_SECONDS = 25.0
#: Timed children per workload; each runs its own generated seed.
REPEATS = 5
#: Fewest latency samples, pooled over the timed children, that support the
#: percentiles the ledger prints (ten samples beyond p99).
MIN_LATENCY_SAMPLES = 1_000

#: The ``src/repro/`` packages host time is attributed to.  ``other`` takes
#: what belongs to none of them (the ledger's own frames, ``repro.trace``,
#: ``repro.baselines`` and ``repro.search`` in an SSS run).
LAYERS: Tuple[str, ...] = (
    "sim",
    "network",
    "protocols",
    "core",
    "storage",
    "clocks",
    "replication",
    "workload",
    "traffic",
    "consistency",
    "harness",
    "common",
    "other",
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs; sizes are the ones at ``NOMINAL_SECONDS``."""

    name: str
    why: str
    n_nodes: int
    clients_per_node: int
    read_only_fraction: float
    read_only_txn_keys: int
    duration_us: float
    warmup_us: float
    key_distribution: str = "uniform"
    zipf_theta: float = 0.7
    #: Open loop when set: cluster-wide Poisson arrival rate.
    open_loop_tps: float = 0.0
    #: ``(node, start, length)`` with start and length as shares of the run.
    crash: Tuple[int, float, float] = ()
    n_keys: int = 400
    replication_degree: int = 2
    update_txn_keys: int = 2


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="mixed-6n",
            why=(
                "6 nodes, 18 closed-loop clients, 50% read-only: clocks are narrow, so host "
                "time is kernel, transport, dispatch and handlers; clock-width work bypasses it"
            ),
            n_nodes=6,
            clients_per_node=3,
            read_only_fraction=0.5,
            read_only_txn_keys=2,
            duration_us=80_000.0,
            warmup_us=15_000.0,
        ),
        Workload(
            name="wide-64n",
            why=(
                "64 nodes, 64 closed-loop clients, same mix and keys per client: ten times the "
                "clock width, so clock encoding, merging and interning show here, not on mixed-6n"
            ),
            n_nodes=64,
            clients_per_node=1,
            read_only_fraction=0.5,
            read_only_txn_keys=2,
            # 22 keys per client, as on mixed-6n.  On 400 keys a tenth of the
            # transactions aborted and sim_ktps spread by 21% from seed to seed.
            n_keys=1_408,
            duration_us=18_000.0,
            warmup_us=3_000.0,
        ),
        Workload(
            name="longro-6n",
            why=(
                "6 nodes, 80% read-only 8-key transactions on zipfian keys: snapshot queues, "
                "pre-commit waits and ambiguous zones do the work; read gains that cost writers"
            ),
            n_nodes=6,
            clients_per_node=3,
            read_only_fraction=0.8,
            read_only_txn_keys=8,
            key_distribution="zipfian",
            zipf_theta=0.9,
            duration_us=120_000.0,
            warmup_us=24_000.0,
        ),
        Workload(
            name="crash-3n",
            why=(
                "3 nodes, open-loop Poisson arrivals below saturation, 80% updates, one node "
                "crashes and recovers, history recorded and checked: faults, log replay, checkers"
            ),
            n_nodes=3,
            clients_per_node=1,
            read_only_fraction=0.2,
            read_only_txn_keys=2,
            open_loop_tps=15_000.0,
            crash=(1, 0.3, 0.05),
            duration_us=200_000.0,
            warmup_us=20_000.0,
        ),
    )
}

#: Seed of the quarter-length history audits.  They run on fixed inputs: on
#: generated ones SSS itself fails about one longro-6n audit in eighty (see
#: "Findings" in README.md), and a gate that fails at random for a defect the
#: parent commit already has would reject changes that did not cause it.
AUDIT_SEED = 2024

#: The configuration the plane-overhead matrix and the baseline rows run on.
REFERENCE_WORKLOAD = "mixed-6n"
BASELINE_PROTOCOLS: Tuple[str, ...] = ("2pc", "walter", "rococo")
#: Simulated length of one plane-overhead run at ``NOMINAL_SECONDS``.
MATRIX_DURATION_US = 30_000.0
MATRIX_WARMUP_US = 6_000.0
#: ``run_experiment`` keyword arguments of each plane-overhead variant.
MATRIX_VARIANTS: Dict[str, Dict[str, object]] = {
    "trace.on_ratio": {"trace": True},
    "consistency.history_full_ratio": {"record_history": True},
    "consistency.history_windowed_ratio": {"record_history": "windowed"},
    "harness.streaming_ratio": {"streaming_metrics": True},
    "harness.parallel_inline1_ratio": {
        "engine": "parallel",
        "shards": 1,
        "parallel_mode": "inline",
    },
    "harness.parallel_inline2_ratio": {
        "engine": "parallel",
        "shards": 2,
        "parallel_mode": "inline",
    },
}


def config_seed(seed: int, workload: str, index: int) -> int:
    """The ``ClusterConfig.seed`` of one child: all the program sees of ``--seed``."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: ``host`` (seconds of this machine) or ``sim`` (the modelled store's time
    #: and counts, which repeat exactly for a seed).
    clock: str
    what: str
    #: End-to-end only: the share of the parent's median it may worsen by.
    bound: float = 0.0
    #: Per-layer only: the end-to-end metric and workloads it should move.
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "host_txn_per_s",
        "txn/s",
        "higher",
        "host",
        "committed txns of the measurement window per undisturbed host second of event "
        "loop, aggregation and the workload's own checks (T1 to T2, fastest child per cut)",
        bound=0.25,
    ),
    Metric(
        "setup_s",
        "s",
        "lower",
        "host",
        "host seconds from spawn to the first event (T1-T0): interpreter, imports, "
        "cluster build, key preload, client install; median of the timed children",
        bound=0.25,
    ),
    Metric(
        "host_peak_rss_mb",
        "MiB",
        "lower",
        "host",
        "ru_maxrss of a timed child; median",
        bound=0.25,
    ),
    Metric(
        "sim_ktps",
        "ktxn/s",
        "higher",
        "sim",
        "committed txns per simulated second, pooled over the timed children",
        bound=0.25,
    ),
    Metric(
        "sim_p50_us",
        "us",
        "lower",
        "sim",
        "median client-observed latency of committed txns, pooled",
        bound=0.2,
    ),
    Metric(
        "sim_ro_p95_us",
        "us",
        "lower",
        "sim",
        "p95 latency of committed read-only txns, pooled",
        bound=0.25,
    ),
    Metric(
        "sim_update_p95_us",
        "us",
        "lower",
        "sim",
        "p95 latency of committed update txns to external commit, pooled",
        bound=0.25,
    ),
    Metric(
        "committed_pct",
        "%",
        "higher",
        "sim",
        "committed, as a share of committed + aborted + dropped + timed out + stalled, pooled",
        bound=0.05,
    ),
)


def _per_layer() -> Tuple[Metric, ...]:
    everywhere = "host_txn_per_s on all four"
    host_moves = {
        "sim": everywhere,
        "network": everywhere,
        "protocols": everywhere,
        "core": "host_txn_per_s, most on longro-6n",
        "storage": "host_txn_per_s, most on longro-6n",
        "clocks": "host_txn_per_s on wide-64n, not mixed-6n",
        "replication": "host_txn_per_s, setup_s (placement is built at start)",
        "workload": everywhere,
        "traffic": "host_txn_per_s on crash-3n only",
        "consistency": "host_txn_per_s on crash-3n only",
        "harness": "host_txn_per_s (aggregation), setup_s",
        "common": "host_txn_per_s on crash-3n only",
        "other": "none; the ledger's own frames",
    }
    metrics: List[Metric] = []
    for layer in LAYERS:
        metrics.append(
            Metric(
                f"{layer}.self_us_per_txn",
                "us/txn",
                "lower",
                "host",
                f"profiled self time of repro/{layer}/ per committed txn, builtins and "
                "stdlib charged to the calling layer",
                moves=host_moves[layer],
            )
        )
        metrics.append(
            Metric(
                f"{layer}.calls_in_per_txn",
                "calls/txn",
                "lower",
                "sim",
                f"calls entering repro/{layer}/ from another layer per committed txn "
                "(profiled run; a count)",
                moves=host_moves[layer],
            )
        )

    def add(name, unit, better, clock, what, moves):
        metrics.append(Metric(name, unit, better, clock, what, moves=moves))

    add(
        "ledger.profile_overhead_ratio",
        "ratio",
        "lower",
        "host",
        "profiled / unprofiled event-loop seconds per event",
        "none; how far cProfile stretches the self times above",
    )
    # Coarse spans of the unprofiled child.
    add("harness.build_cluster_s", "s", "lower", "host", "span: build_cluster", "setup_s")
    add("sim.event_loop_s", "s", "lower", "host", "span: ProtocolCluster.run", everywhere)
    add(
        "harness.aggregate_s",
        "s",
        "lower",
        "host",
        "span: ExperimentMetrics.from_clients / from_streaming",
        "host_txn_per_s on crash-3n",
    )
    add(
        "consistency.check_s",
        "s",
        "lower",
        "host",
        "span: check_consistency + check_contract (0 where the workload has none)",
        "host_txn_per_s on crash-3n",
    )
    # Counts of the unprofiled child: they repeat exactly for a seed.
    fewer = "host_txn_per_s on all four (fewer per txn is the only gain besides per-event cost)"
    add("sim.events_per_txn", "events/txn", "lower", "sim", "engine events per txn", fewer)
    add("network.msgs_per_txn", "msgs/txn", "lower", "sim", "messages sent per txn", fewer)
    add("network.bytes_per_txn", "bytes/txn", "lower", "sim", "modelled bytes per txn", fewer)
    add(
        "protocols.handled_per_txn",
        "msgs/txn",
        "lower",
        "sim",
        "messages dispatched to handlers per txn",
        fewer,
    )
    add(
        "sim.host_us_per_event",
        "us/event",
        "lower",
        "host",
        "event-loop host time per event",
        "host_txn_per_s; wide-64n / mixed-6n is the per-event cost of clock width",
    )
    add(
        "sim.events_per_host_s",
        "events/s",
        "higher",
        "host",
        "events per event-loop host second (not end to end: removing cheap events lowers it)",
        "host_txn_per_s",
    )
    wide = "host_txn_per_s, host_peak_rss_mb on wide-64n"
    add("clocks.bytes_per_msg", "bytes/msg", "lower", "sim", "encoded clock bytes/message", wide)
    add("clocks.compression_ratio", "ratio", "lower", "sim", "encoded / dense clock bytes", wide)
    add(
        "core.prepare_reject_pct",
        "%",
        "lower",
        "sim",
        "prepare rejects / prepares: the wasted-work ratio",
        "committed_pct, sim_ktps on mixed-6n, longro-6n",
    )
    add(
        "core.precommit_waits_per_ktxn",
        "1/ktxn",
        "lower",
        "sim",
        "pre-commit waits per 1000 txns",
        "sim_update_p95_us on longro-6n",
    )
    add(
        "core.precommit_wait_mean_us",
        "us",
        "lower",
        "sim",
        "mean internal-to-external commit wait",
        "sim_update_p95_us on longro-6n",
    )
    add(
        "core.ambiguous_waits_per_ktxn",
        "1/ktxn",
        "lower",
        "sim",
        "ambiguous-zone waits per 1000 txns",
        "sim_ro_p95_us, sim_p99_us on longro-6n",
    )
    add(
        "core.readonly_restarts_per_ktxn",
        "1/ktxn",
        "lower",
        "sim",
        "read-only snapshot restarts per 1000 txns",
        "sim_ro_p95_us, sim_p99_us on longro-6n",
    )
    add(
        "storage.lock_timeouts_per_ktxn",
        "1/ktxn",
        "lower",
        "sim",
        "lock timeouts per 1000 txns",
        "committed_pct, sim_p99_us on mixed-6n",
    )
    crash = "committed_pct, sim_p99_us on crash-3n (0 elsewhere)"
    add("network.dropped_pct", "%", "lower", "sim", "messages dropped / sent", crash)
    add("harness.availability_min", "ratio", "higher", "sim", "lowest phase availability", crash)
    add("traffic.shed_pct", "%", "lower", "sim", "arrivals dropped or timed out / offered", crash)
    add("traffic.queue_depth_max", "count", "lower", "sim", "deepest admission queue", crash)
    add(
        "uncommitted_pct",
        "%",
        "lower",
        "sim",
        "100 - committed_pct of the unprofiled child: conflict aborts plus shed and stalled "
        "requests (spreads by 20% from seed to seed where aborts are few)",
        "committed_pct",
    )
    add(
        "sim_p99_us",
        "us",
        "lower",
        "sim",
        "p99 latency of committed txns of the unprofiled child (set by bounded-wait "
        "timeouts; too seed-sensitive to carry a bound)",
        "the tail every wait metric feeds",
    )
    # Simulated-time critical path of the traced child, as shares of its sum.
    add(
        "network.cp_rpc_pct",
        "%",
        "lower",
        "sim",
        "rpc.read + rpc.prepare",
        "sim_p50_us everywhere",
    )
    add(
        "core.cp_precommit_wait_pct",
        "%",
        "lower",
        "sim",
        "wait.precommit_ack + wait.precommit_queue",
        "sim_update_p95_us on longro-6n",
    )
    add(
        "core.cp_ambiguous_wait_pct",
        "%",
        "lower",
        "sim",
        "wait.ambiguous + wait.ambiguous_guard",
        "sim_p99_us on crash-3n and longro-6n",
    )
    add(
        "storage.cp_lock_wait_pct",
        "%",
        "lower",
        "sim",
        "wait.lock + wait.lock_timeout",
        "sim_update_p95_us on mixed-6n",
    )
    add(
        "storage.cp_commit_queue_wait_pct",
        "%",
        "lower",
        "sim",
        "wait.commit_queue",
        "sim_update_p95_us on mixed-6n",
    )
    add("core.cp_run_pct", "%", "lower", "sim", "time under no recorded span", "none")
    # Plane-overhead matrix and baseline rows, on the reference configuration.
    planes = "host_txn_per_s on crash-3n (history); nothing else today"
    for name in MATRIX_VARIANTS:
        add(
            name,
            "ratio",
            "lower",
            "host",
            f"run_experiment host seconds with {MATRIX_VARIANTS[name]} / without, "
            f"min over alternating runs on {REFERENCE_WORKLOAD}",
            planes,
        )
    for protocol in BASELINE_PROTOCOLS:
        add(
            f"baselines.{protocol}_sim_ktps",
            "ktxn/s",
            "higher",
            "sim",
            f"{protocol} on the {REFERENCE_WORKLOAD} configuration",
            "none; keeps the paper's ordering in view",
        )
    for protocol in BASELINE_PROTOCOLS:
        add(
            f"baselines.{protocol}_host_txn_per_s",
            "txn/s",
            "higher",
            "host",
            f"{protocol} on the {REFERENCE_WORKLOAD} configuration",
            "none; shows a runtime change that helps SSS at a baseline's cost",
        )
    return tuple(metrics)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, as ``repro.harness.metrics.LatencySummary`` takes it."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as the driver takes them (a single value is both)."""
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)
