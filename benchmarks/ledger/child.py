"""One measured run, in a process of its own.

``python -m benchmarks.ledger.child '<json request>'`` builds the generated
configuration, runs it through ``run_experiment`` and prints one JSON object
on the last line of its output.  The parent (``measure.py``) spawns these one
after the other, never two at a time.

The timeline the end-to-end host metrics rest on: ``T0`` is the parent's
clock just before the spawn, ``T1`` the first call of
``ProtocolCluster.run`` and ``T2`` the instant the metrics are aggregated
and the workload's own checks are done.  Nothing in ``src/`` is edited for
that: the calls are wrapped from here.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import resource
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.ledger.rollup import rollup
from benchmarks.ledger.spec import MATRIX_VARIANTS, WORKLOADS, Workload


#: Equal simulated-time cuts of every ``ProtocolCluster.run`` call, each timed
#: on its own (see ``undisturbed_seconds`` in ``measure.py``).
SLICES = 32
#: Simulated time a history audit keeps running after its clients stop.
AUDIT_DRAIN_US = 25_000.0


def clock() -> float:
    """Seconds on the system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpanRecorder:
    """Coarse spans around the calls the benchmark makes into the layers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": clock(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            self._stack.pop()

    def wrap(self, function: Callable, name: str, layer: str) -> Callable:
        def wrapped(*args, **kwargs):
            with self.span(name, layer):
                return function(*args, **kwargs)

        return wrapped

    def seconds(self, name: str) -> float:
        return sum(span["end"] - span["start"] for span in self.spans if span["name"] == name)


def install_spans(recorder: SpanRecorder) -> Dict[str, object]:
    """Wrap the layer boundaries ``run_experiment`` crosses; returns the T1 holder."""
    from repro.harness import runner
    from repro.harness.metrics import ExperimentMetrics
    from repro.protocols.cluster import ProtocolCluster

    marks: Dict[str, object] = {}
    runner.build_cluster = recorder.wrap(runner.build_cluster, "harness.build_cluster", "harness")
    event_loop = ProtocolCluster.run
    slices: List[Tuple[float, int]] = []
    marks["slices"] = slices

    def run(self, until=None):
        if "t1" not in marks:
            marks["t1"] = clock()
        with recorder.span("sim.event_loop", "sim"):
            if until is None:
                return event_loop(self, until=None)
            # The same events in the same order as one call (the loop stops
            # before the first event past ``until`` and nothing runs between
            # calls); the cuts only add a clock reading every few ms.
            start = self.sim.now
            for cut in range(1, SLICES + 1):
                target = until if cut == SLICES else start + (until - start) * cut / SLICES
                before = (clock(), self.sim.processed_events)
                now = event_loop(self, until=target)
                slices.append((clock() - before[0], self.sim.processed_events - before[1]))
            return now

    ProtocolCluster.run = run
    for name in ("from_clients", "from_streaming"):
        original = ExperimentMetrics.__dict__[name].__func__
        setattr(
            ExperimentMetrics,
            name,
            classmethod(recorder.wrap(original, "harness.aggregate", "harness")),
        )
    return marks


def build_inputs(workload: Workload, seed: int, scale: float):
    """The generated inputs: all the program sees of the benchmark's seed."""
    from repro.common.config import ClusterConfig, FaultPlan, WorkloadConfig
    from repro.traffic.plan import TrafficPlan

    duration_us = workload.duration_us * scale
    faults = FaultPlan()
    if workload.crash:
        node, start, length = workload.crash
        faults = FaultPlan.parse(
            [f"crash node={node} at={start * duration_us!r} for={length * duration_us!r}"]
        )
    traffic = TrafficPlan()
    if workload.open_loop_tps:
        traffic = TrafficPlan.parse([f"poisson rate={workload.open_loop_tps!r}tps"])
    config = ClusterConfig(
        n_nodes=workload.n_nodes,
        n_keys=workload.n_keys,
        replication_degree=workload.replication_degree,
        clients_per_node=workload.clients_per_node,
        seed=seed,
        faults=faults,
        traffic=traffic,
    )
    mix = WorkloadConfig(
        read_only_fraction=workload.read_only_fraction,
        update_txn_keys=workload.update_txn_keys,
        read_only_txn_keys=workload.read_only_txn_keys,
        key_distribution=workload.key_distribution,
        zipf_theta=workload.zipf_theta,
    )
    return config, mix, duration_us, workload.warmup_us * scale


def simulated_digest(result) -> str:
    """sha256 over everything simulated that a host-only change must leave alone."""
    lines = [f"COUNTER {name}={value}" for name, value in sorted(result.node_counters.items())]
    for stats in result.clients:
        lines.append(
            f"CLIENT {stats.node_id}.{stats.client_index}|{stats.committed}|"
            f"{stats.aborted}|{stats.latencies_us!r}|{stats.commit_times_us!r}|"
            f"{stats.abort_times_us!r}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_history(cluster, protocol: str, recorder: SpanRecorder) -> Dict[str, bool]:
    """The checkers over the recorded history, and the paper's abort-free property."""
    with recorder.span("consistency.check", "consistency"):
        checks = {
            "consistency_ok": bool(cluster.check_consistency().ok),
            "contract_ok": all(result.ok for result in cluster.check_contract()),
        }
    if protocol == "sss":
        read_only_aborts = sum(1 for txn in cluster.history.aborted if not txn.is_update)
        checks["read_only_never_aborts"] = read_only_aborts == 0
    return checks


def run_once(request: Dict[str, object]) -> Dict[str, object]:
    """One ``run_experiment`` call with its spans, checks and, if asked, a profile."""
    recorder = SpanRecorder(request["run_id"])
    with recorder.span("ledger.child", "other") as root:
        marks = install_spans(recorder)
        from repro.common.config import NetworkConfig, ServiceTimeConfig
        from repro.harness.runner import run_experiment
        from repro.trace.spec import TraceSpec

        workload = WORKLOADS[request["workload"]]
        protocol = request["protocol"]
        config, mix, duration_us, warmup_us = build_inputs(
            workload, request["config_seed"], request["scale"]
        )
        # crash-3n records and checks its history inside the timed region;
        # the quarter-length history runs do the same for the other workloads.
        with_history = bool(workload.crash) or request["history"]
        profiler = cProfile.Profile() if request["profile"] else None
        if profiler is not None:
            profiler.enable()
        with recorder.span("harness.run_experiment", "harness"):
            result = run_experiment(
                protocol,
                config,
                mix,
                duration_us=duration_us,
                warmup_us=warmup_us,
                record_history=with_history,
                keep_cluster=True,
                # Walter's replica convergence only holds once propagation
                # has drained, so the audit runs get the fault-plane drain.
                drain_us=AUDIT_DRAIN_US if request["history"] else None,
                trace=TraceSpec(sample_every=1) if request["trace"] else None,
            )
        checks = check_history(result.cluster, protocol, recorder) if with_history else {}
        if profiler is not None:
            profiler.disable()
    t2 = root["end"]
    metrics = result.metrics
    extra = metrics.extra
    network = result.cluster.network
    output = {
        "run_id": request["run_id"],
        "workload": workload.name,
        "protocol": protocol,
        "config_seed": request["config_seed"],
        "setup_s": marks["t1"] - request["t0"],
        "measure_s": t2 - marks["t1"],
        "slices": marks["slices"],
        "loop_s": extra["wall_seconds"],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measured_us": metrics.measured_duration_us,
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "dropped": int(extra.get("dropped", 0)),
        "timed_out": int(extra.get("timed_out", 0)),
        "stalled": int(extra.get("stalled_clients", 0)),
        "leaked_writers": int(extra.get("quiescence_leaked_writers", 0)),
        "offered": int(extra.get("offered", 0)),
        "latencies_us": {
            population: sorted(x for stats in result.clients for x in getattr(stats, samples))
            for population, samples in (
                ("all", "latencies_us"),
                ("read_only", "read_only_latencies_us"),
                ("update", "update_latencies_us"),
            )
        },
        "precommit_wait_mean_us": metrics.precommit_wait.mean_us,
        "events": int(extra["sim_events"]),
        "digest": simulated_digest(result),
        "counters": result.node_counters,
        "network": network.stats.as_dict(),
        "clock_bytes_per_msg": extra.get("clock_bytes_per_msg", 0.0),
        "clock_compression_ratio": extra.get("clock_compression_ratio", 0.0),
        "availability_min": extra.get("availability_min", 0.0),
        "queue_depth_max": extra.get("queue_depth_max", 0.0),
        "checks": checks,
        "spans": recorder.spans,
        "span_s": {
            name: recorder.seconds(name)
            for name in (
                "harness.build_cluster",
                "sim.event_loop",
                "harness.aggregate",
                "consistency.check",
            )
        },
        "provenance": {
            "network": vars(NetworkConfig()),
            "service": vars(ServiceTimeConfig()),
        },
    }
    if profiler is not None:
        self_s, calls_in, total_s = rollup(pstats.Stats(profiler).stats)
        output["profile"] = {"self_s": self_s, "calls_in": calls_in, "total_s": total_s}
        profiler.dump_stats(request["pstats_path"])
    if request["trace"]:
        prefix = "trace.crit_us."
        output["critical_path_us"] = {
            key[len(prefix) :]: value for key, value in extra.items() if key.startswith(prefix)
        }
    return output


def run_matrix(request: Dict[str, object]) -> Dict[str, object]:
    """Plane-overhead matrix: each variant alternated with the bare configuration."""
    from repro.harness.runner import run_experiment

    workload = WORKLOADS[request["workload"]]
    config, mix, _, _ = build_inputs(workload, request["config_seed"], 1.0)
    duration_us = request["duration_us"]
    warmup_us = request["warmup_us"]

    def timed(**planes) -> Dict[str, float]:
        started = time.perf_counter()
        result = run_experiment(
            "sss", config, mix, duration_us=duration_us, warmup_us=warmup_us, **planes
        )
        return {
            "host_s": time.perf_counter() - started,
            "committed": result.metrics.committed,
            "events": int(result.metrics.extra["sim_events"]),
        }

    timed()  # untimed: imports, caches
    rows: Dict[str, Dict[str, object]] = {}
    outcomes = set()
    for name, planes in MATRIX_VARIANTS.items():
        bare: List[Dict[str, float]] = []
        variant: List[Dict[str, float]] = []
        for _ in range(request["rounds"]):
            bare.append(timed())
            variant.append(timed(**planes))
        outcomes.update((run["committed"], run["events"]) for run in bare + variant)
        rows[name] = {
            "ratio": min(run["host_s"] for run in variant) / min(run["host_s"] for run in bare),
            "bare_s": [run["host_s"] for run in bare],
            "variant_s": [run["host_s"] for run in variant],
        }
    # A plane observes: every run commits the same and processes the same events.
    return {"run_id": request["run_id"], "rows": rows, "same_outcome": len(outcomes) == 1}


def main(argv: Optional[List[str]] = None) -> int:
    request = json.loads((argv if argv is not None else sys.argv[1:])[0])
    output = run_matrix(request) if request["kind"] == "matrix" else run_once(request)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
