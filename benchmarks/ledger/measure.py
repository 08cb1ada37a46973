"""The parent side: spawn children one after the other and reduce their output.

Three measurements, each a plain function of ``(workload, seed, seconds)``:

* :func:`measure_end_to_end` — one warm-up child and ``REPEATS`` timed
  children, tracing and profiling off: the end-to-end metrics and the
  correctness gate;
* :func:`measure_layers` — one plain, one profiled and one traced child: the
  per-layer metrics of that workload and its spans;
* :func:`measure_satellites` — the plane-overhead matrix and the baseline
  rows on the reference configuration.

``python -m benchmarks.ledger`` runs all of them for every workload; the
single-workload form the driver calls runs the first (``--trace 0``) or the
other two (``--trace 1``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from benchmarks.ledger.spec import (
    AUDIT_SEED,
    BASELINE_PROTOCOLS,
    LAYERS,
    MATRIX_DURATION_US,
    MATRIX_VARIANTS,
    MATRIX_WARMUP_US,
    MIN_LATENCY_SAMPLES,
    NOMINAL_SECONDS,
    REFERENCE_WORKLOAD,
    REPO_ROOT,
    SRC_DIR,
    WORKLOADS,
    config_seed,
    percentile,
    quartiles,
)

#: No child runs longer than this; the slowest today takes about 15 s.
CHILD_TIMEOUT_S = 150.0


class LedgerError(RuntimeError):
    """A child could not be run or did not report."""


def spawn(request: Dict[str, object]) -> Dict[str, object]:
    """Run one child to completion and return what it printed."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise LedgerError(f"no program to measure: {SRC_DIR}/repro is missing")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((REPO_ROOT, SRC_DIR))
    # T0: the last thing read before the child exists.
    request = dict(request, t0=time.clock_gettime(time.CLOCK_MONOTONIC))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.ledger.child", json.dumps(request)],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise LedgerError(f"child {request['run_id']} ran past {CHILD_TIMEOUT_S} s") from error
    if done.returncode != 0:
        raise LedgerError(
            f"child {request['run_id']} exited with {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def run_request(
    workload: str,
    seed: int,
    index: int,
    scale: float,
    label: str,
    protocol: str = "sss",
    history: bool = False,
    profile: bool = False,
    trace: bool = False,
    pstats_path: Optional[str] = None,
) -> Dict[str, object]:
    return {
        "kind": "run",
        "run_id": f"{workload}/{protocol}/{label}",
        "workload": workload,
        "protocol": protocol,
        "config_seed": config_seed(seed, workload, index),
        "scale": scale,
        "history": history,
        "profile": profile,
        "trace": trace,
        "pstats_path": pstats_path,
    }


def _attempted(child: Dict[str, object]) -> int:
    return child["committed"] + child["aborted"] + _unanswered(child)


def _unanswered(child: Dict[str, object]) -> int:
    """Requests the store refused or never answered (an abort is an answer)."""
    return child["dropped"] + child["timed_out"] + child["stalled"]


def _committed_pct(children: List[Dict[str, object]]) -> float:
    attempted = sum(_attempted(child) for child in children)
    return 100.0 * sum(child["committed"] for child in children) / attempted


def _pooled(children: List[Dict[str, object]], population: str) -> List[float]:
    return sorted(x for child in children for x in child["latencies_us"][population])


def undisturbed_seconds(children: List[Dict[str, object]], extra: Dict[str, object]) -> float:
    """Host seconds the children's measured regions (T1 to T2) take undisturbed.

    This container alternates, every few seconds, between a fast state and
    one about 1.6x slower (a busy sibling), so identical work spreads by 25%
    and a median of five whole children still by 15%.  Every child times
    each cut of its event loop on its own (``child.SLICES``); for each cut
    the events of all children are charged at the cost per event of the
    child that ran that cut fastest, and what a child spends outside the
    loop (aggregation, checks) is charged at the fastest child's.  That is
    best-of-N taken per cut instead of per run: it needs only one child in
    the fast state at a time, not one child in it throughout.  ``extra`` (the
    warm-up child) may set a cut's cost but adds no work of its own.
    """
    runs = children + [extra]
    total = 0.0
    for index, cut in enumerate(zip(*(child["slices"] for child in runs))):
        costs = [host_s / events for host_s, events in cut if events]
        if costs:
            total += min(costs) * sum(child["slices"][index][1] for child in children)
    outside = min(
        child["measure_s"] - sum(host_s for host_s, _ in child["slices"]) for child in runs
    )
    return total + outside * len(children)


def host_txn_per_s(children: List[Dict[str, object]], extra: Dict[str, object]) -> float:
    committed = sum(child["committed"] for child in children)
    return committed / undisturbed_seconds(children, extra)


def _history_checks(child: Dict[str, object], prefix: str) -> Dict[str, bool]:
    return {f"{prefix}.{name}": ok for name, ok in child["checks"].items()}


def measure_end_to_end(
    workload: str, seed: int, seconds: float, repeats: int, comparable: bool
) -> Dict[str, object]:
    """Warm-up child plus ``repeats`` timed children; tracing and profiling off."""
    spec = WORKLOADS[workload]
    scale = seconds / NOMINAL_SECONDS
    # The warm-up child fills the page cache and the .pyc files, and repeats
    # the first timed child's inputs: their digests must agree.
    warmup = spawn(run_request(workload, seed, 0, scale, "warmup"))
    timed = [
        spawn(run_request(workload, seed, index, scale, f"timed{index}"))
        for index in range(repeats)
    ]
    checks = {"digest_repeats": warmup["digest"] == timed[0]["digest"]}
    for index, child in enumerate(timed):
        checks.update(_history_checks(child, f"timed{index}"))
    if spec.crash and comparable:
        # (A smoke run is shorter than the stall the crash provokes.)
        checks["no_stalled_clients"] = all(child["stalled"] == 0 for child in timed)
        checks["no_leaked_writers"] = all(child["leaked_writers"] == 0 for child in timed)
    if not spec.crash:
        # Closed-loop workloads run without a history; a quarter-length run
        # on fixed inputs carries the consistency verdict for them.
        audit = spawn(
            run_request(workload, AUDIT_SEED, 0, scale / 4.0, "history", history=True)
        )
        checks.update(_history_checks(audit, "history"))
    latencies = {name: _pooled(timed, name) for name in ("all", "read_only", "update")}
    if comparable:
        checks["latency_samples"] = len(latencies["all"]) >= MIN_LATENCY_SAMPLES

    def entry(value: float, samples: List[float]) -> Dict[str, object]:
        q1, q3 = quartiles(samples or [value])
        return {"value": value, "q1": q1, "q3": q3, "samples": samples}

    def median_of(samples: List[float]) -> Dict[str, object]:
        return entry(statistics.median(samples), samples)

    def per_child_percentile(population: str, fraction: float) -> List[float]:
        return [percentile(child["latencies_us"][population], fraction) for child in timed]

    # The spread shown for the undisturbed estimate: the estimate without
    # each child in turn.
    without_one = [
        host_txn_per_s(timed[:index] + timed[index + 1 :], warmup)
        for index in range(len(timed))
        if len(timed) > 1
    ]
    end_to_end = {
        "host_txn_per_s": entry(host_txn_per_s(timed, warmup), without_one),
        "setup_s": median_of([child["setup_s"] for child in timed]),
        "host_peak_rss_mb": median_of([child["rss_mb"] for child in timed]),
        "sim_ktps": entry(
            sum(child["committed"] for child in timed)
            / sum(child["measured_us"] for child in timed)
            * 1_000.0,
            [child["committed"] / child["measured_us"] * 1_000.0 for child in timed],
        ),
        "sim_p50_us": entry(
            percentile(latencies["all"], 0.50), per_child_percentile("all", 0.50)
        ),
        "sim_ro_p95_us": entry(
            percentile(latencies["read_only"], 0.95), per_child_percentile("read_only", 0.95)
        ),
        "sim_update_p95_us": entry(
            percentile(latencies["update"], 0.95), per_child_percentile("update", 0.95)
        ),
        "committed_pct": entry(
            _committed_pct(timed), [_committed_pct([child]) for child in timed]
        ),
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "config_seeds": [child["config_seed"] for child in timed],
        "digests": [child["digest"] for child in timed],
        "end_to_end": end_to_end,
        "latency_samples": {name: len(values) for name, values in latencies.items()},
        "committed": sum(child["committed"] for child in timed),
        "events": sum(child["events"] for child in timed),
        "undisturbed_s": undisturbed_seconds(timed, warmup),
        "disturbed_txn_per_s": [child["committed"] / child["measure_s"] for child in timed],
        "attempted": sum(_attempted(child) for child in timed),
        "failed": sum(_unanswered(child) for child in timed),
        "checks": checks,
        "provenance": timed[0]["provenance"],
    }


def spans_nest(spans: List[Dict[str, object]]) -> bool:
    """Every parent resolves within the run and contains its child."""
    by_id = {(span["run"], span["id"]): span for span in spans}
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            return False
        if span["parent"] is None:
            continue
        parent = by_id.get((span["run"], span["parent"]))
        if parent is None or span["start"] < parent["start"] or span["end"] > parent["end"]:
            return False
    return True


def measure_layers(workload: str, seed: int, seconds: float, out_dir: str) -> Dict[str, object]:
    """Plain, profiled and traced child: the per-layer metrics of one workload.

    The profiled child leaves its raw ``ledger-<workload>.pstats`` in ``out_dir``.
    """
    scale = seconds / NOMINAL_SECONDS
    os.makedirs(out_dir, exist_ok=True)
    pstats_path = os.path.join(out_dir, f"ledger-{workload}.pstats")
    plain = spawn(run_request(workload, seed, 0, scale, "plain"))
    # cProfile stretches this program about 4x and the trace plane about 2x:
    # a quarter and a half of the length keep the three children alike.
    profiled = spawn(
        run_request(
            workload, seed, 0, scale / 4.0, "profiled", profile=True, pstats_path=pstats_path
        )
    )
    traced = spawn(run_request(workload, seed, 0, scale / 2.0, "traced", trace=True))

    metrics: Dict[str, float] = {}
    profile = profiled["profile"]
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_txn"] = (
            profile["self_s"][layer] * 1e6 / profiled["committed"]
        )
        metrics[f"{layer}.calls_in_per_txn"] = profile["calls_in"][layer] / profiled["committed"]
    metrics["ledger.profile_overhead_ratio"] = (profiled["loop_s"] / profiled["events"]) / (
        plain["loop_s"] / plain["events"]
    )
    for name, host_s in plain["span_s"].items():
        metrics[f"{name}_s"] = host_s

    txns = plain["committed"]
    counters = plain["counters"]
    network = plain["network"]
    metrics["sim.events_per_txn"] = plain["events"] / txns
    metrics["network.msgs_per_txn"] = network["sent"] / txns
    metrics["network.bytes_per_txn"] = network["bytes_sent"] / txns
    metrics["protocols.handled_per_txn"] = counters["messages_handled"] / txns
    metrics["sim.host_us_per_event"] = plain["loop_s"] * 1e6 / plain["events"]
    metrics["sim.events_per_host_s"] = plain["events"] / plain["loop_s"]
    metrics["clocks.bytes_per_msg"] = plain["clock_bytes_per_msg"]
    metrics["clocks.compression_ratio"] = plain["clock_compression_ratio"]
    metrics["core.prepare_reject_pct"] = (
        100.0 * counters.get("prepare_rejects", 0) / counters["prepares"]
    )
    for counter in ("precommit_waits", "ambiguous_waits", "readonly_restarts"):
        metrics[f"core.{counter}_per_ktxn"] = 1_000.0 * counters.get(counter, 0) / txns
    metrics["core.precommit_wait_mean_us"] = plain["precommit_wait_mean_us"]
    metrics["storage.lock_timeouts_per_ktxn"] = 1_000.0 * counters.get("lock_timeouts", 0) / txns
    metrics["network.dropped_pct"] = 100.0 * network["dropped"] / network["sent"]
    metrics["harness.availability_min"] = plain["availability_min"]
    shed = plain["dropped"] + plain["timed_out"]
    metrics["traffic.shed_pct"] = 100.0 * shed / plain["offered"] if plain["offered"] else 0.0
    metrics["traffic.queue_depth_max"] = plain["queue_depth_max"]
    metrics["uncommitted_pct"] = 100.0 - _committed_pct([plain])
    metrics["sim_p99_us"] = percentile(plain["latencies_us"]["all"], 0.99)

    critical = traced["critical_path_us"]
    critical_total = sum(critical.values())

    def share(*names: str) -> float:
        return 100.0 * sum(critical.get(name, 0.0) for name in names) / critical_total

    metrics["network.cp_rpc_pct"] = share("rpc.read", "rpc.prepare")
    metrics["core.cp_precommit_wait_pct"] = share("wait.precommit_ack", "wait.precommit_queue")
    metrics["core.cp_ambiguous_wait_pct"] = share("wait.ambiguous", "wait.ambiguous_guard")
    metrics["storage.cp_lock_wait_pct"] = share("wait.lock", "wait.lock_timeout")
    metrics["storage.cp_commit_queue_wait_pct"] = share("wait.commit_queue")
    metrics["core.cp_run_pct"] = share("run")

    spans = plain["spans"] + profiled["spans"] + traced["spans"]
    layer_sum = sum(profile["self_s"].values())
    named = layer_sum - profile["self_s"]["other"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "metrics": {name: float(value) for name, value in metrics.items()},
        "spans": spans,
        "digest": plain["digest"],
        "committed": plain["committed"],
        "attempted": _attempted(plain),
        "failed": _unanswered(plain),
        "profile": {
            "total_s": profile["total_s"],
            "layer_sum_s": layer_sum,
            "named_share": named / profile["total_s"],
            "share": {layer: profile["self_s"][layer] / profile["total_s"] for layer in LAYERS},
        },
        "critical_path_us": critical,
        "checks": {
            "rollup_sums_to_total": abs(layer_sum - profile["total_s"])
            <= 0.01 * profile["total_s"],
            "rollup_names_99pct": named >= 0.99 * profile["total_s"],
            "spans_nest": spans_nest(spans),
            **_history_checks(plain, "plain"),
        },
    }


def measure_satellites(seed: int, seconds: float, rounds: int) -> Dict[str, object]:
    """Plane-overhead matrix and baseline rows on the reference configuration."""
    scale = seconds / NOMINAL_SECONDS
    matrix = spawn(
        {
            "kind": "matrix",
            "run_id": f"{REFERENCE_WORKLOAD}/sss/matrix",
            "workload": REFERENCE_WORKLOAD,
            "config_seed": config_seed(seed, "matrix", 0),
            "duration_us": MATRIX_DURATION_US * scale,
            "warmup_us": MATRIX_WARMUP_US * scale,
            "rounds": rounds,
        }
    )
    metrics = {name: matrix["rows"][name]["ratio"] for name in MATRIX_VARIANTS}
    checks = {"matrix.same_commits_and_events": matrix["same_outcome"]}
    for protocol in BASELINE_PROTOCOLS:
        run = spawn(run_request(REFERENCE_WORKLOAD, seed, 0, scale, "baseline", protocol))
        metrics[f"baselines.{protocol}_sim_ktps"] = run["committed"] / run["measured_us"] * 1e3
        metrics[f"baselines.{protocol}_host_txn_per_s"] = run["committed"] / run["measure_s"]
        audit = spawn(
            run_request(
                REFERENCE_WORKLOAD, AUDIT_SEED, 0, scale / 4.0, "history", protocol, history=True
            )
        )
        checks[f"baselines.{protocol}.contract_ok"] = audit["checks"]["contract_ok"]
    return {
        "seed": seed,
        "seconds": seconds,
        "metrics": metrics,
        "matrix": matrix["rows"],
        "checks": checks,
    }

