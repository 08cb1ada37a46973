"""One cheap scenario probe: run, check, and summarize as a signal vector.

:func:`run_scenario` is the scoring primitive of the coverage-guided
scenario searcher (:mod:`repro.search`): it runs one (protocol, config,
workload) combination for a tiny duration with full history recording,
runs the protocol's own contract checks, and collapses everything the
fault/traffic planes can reveal into three deterministic artifacts:

* a **signal vector** — a flat ``{name: float}`` dict of the quantities a
  scenario can get wrong (contract violations, stalled clients, quiescence
  leaks, commit-gap stalls, availability dips, shed load, latency
  inflection);
* a **coverage signature** — a sorted tuple of discrete atoms naming which
  code paths and plan-shape combinations the run exercised (protocol
  counters with log2 magnitude buckets, fault x traffic phase combinations,
  cluster shape), which is what lets a corpus judge "did this mutant reach
  anything new?";
* a **failure list** — the categories in which the run violated its
  contract (``consistency``, ``stall``, ``leak``, ``readonly-abort``, or
  ``exception:<Type>`` when the run itself crashed).

Determinism is part of the contract: the same inputs produce the identical
outcome object across processes and ``PYTHONHASHSEED`` values (pinned by
``tests/integration/test_search_end_to_end.py``), which is what makes repro
bundles replayable and corpus decisions stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.config import ClusterConfig, WorkloadConfig
from repro.common.errors import ConfigurationError

#: Failure categories a scenario run can report (exceptions are reported as
#: ``exception:<RootType>`` and are open-ended).
FAILURE_CATEGORIES = ("consistency", "stall", "leak", "readonly-abort")

#: A commit gap only counts as a stall once it exceeds all of: an absolute
#: floor, a fraction of the run, and a multiple of the run's own mean commit
#: spacing (so low-rate open-loop scenarios do not alarm on Poisson gaps).
STALL_GAP_FLOOR_US = 10_000.0
STALL_GAP_RUN_FRACTION = 0.35
STALL_GAP_MEAN_MULTIPLE = 20.0

#: Grace window after a fault heals before a commit gap starts counting as
#: "excess": recovery from a drop-mode partition legitimately waits out the
#: fault-mode fallback timer (see BENCH_recovery), so a gap is only a stall
#: signal where it is *not* explained by an active fault or its direct
#: aftermath.
FAULT_GRACE_US = 5_000.0


@dataclass(frozen=True)
class ScenarioOutcome:
    """Everything the searcher needs to know about one scenario run."""

    signal: Dict[str, float] = field(default_factory=dict)
    coverage: Tuple[str, ...] = ()
    failures: Tuple[str, ...] = ()
    failure_detail: Tuple[str, ...] = ()
    error: Optional[str] = None
    #: Merged :class:`~repro.trace.recorder.TraceResult` when the scenario
    #: was run with tracing (replay ``--trace``); excluded from ``as_dict``
    #: and from equality, so traced and untraced outcomes stay comparable.
    trace: Optional[object] = field(default=None, compare=False)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def score(self) -> float:
        """Scalar severity used for corpus "raise signal" retention."""
        signal = self.signal
        return (
            100.0 * signal.get("consistency_violations", 0.0)
            + 100.0 * (1.0 if self.error else 0.0)
            + 20.0 * signal.get("stalled_clients", 0.0)
            + 20.0 * signal.get("quiescence_leaked_writers", 0.0)
            + 20.0 * signal.get("quiescence_commit_queue", 0.0)
            + 10.0 * signal.get("readonly_aborts", 0.0)
            + signal.get("excess_commit_gap_us", 0.0) / 1_000.0
            + signal.get("p99_over_p50", 0.0)
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "signal": {key: self.signal[key] for key in sorted(self.signal)},
            "coverage": list(self.coverage),
            "failures": list(self.failures),
            "failure_detail": list(self.failure_detail),
            "error": self.error,
        }


def _root_cause(exc: BaseException) -> BaseException:
    seen = set()
    while exc.__cause__ is not None and id(exc) not in seen:
        seen.add(id(exc))
        exc = exc.__cause__
    return exc


def _log2_bucket(value: int) -> int:
    return value.bit_length() if value > 0 else 0


def _fault_windows(config: ClusterConfig, horizon_us: float) -> List[Tuple[float, float]]:
    """Active fault windows (with recovery grace) of a run, merged."""
    raw = sorted(
        (fault.at_us, fault.end_us(horizon_us) + FAULT_GRACE_US)
        for fault in config.faults.faults
    )
    merged: List[Tuple[float, float]] = []
    for start, end in raw:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _excess_gap(start: float, end: float, windows: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end)`` not covered by any fault window."""
    excess = end - start
    for w_start, w_end in windows:
        overlap = min(end, w_end) - max(start, w_start)
        if overlap > 0:
            excess -= overlap
    return max(excess, 0.0)


def _phase_combo_atoms(phases) -> List[str]:
    """``combo:<traffic-kind>|<fault-kinds>`` atoms from exercised phases.

    Phase labels look like ``p2:poisson@6000|crash`` (traffic + fault),
    ``p1:crash`` (fault only) or ``t0:burst@1000..6000`` (traffic only);
    rates and indices are stripped so the atom names the *shape*, not the
    numbers.
    """
    atoms = set()
    for phase in phases:
        label = phase.get("label", "")
        if ":" not in label:
            continue
        body = label.split(":", 1)[1]
        if "|" in body:
            scenario, fault_part = body.split("|", 1)
        elif body and body[0].isalpha() and "@" not in body and "[" not in body:
            scenario, fault_part = "", body
        else:
            scenario, fault_part = body, ""
        scenario_kind = scenario.split("@", 1)[0].split("[", 1)[0]
        atoms.add(f"combo:{scenario_kind or 'closed'}|{fault_part or 'fail-free'}")
    return sorted(atoms)


def run_scenario(
    protocol: str,
    config: ClusterConfig,
    workload: WorkloadConfig,
    duration_us: float = 20_000.0,
    drain_us: float = 30_000.0,
    trace=None,
) -> ScenarioOutcome:
    """Run one scenario and reduce it to signal + coverage + failures.

    Runs with ``warmup_us=0`` (the searcher cares about transients, not
    steady state), full history recording (the weaker protocols' contract
    checks need it; scenario durations are tiny so memory is bounded by
    construction), and an explicit drain so stalls and leaks are visible.
    A run that raises is itself a failure — the root cause type becomes an
    ``exception:<Type>`` category instead of propagating.

    ``trace`` enables the causal-tracing plane for the run
    (``run_experiment(trace=...)`` semantics); the merged trace rides on
    ``outcome.trace``.  The recorder is passive, so signal vectors and
    coverage are byte-identical with tracing on or off.
    """
    from repro.harness.runner import run_experiment

    try:
        result = run_experiment(
            protocol,
            config,
            workload,
            duration_us=duration_us,
            warmup_us=0.0,
            record_history=True,
            keep_cluster=True,
            drain_us=drain_us,
            trace=trace,
        )
    except ConfigurationError:
        # An invalid scenario is the caller's bug, not a finding.
        raise
    except Exception as exc:  # noqa: BLE001 - crashing runs are the signal
        root = _root_cause(exc)
        category = f"exception:{type(root).__name__}"
        return ScenarioOutcome(
            signal={"run_crashed": 1.0},
            coverage=(category, f"proto:{protocol}"),
            failures=(category,),
            failure_detail=(f"{type(root).__name__}: {root}",),
            error=f"{type(root).__name__}: {root}",
        )

    metrics = result.metrics
    cluster = result.cluster
    checks = cluster.check_contract()
    if any(fault.kind == "crash" and fault.duration_us is None for fault in config.faults.faults):
        # A replica that never restarts cannot converge with its peers.
        checks = [check for check in checks if check.name != "walter-replica-convergence"]
    violations = sum(len(check.violations) for check in checks)

    history = cluster.history
    commit_times = sorted(
        txn.external_commit_time
        for txn in history.committed
        if txn.external_commit_time is not None
    )
    # Gaps are measured while load is offered: until the last traffic
    # phase's ``until`` (capped at ``duration_us``; closed-loop clients stop
    # issuing at ``duration_us``), so silence after it — the drain tail, or
    # an open-loop plan that ended early — is expected, not a stall.  A
    # commit completing later still closes the gap open at that instant.
    phases = config.traffic.phases if config.traffic else ()
    load_end = duration_us
    if phases and phases[-1].until_us is not None:
        load_end = min(phases[-1].until_us, duration_us)
    windows = _fault_windows(config, duration_us)
    max_gap = 0.0
    excess_gap = 0.0
    if commit_times:
        edges = commit_times + [max(load_end, commit_times[-1])]
        for start, end in zip(edges, edges[1:]):
            if start >= load_end:
                break
            end = min(end, load_end)
            max_gap = max(max_gap, end - start)
            excess_gap = max(excess_gap, _excess_gap(start, end, windows))
    else:
        max_gap = excess_gap = load_end
    committed = len(commit_times)
    mean_gap = (
        (commit_times[-1] - commit_times[0]) / (committed - 1)
        if committed > 1
        else duration_us
    )
    stall_threshold = max(
        STALL_GAP_FLOOR_US,
        STALL_GAP_RUN_FRACTION * duration_us,
        STALL_GAP_MEAN_MULTIPLE * mean_gap,
    )

    readonly_aborts = 0
    if protocol == "sss":
        # SSS's headline promise: read-only transactions never abort (the
        # wait-cycle breaker restarts them invisibly instead).
        readonly_aborts = sum(1 for txn in history.aborted if not txn.is_update)

    stalled = metrics.extra.get("stalled_clients", 0.0)
    leaked_writers = metrics.extra.get("quiescence_leaked_writers", 0.0)
    leaked_queue = metrics.extra.get("quiescence_commit_queue", 0.0)
    latency = metrics.latency
    p99_over_p50 = (
        latency.p99_us / latency.p50_us if latency.p50_us > 0 else 0.0
    )

    signal: Dict[str, float] = {
        "committed": float(metrics.committed),
        "aborted": float(metrics.aborted),
        "abort_rate": round(metrics.abort_rate, 6),
        "consistency_violations": float(violations),
        "stalled_clients": float(stalled),
        "quiescence_leaked_writers": float(leaked_writers),
        "quiescence_commit_queue": float(leaked_queue),
        "readonly_aborts": float(readonly_aborts),
        "max_commit_gap_us": round(max_gap, 3),
        "excess_commit_gap_us": round(excess_gap, 3),
        "stall_threshold_us": round(stall_threshold, 3),
        "p50_us": round(latency.p50_us, 3),
        "p99_us": round(latency.p99_us, 3),
        "p99_over_p50": round(p99_over_p50, 4),
        "run_crashed": 0.0,
    }
    availability_min = metrics.extra.get("availability_min")
    if availability_min is not None:
        signal["availability_min"] = float(availability_min)
    for name in ("offered", "dropped", "timed_out"):
        value = metrics.extra.get(name)
        if value is not None:
            signal[name] = float(value)

    failures: List[str] = []
    detail: List[str] = []
    if violations:
        failures.append("consistency")
        detail.extend(
            f"{check.name}: {violation}"
            for check in checks
            for violation in check.violations[:3]
        )
    # Nothing committed is a stall unless nothing was offered either: an
    # open-loop plan can draw no arrival at all (closed-loop clients always
    # offer, and report no count).
    starved = committed == 0 and metrics.extra.get("offered", 1) > 0
    is_stalled = stalled > 0 or starved or excess_gap >= stall_threshold
    if is_stalled:
        failures.append("stall")
        detail.append(
            f"stalled_clients={stalled:g} committed={committed} "
            f"excess_gap={excess_gap:.0f}us (threshold {stall_threshold:.0f}us)"
        )
    if leaked_writers > 0 or leaked_queue > 0:
        failures.append("leak")
        detail.append(
            f"quiescence_leaked_writers={leaked_writers:g} "
            f"quiescence_commit_queue={leaked_queue:g}"
        )
    if readonly_aborts:
        failures.append("readonly-abort")
        detail.append(f"readonly_aborts={readonly_aborts}")

    atoms = {
        f"proto:{protocol}",
        f"shape:n{config.n_nodes}:rf{config.replication_degree}",
    }
    fault_kinds = {fault.kind for fault in config.faults.faults}
    if fault_kinds:
        atoms.update(f"fault:{kind}" for kind in fault_kinds)
    else:
        atoms.add("fault:none")
    if config.traffic:
        atoms.update(f"traffic:{phase.arrival.kind}" for phase in config.traffic.phases)
    else:
        atoms.add("traffic:closed")
    atoms.update(_phase_combo_atoms(metrics.phases))
    for name, value in sorted(result.node_counters.items()):
        if value > 0:
            atoms.add(f"counter:{name}:{_log2_bucket(int(value))}")
    atoms.update(f"verdict:{category}" for category in failures)

    return ScenarioOutcome(
        signal=signal,
        coverage=tuple(sorted(atoms)),
        failures=tuple(failures),
        failure_detail=tuple(detail),
        error=None,
        trace=result.trace,
    )


def stall_gap_threshold_us(duration_us: float, mean_gap_us: float) -> float:
    """The stall decision rule, exposed for tests and docs."""
    return max(
        STALL_GAP_FLOOR_US,
        STALL_GAP_RUN_FRACTION * duration_us,
        STALL_GAP_MEAN_MULTIPLE * mean_gap_us,
    )
