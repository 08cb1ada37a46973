"""Sweeps: independent experiment datapoints fanned out across CPU cores
(:func:`run_points`), and the Figure 4(a) saturation search.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.common.config import ClusterConfig, WorkloadConfig
from repro.harness.runner import ExperimentResult, run_experiment


@dataclass(frozen=True)
class ExperimentPoint:
    """One picklable datapoint of a sweep, for :func:`run_points`."""

    protocol: str
    config: ClusterConfig
    workload: WorkloadConfig
    duration_us: float = 200_000.0
    warmup_us: float = 40_000.0
    label: object = None
    """Opaque tag (figure coordinates, sweep indices) echoed with the result."""
    record_history: object = False
    """History plane for the point (``run_experiment`` semantics).  When
    truthy the worker additionally runs the protocol's contract checks
    in-process — clusters cannot cross the process boundary, so the verdict
    travels back in ``metrics.extra`` (``consistency_ok`` /
    ``consistency_violations``)."""
    drain_us: Optional[float] = None
    streaming_metrics: bool = False


def _run_point_worker(point: ExperimentPoint) -> Tuple[object, ExperimentResult]:
    """Module-level worker so ProcessPoolExecutor can pickle it."""
    record_history = point.record_history
    result = run_experiment(
        point.protocol,
        point.config,
        point.workload,
        duration_us=point.duration_us,
        warmup_us=point.warmup_us,
        record_history=record_history,
        keep_cluster=bool(record_history),
        drain_us=point.drain_us,
        streaming_metrics=point.streaming_metrics,
    )
    if record_history and result.cluster is not None:
        checks = result.cluster.check_contract()
        violations = sum(len(check.violations) for check in checks)
        result.metrics.extra["consistency_ok"] = float(all(check.ok for check in checks))
        result.metrics.extra["consistency_violations"] = float(violations)
        if violations:
            detail = "; ".join(
                f"{check.name}: {check.violations[0]}"
                for check in checks
                if check.violations
            )
            result.metrics.extra["consistency_detail"] = detail  # type: ignore[assignment]
        # The cluster cannot cross the process boundary back to the parent.
        result.cluster = None
    return point.label, result


def default_parallelism() -> int:
    """Worker count for parallel sweeps.

    ``REPRO_BENCH_PARALLEL`` overrides the default (``0``/``1`` disables
    parallelism, ``N`` uses N workers); otherwise all-but-one CPU is used so
    the host stays responsive.
    """
    raw = os.environ.get("REPRO_BENCH_PARALLEL")
    if raw is not None and raw.strip():
        return max(1, int(raw))
    return max(1, (os.cpu_count() or 2) - 1)


def run_points(
    points: Sequence[ExperimentPoint],
    max_workers: Optional[int] = None,
) -> List[Tuple[object, ExperimentResult]]:
    """Run independent experiment datapoints, fanned out across CPU cores.

    Every datapoint is an isolated simulation with its own seed, so the
    results are byte-identical to a serial run regardless of scheduling;
    only wall-clock time changes.  Results are returned in input order.
    With one worker (or a single point) everything runs in-process, which
    keeps debugging and profiling simple.
    """
    if max_workers is None:
        max_workers = default_parallelism()
    max_workers = min(max_workers, len(points)) or 1
    if max_workers <= 1 or len(points) <= 1:
        return [_run_point_worker(point) for point in points]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_run_point_worker, points))


def find_saturation_throughput(
    protocol: str,
    config: ClusterConfig,
    workload: WorkloadConfig,
    client_counts: Sequence[int] = (1, 3, 5, 10, 15),
    duration_us: float = 200_000.0,
    warmup_us: float = 40_000.0,
    max_workers: Optional[int] = None,
    **kwargs,
) -> ExperimentResult:
    """Figure 4(a): best throughput over a sweep of clients per node.

    Each client count is an independent simulation, so the sweep fans out
    across CPU cores via :func:`run_points`; results (including which
    count wins, ties broken toward the earliest count in ``client_counts``)
    are identical to the historical serial loop.  Extra ``run_experiment``
    keyword arguments force the serial path, since the parallel points
    cannot carry them.
    """
    if kwargs:
        results = [
            (
                clients,
                run_experiment(
                    protocol,
                    replace(config, clients_per_node=clients),
                    workload,
                    duration_us=duration_us,
                    warmup_us=warmup_us,
                    **kwargs,
                ),
            )
            for clients in client_counts
        ]
    else:
        points = [
            ExperimentPoint(
                protocol=protocol,
                config=replace(config, clients_per_node=clients),
                workload=workload,
                duration_us=duration_us,
                warmup_us=warmup_us,
                label=clients,
            )
            for clients in client_counts
        ]
        results = run_points(points, max_workers=max_workers)
    best: Optional[ExperimentResult] = None
    for _clients, result in results:
        if best is None or result.throughput_ktps > best.throughput_ktps:
            best = result
    assert best is not None
    best.metrics.extra["saturation_clients_per_node"] = float(best.config.clients_per_node)
    return best
