"""Causal transaction tracing and critical-path analysis.

The trace plane answers the question the aggregate metrics cannot: *why was
this one transaction slow?*  When enabled (``run_experiment(trace=...)``),
every sampled transaction accumulates a causal record — client think/queue
time, coordinator state-machine phases, per-replica RPC rounds, message
send/deliver/handle points (with partition-held and crash-dropped messages
recorded as events), and every blocking wait (locks, commit queues,
ambiguous-writer resolution) with the awaited transaction ids as causal
links.  Crashes, restarts and recovery replay land on per-node tracks.

The plane costs nothing the ledger can resolve when off (instrumented sites
guard on a single ``sim.tracer is not None`` identity check; on, tracing
every transaction costs 1.6–1.8× host time), and the recorder is
*passive* — it never schedules events and never draws from the RNG
registry, so histories and metrics are byte-identical whether tracing is
enabled or not (pinned by ``tests/integration/test_trace_plane.py``).

Modules:

* :mod:`repro.trace.spec` — :class:`TraceSpec`, the sampling knobs;
* :mod:`repro.trace.recorder` — the per-shard recorder and the
  deterministic shard merge (engine-key tags, same pattern as
  ``HistoryRecorder``);
* :mod:`repro.trace.analysis` — per-transaction critical paths and the
  phase-attribution aggregates folded into ``ExperimentMetrics.extra``;
* :mod:`repro.trace.export` — Chrome trace-event / Perfetto JSON;
* :mod:`repro.trace.schema` — structural validator (also a CLI);
* ``python -m repro.trace`` — capture a sampled trace of a small
  experiment (used by the CI benchmark-smoke job).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and workflow.
"""

from repro.trace.analysis import CriticalPath, analyze_trace, attribution_extra
from repro.trace.export import (
    export_chrome_trace,
    render_summary,
    trace_to_bytes,
    write_chrome_trace,
)
from repro.trace.recorder import TraceRecorder, TraceResult, merge_trace_payloads
from repro.trace.spec import TraceSpec

__all__ = [
    "CriticalPath",
    "TraceRecorder",
    "TraceResult",
    "TraceSpec",
    "analyze_trace",
    "attribution_extra",
    "export_chrome_trace",
    "merge_trace_payloads",
    "render_summary",
    "trace_to_bytes",
    "write_chrome_trace",
]
