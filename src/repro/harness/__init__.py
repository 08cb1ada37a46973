"""Experiment harness.

The harness turns a (protocol, cluster configuration, workload) triple into
the numbers the paper reports: committed transactions per second, abort
rates, latency percentiles and the internal/external commit breakdown.

* :mod:`repro.harness.cluster` — protocol registry and cluster builder.
* :mod:`repro.harness.runner` — run one experiment (closed-loop clients,
  warm-up, measurement window) and the saturation search used by Figure 4(a).
* :mod:`repro.harness.metrics` — aggregation of client statistics.
* :mod:`repro.harness.sketch` — deterministic mergeable quantile sketches.
* :mod:`repro.harness.streaming` — online aggregation for open-loop runs
  (bounded memory at heavy traffic).
* :mod:`repro.harness.reporting` — plain-text tables mirroring the paper's
  figures, used by the benchmarks and EXPERIMENTS.md.
* :mod:`repro.harness.scenario` — one-shot scenario probe returning the
  signal vector and coverage signature consumed by :mod:`repro.search`.
"""

from repro.harness.cluster import PROTOCOLS, build_cluster
from repro.harness.metrics import ExperimentMetrics, LatencySummary
from repro.harness.runner import ExperimentResult, run_experiment, find_saturation_throughput
from repro.harness.reporting import format_series, format_table
from repro.harness.scenario import ScenarioOutcome, run_scenario
from repro.harness.sketch import QuantileSketch
from repro.harness.streaming import StreamingAccumulator

__all__ = [
    "ExperimentMetrics",
    "ExperimentResult",
    "LatencySummary",
    "PROTOCOLS",
    "QuantileSketch",
    "ScenarioOutcome",
    "StreamingAccumulator",
    "build_cluster",
    "find_saturation_throughput",
    "format_series",
    "format_table",
    "run_experiment",
    "run_scenario",
]
