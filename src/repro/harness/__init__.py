"""Experiment harness.

The harness turns a (protocol, cluster configuration, workload) triple into
the numbers the paper reports: committed transactions per second, abort
rates, latency percentiles and the internal/external commit breakdown.

* :mod:`repro.harness.cluster` — the protocol registry under its harness
  names.
* :mod:`repro.harness.runner` — run one experiment (closed-loop clients,
  warm-up, measurement window).
* :mod:`repro.harness.sweep` — independent experiment datapoints fanned out
  across CPU cores, and the saturation search used by Figure 4(a).
* :mod:`repro.harness.metrics` — what a run reports (``ExperimentMetrics``).
* :mod:`repro.harness.streaming` — the one aggregator of every run, over
  exact or sketched sample stores.
* :mod:`repro.harness.sketch` — deterministic mergeable quantile sketches,
  the sample store of ``streaming_metrics=True`` runs.
* :mod:`repro.harness.reporting` — plain-text tables mirroring the paper's
  figures, used by the benchmarks and the examples.
* :mod:`repro.harness.scenario` — one-shot scenario probe returning the
  signal vector and coverage signature consumed by :mod:`repro.search`.
"""
