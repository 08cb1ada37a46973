"""Coverage-guided scenario search over the fault x traffic product space.

The four protocol reproductions share one scenario language — a
:class:`~repro.common.config.ClusterConfig` with a declarative
:class:`~repro.common.config.FaultPlan` and
:class:`~repro.traffic.plan.TrafficPlan` — and the harness can already
judge any single run (contract checks, stall detection, quiescence
audits; :mod:`repro.harness.scenario`).  This package closes the loop: it
*searches* that scenario space the way a fuzzer searches an input space.

* :mod:`repro.search.genome` — :class:`ScenarioGenome`, the serializable
  unit of search: protocol + cluster knobs + fault/traffic plan strings.
* :mod:`repro.search.mutators` — structure-aware mutations that always
  produce genomes the real DSL parsers accept.
* :mod:`repro.search.scoring` — run a genome through the harness and keep
  its :class:`~repro.harness.scenario.ScenarioOutcome`.
* :mod:`repro.search.corpus` — retain genomes that add coverage atoms or
  raise the severity score for an atom they already cover.
* :mod:`repro.search.minimize` — ddmin over plan phases plus field-level
  shrinking, turning a failing genome into a minimal repro.
* :mod:`repro.search.driver` — the deterministic search loop and repro
  bundle writer behind ``python -m repro.search``.
* :mod:`repro.search.replay` — ``python -m repro.search.replay
  bundle.json`` re-runs a minimized bundle and verifies the finding.

Everything is deterministic given ``--search-seed``: genomes carry their
simulation seeds, the driver's randomness comes from one
``random.Random``, and scoring never consults wall-clock state.
"""
