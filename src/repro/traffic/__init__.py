"""The traffic plane: open-loop load generation and scenario scheduling.

The paper's harness (and PRs 1-4 of this reproduction) only ever drove the
cluster **closed-loop**: each client issues its next transaction when the
previous one answers, so the system self-throttles and the only reachable
operating point is saturation.  This package decouples arrivals from
completions:

* :mod:`repro.traffic.arrivals` — rate schedules (constant, ramp, on/off
  burst, piecewise/diurnal) and the two sampling disciplines
  (deterministic spacing, non-homogeneous Poisson via exact time warping),
  all driven by named :class:`~repro.sim.rng.RngRegistry` streams so runs
  stay byte-deterministic;
* :mod:`repro.traffic.plan` — the declarative :class:`TrafficPlan`
  scenario DSL carried by :class:`~repro.common.config.ClusterConfig`, on
  exact parity with the fault plane's ``FaultPlan`` (compact strings,
  validation, pickling, per-phase windows), including per-phase
  workload-mix overrides (shift the read-only share or move hot keys
  mid-run).

The open-loop client that consumes these plans lives in
:mod:`repro.workload.openloop`; the time-resolved metrics they feed live
in :mod:`repro.harness.metrics`.
"""

from repro import lazy_exports

_EXPORTS = {
    "ArrivalProcess": "repro.traffic.arrivals",
    "BurstArrivals": "repro.traffic.plan",
    "ConstArrivals": "repro.traffic.plan",
    "PiecewiseArrivals": "repro.traffic.plan",
    "PoissonArrivals": "repro.traffic.plan",
    "RampArrivals": "repro.traffic.plan",
    "TrafficPhase": "repro.traffic.plan",
    "TrafficPlan": "repro.traffic.plan",
    "burst_schedule": "repro.traffic.arrivals",
    "constant_schedule": "repro.traffic.arrivals",
    "piecewise_schedule": "repro.traffic.arrivals",
    "ramp_schedule": "repro.traffic.arrivals",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
