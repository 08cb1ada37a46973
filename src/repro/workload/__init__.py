"""YCSB-style workload generation.

The paper evaluates every protocol with a YCSB benchmark ported to the
key-value API: update transactions read and write two keys, read-only
transactions read two or more keys, key popularity is uniform (or locality
biased in Figure 7), and clients operate in a closed loop.

* :mod:`repro.workload.distributions` — key-popularity distributions
  (uniform, zipfian) and the locality-biased selector.
* :mod:`repro.workload.profiles` — transaction profiles (which keys are read
  and written by one transaction instance).
* :mod:`repro.workload.ycsb` — the closed-loop client process generator used
  by the harness and the examples.
* :mod:`repro.workload.openloop` — open-loop arrival sources driven by a
  :class:`~repro.traffic.plan.TrafficPlan`, with bounded pending sets and
  explicit overload accounting (drops, queue timeouts, queue depth).
"""
