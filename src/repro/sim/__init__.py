"""Discrete-event simulation engine.

The :mod:`repro.sim` package is the lowest substrate of the reproduction.  It
provides a small but complete discrete-event simulation (DES) kernel:

* :class:`~repro.sim.engine.Simulation` — the event loop and virtual clock.
* :class:`~repro.sim.process.Process` — generator-based cooperative
  processes (protocol handlers, clients) that ``yield`` awaitable primitives.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.AllOf` —
  awaitable primitives.
* :class:`~repro.sim.events.Condition` — a re-evaluated predicate bound to a
  :class:`~repro.sim.events.Signal`, used to express the paper's
  ``wait until <predicate>`` steps.
* :class:`~repro.sim.rng.RngRegistry` — named deterministic random streams.

The engine is deterministic: given the same seed and the same sequence of
process creations, two runs produce identical event orderings.
"""
