"""The unified protocol layer.

This package is what the four protocol implementations (SSS and the three
competitors it is evaluated against) share:

* :mod:`repro.protocols.runtime` — :class:`ProtocolRuntime`, the node base
  class owning message dispatch, the per-transaction state machine, replica
  fan-out, vote collection and the crash/restart fault hooks.
* :mod:`repro.protocols.rounds` — the RPC rounds :class:`ProtocolRuntime`
  inherits: :class:`RoundRequests` plus ``redrive``, and
  :class:`VoteCollector`.
* :mod:`repro.protocols.cluster` — :class:`ProtocolCluster`, the shared
  cluster facade (sessions, client processes, history, consistency checks,
  fault-plan installation).
* :mod:`repro.protocols.registry` — the single name -> cluster-factory
  :data:`~repro.protocols.registry.REGISTRY` used by the harness, the
  benchmarks and the examples; :func:`build_cluster` imports the module of
  the protocol it builds and no other.
* :mod:`repro.protocols.faults` — binds a declarative
  :class:`~repro.common.config.FaultPlan` to a running cluster.
"""

from repro import lazy_exports

_EXPORTS = {
    "build_cluster": "repro.protocols.registry",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
