"""The SSS concurrency control — the paper's primary contribution.

The package implements Algorithms 1-6 of the paper on top of the simulated
substrate:

* :mod:`repro.core.metadata` — per-transaction metadata (``T.VC``,
  ``T.hasRead``, read/write sets, ``PropagatedSet``, phase timestamps).
* :mod:`repro.core.messages` — the protocol's wire messages (ReadRequest /
  ReadReturn, Prepare / Vote / Decide, Ack, Remove).
* :mod:`repro.core.node` — :class:`SSSNode`, one protocol node, assembled
  from :mod:`~repro.core.read_path` (version selection, Algorithm 6),
  :mod:`~repro.core.ambiguous` (the ambiguous zone),
  :mod:`~repro.core.commit_path` (2PC participant logic and
  pre-commit / external-commit handling, Algorithms 2-4, and Remove
  propagation) and :mod:`~repro.core.recovery`.
* :mod:`repro.core.coordinator` — client-side transaction execution at the
  coordinator (Algorithm 5 reads, Algorithm 1 commit).
* :mod:`repro.core.session` — the user-facing transaction handle.
* :mod:`repro.core.cluster` — :class:`SSSCluster`, the public facade that
  assembles a simulated cluster and runs transactions against it.
"""
