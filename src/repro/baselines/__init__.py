"""Competitor protocols re-implemented on the same substrate as SSS.

The paper compares SSS against three systems, all re-implemented on the same
software infrastructure for fairness; this package does the same on top of
the simulated substrate:

* :mod:`repro.baselines.twopc` — the 2PC-baseline: every transaction
  (read-only included) validates its reads and commits through two-phase
  commit over a single-version store.  Externally consistent, but read-only
  transactions can abort.
* :mod:`repro.baselines.walter` — Walter: Parallel Snapshot Isolation with
  per-node sequence numbers forming vector timestamps, preferred sites, a
  fast local commit path and asynchronous propagation.  Weaker than
  serializability; read-only transactions never abort and never wait.
* :mod:`repro.baselines.rococo` — ROCOCO: a two-round dependency-collecting
  protocol with deferrable pieces; update transactions never abort, read-only
  transactions use an optimistic two-round snapshot read that retries when a
  concurrent update slips in between the rounds.

Every baseline extends the unified protocol layer — the nodes subclass
:class:`repro.protocols.runtime.ProtocolRuntime`, the clusters subclass
:class:`repro.protocols.cluster.ProtocolCluster`, and
:mod:`repro.protocols.registry` names each one's module — so the benchmark
harness treats all four protocols uniformly through one registry, and a run
of one protocol imports none of the others.
"""
