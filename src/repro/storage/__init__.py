"""Per-node storage substrate.

Everything one node keeps on its data plane lives here:

* :class:`~repro.storage.version.Version` and
  :class:`~repro.storage.version.VersionChain` — multi-versioned values,
  each version tagged with the commit vector clock of its writer.
* :class:`~repro.storage.mvstore.MultiVersionStore` — the per-node key space
  (version chains plus per-key snapshot queues).
* :class:`~repro.storage.snapshot_queue.SnapshotQueue` — the paper's
  ``SQueue``, split into read-only and update sub-queues as described in the
  evaluation section.
* :class:`~repro.storage.locks.LockTable` — per-key shared/exclusive locks
  with acquisition timeouts (the paper uses a 1 ms timeout to avoid
  deadlocks during 2PC prepare).
* :class:`~repro.storage.nlog.NLog` — the per-node ordered log of commit
  vector clocks, exposing ``most_recent_vc`` and visible-snapshot queries.
* :class:`~repro.storage.commit_queue.CommitQueue` — the paper's
  ``CommitQ`` ordering internally-committing transactions by their commit
  vector clock entry for this node, and the SSS write replica's durable
  :class:`~repro.storage.commit_queue.RedoLog` of votes it is rebuilt from.
* :mod:`~repro.storage.durable_log` — the two crash-consistency logs that
  hide an algorithm: ROCOCO's order-fenced
  :class:`~repro.storage.durable_log.PieceRedoLog` and Walter's
  ack-watermarked :class:`~repro.storage.durable_log.PropagationLog`.
"""
