"""History recording and consistency checking.

The paper argues correctness (Section IV) by showing that the Direct
Serialization Graph (DSG) of every executed history — extended with edges for
the order in which transactions return to their clients — is acyclic.  This
package makes that argument mechanically checkable on the histories produced
by the simulated clusters:

* :class:`~repro.consistency.history.HistoryRecorder` — collects committed
  and aborted transactions with their read/write sets, version identities and
  external-commit timestamps.
* :mod:`repro.consistency.dsg` — builds the DSG (wr / ww / rw dependency
  edges plus real-time order edges) and searches it for a cycle.
* :mod:`repro.consistency.checkers` — external consistency, serializability
  and snapshot-isolation style checks used by tests, property tests and the
  ``consistency_audit`` example.
* :mod:`repro.consistency.window` — the windowed/online variant: the same
  checks run epoch by epoch as the run progresses, with closed epochs
  discarded so memory stays bounded (the post-hoc checkers above remain
  the golden oracle).
"""

from repro.consistency.checkers import (
    CheckResult,
    check_committed_reads,
    check_external_consistency,
    check_serializability,
    check_snapshot_reads,
)
from repro.consistency.dsg import DependencyEdge, build_dsg
from repro.consistency.history import CommittedTransaction, HistoryRecorder
from repro.consistency.window import (
    WindowedConsistencyChecker,
    WindowedHistoryRecorder,
    default_retention_us,
)

__all__ = [
    "CheckResult",
    "CommittedTransaction",
    "DependencyEdge",
    "HistoryRecorder",
    "WindowedConsistencyChecker",
    "WindowedHistoryRecorder",
    "build_dsg",
    "check_committed_reads",
    "check_external_consistency",
    "check_serializability",
    "check_snapshot_reads",
    "default_retention_us",
]
