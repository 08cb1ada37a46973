"""Exception hierarchy for the SSS reproduction.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause.  An
aborted transaction is not an exception: it is a valid outcome of normal
protocol operation, recorded on the transaction's metadata
(``TransactionMeta.abort_reason``), from which the harness classifies abort
causes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class TransactionStateError(ReproError):
    """Raised when a transaction handle is used in an illegal state.

    Examples: issuing a read after :meth:`commit`, writing inside a
    transaction declared read-only, or committing twice.
    """


class NodeCrashedError(ReproError):
    """An operation was interrupted because the serving node crash-stopped.

    Raised into client processes co-located with a crashing node (their
    in-flight RPCs fail) and returned immediately for requests issued while
    the node is down.  The closed-loop clients treat it like an abort and
    reconnect with a back-off, which is what lets availability recover once
    the node restarts.
    """


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation engine."""


class SnapshotRestartError(ReproError):
    """A read-only transaction must restart under a fresh snapshot.

    Raised into the client process when a read is refused as stale (the
    frozen visibility bound hides a version whose writer's client was
    *already answered* — serving would create an exclusion edge with no
    answer-order behind it, the ungated half of a Figure-2 fracture cycle)
    or when the commit-time dependency wait sat too long on writers
    confirmed still in flight (the 4-party wait-cycle breaker).  The
    installed versions cannot move, so the reader is the party that
    restarts.  This is an internal retry signal, not an abort: the workload
    layer re-executes the transaction under a fresh id and snapshot, the
    attempt is not recorded in the history, and the client is answered
    exactly once.
    """

    def __init__(self, txn_id: object | None = None):
        super().__init__(f"read-only transaction {txn_id} restarts with a fresh snapshot")
        self.txn_id = txn_id

