"""User-facing transaction handle.

A :class:`Session` represents one client co-located with a node.  Its methods
mirror the paper's transaction model — ``begin``, ``read``, ``write``,
``commit``, ``abort`` — and are driven from inside a simulation process with
``yield from``::

    def workload(session):
        session.begin(read_only=False)
        balance = yield from session.read("account-1")
        session.write("account-1", balance + 10)
        committed = yield from session.commit()

The session enforces the state machine of a transaction (no operations after
commit, no writes in read-only transactions) and keeps the last transaction's
metadata available for inspection (latency, phase timestamps, read/write
sets), which the example programs and the harness rely on.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional

from repro.common.errors import (
    NodeCrashedError,
    SnapshotRestartError,
    TransactionStateError,
)
from repro.core.metadata import TransactionMeta, TransactionPhase

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import SSSNode

#: Test-only planted regression: setting this environment variable reverts
#: the coordinator-crash teardown guard in :meth:`Session._require_open`
#: (the fix for Walter's crash-window double-commit), restoring the historical
#: ``TransactionStateError`` crash.  It exists solely so the scenario
#: searcher's acceptance test can prove it rediscovers a real, once-shipped
#: bug from scratch; nothing outside tests may set it.
PLANTED_REGRESSION_ENV = "REPRO_SEARCH_PLANT_REQUIRE_OPEN_REGRESSION"


class Session:
    """A client session bound to one coordinator node."""

    def __init__(self, node: "SSSNode", client_index: int = 0):
        self.node = node
        self.client_index = client_index
        self.current: Optional[TransactionMeta] = None
        self.completed: List[TransactionMeta] = []
        self.keep_history = True

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.node.node_id

    def begin(self, read_only: bool = False) -> TransactionMeta:
        """Start a new transaction coordinated by this session's node."""
        if self.current is not None:
            raise TransactionStateError("previous transaction still open; commit or abort it first")
        self.current = self.node.begin_transaction(read_only=read_only)
        return self.current

    def read(self, key: object):
        """Read ``key`` inside the open transaction (generator).

        If the session's node crash-stops mid-operation the transaction is
        abandoned (fault plane) and :class:`NodeCrashedError` propagates to
        the client, which may reconnect and begin a fresh transaction.

        A read refused as real-time stale raises
        :class:`SnapshotRestartError`: the transaction has already been
        withdrawn by the coordinator, and the caller should re-execute it
        from ``begin`` — the retry is the same logical client request, so
        read-only transactions still never abort.
        """
        meta = self._require_open()
        try:
            value = yield from self.node.txn_read(meta, key)
        except NodeCrashedError:
            self._abandon(meta)
            raise
        except SnapshotRestartError:
            # The coordinator already marked the withdrawal; just close the
            # session's handle so the caller can begin the retry.
            self._finish(meta)
            raise
        return value

    def write(self, key: object, value: object) -> None:
        """Buffer a write inside the open transaction."""
        meta = self._require_open()
        self.node.txn_write(meta, key, value)

    def commit(self):
        """Commit the open transaction; returns True on commit (generator).

        Raises :class:`SnapshotRestartError` when a read-only transaction is
        withdrawn by the wait-cycle breaker; re-execute it from ``begin``.
        """
        meta = self._require_open()
        try:
            committed = yield from self.node.txn_commit(meta)
        except NodeCrashedError:
            self._abandon(meta)
            raise
        except SnapshotRestartError:
            self._finish(meta)
            raise
        self._finish(meta)
        return committed

    def abort(self) -> None:
        """Abandon the open transaction without contacting other nodes.

        Only legal before ``commit``; buffered writes are dropped and any
        protocol-specific cleanup (e.g. SSS read-only transactions leaving
        snapshot-queue entries behind) is delegated to the node's
        ``txn_abort`` hook so that an abandoned transaction cannot block
        other transactions forever.
        """
        meta = self._require_open()
        self.node.txn_abort(meta)
        self._finish(meta)

    # ------------------------------------------------------------------
    @property
    def last(self) -> Optional[TransactionMeta]:
        """Metadata of the most recently finished transaction."""
        return self.completed[-1] if self.completed else None

    def _require_open(self) -> TransactionMeta:
        if self.current is None:
            raise TransactionStateError("no open transaction; call begin() first")
        meta = self.current
        if (
            meta.phase is TransactionPhase.ABORTED
            and meta.abort_reason == "coordinator-crash"
            and not os.environ.get(PLANTED_REGRESSION_ENV)
        ):
            # The coordinator crash-stopped and tore this transaction down
            # while the client process was suspended on a purely local step
            # (a CPU charge has no network event to fail, unlike a remote
            # request).  Surface the crash as the documented client-visible
            # outcome instead of letting the next operation run against a
            # dead transaction — Walter's local-replica reads hit exactly
            # this window and used to double-commit (TransactionStateError).
            self._abandon(meta)
            raise NodeCrashedError(
                f"node {self.node_id} crashed while {meta.txn_id} was in flight"
            )
        return meta

    def _finish(self, meta: TransactionMeta) -> None:
        self.current = None
        if self.keep_history:
            self.completed.append(meta)
        else:  # keep only the latest to bound memory in long runs
            self.completed = [meta]

    def _abandon(self, meta: TransactionMeta) -> None:
        """Let go of a transaction interrupted by a node crash."""
        self.node.txn_abandon(meta)
        self._finish(meta)
