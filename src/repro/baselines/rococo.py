"""ROCOCO — a two-round, dependency-collecting external-consistent protocol.

ROCOCO (Mu et al., OSDI 2014) splits each transaction into *pieces*, one per
accessed key, and runs two rounds:

1. **Dispatch round** — the coordinator ships every piece to the server
   owning its key.  The server buffers the piece, records the transaction in
   the key's pending list and replies with the set of transactions currently
   pending on that key (the observed dependencies).
2. **Commit round** — the coordinator aggregates the dependency information,
   assigns the transaction its position in the execution order and asks every
   involved server to execute.  A server executes the buffered piece only
   after every pending transaction ordered before it has executed on that key
   (deferrable pieces are thereby reordered instead of aborted), then replies
   with the read value.  Update transactions therefore never abort.

Read-only transactions are *not* abort-free in ROCOCO: the reproduction
implements them, following the paper's description ("its read-only are not
abort-free and they need to wait for all conflicting update transactions in
order to execute"), as an optimistic two-round snapshot read — each key is
read once per round, a read waits while update pieces are pending on the key,
and the transaction aborts (and is retried by the client) whenever a key's
version changed between the two rounds.  The abort probability therefore
grows with the number of keys read, which is what produces the Figure 8
trend.

The paper disables replication when comparing against ROCOCO; this
implementation accordingly routes every piece to the key's primary replica.

Every run is crash-consistent: a durable per-server piece table
(:class:`repro.storage.durable_log.PieceRedoLog`) holds the dispatched,
unexecuted pieces — the buffer the execution waits read — with the order
force-written before the execute-round reply, and keeps the reply of every
executed piece, which answers a duplicate commit.  A restart replays the
ordered, unexecuted pieces in order, and an **order fence** refuses any
piece ordered below the key's executed frontier.  A coordinator that
crashed after assigning an order re-runs the commit round on restart so the
decided writes are all-or-nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import TransactionStateError
from repro.common.ids import TransactionId
from repro.core.metadata import TransactionMeta, TransactionPhase
from repro.network.message import Message, MessagePriority
from repro.protocols.cluster import ProtocolCluster
from repro.protocols.rounds import RoundRequests
from repro.protocols.runtime import ProtocolRuntime
from repro.storage.durable_log import PieceRecord, PieceRedoLog


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
class PieceDispatch(Message):
    """Round 1: buffer a piece and collect dependencies."""

    __slots__ = ("txn_id", "key", "is_write", "write_value")
    priority = MessagePriority.COMMIT
    base_size = 56

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        is_write: bool = False,
        write_value: object = None,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.is_write = is_write
        self.write_value = write_value


class PieceDispatchReply(Message):
    __slots__ = ("txn_id", "key", "deps")
    priority = MessagePriority.COMMIT
    base_size = 40

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        deps: Tuple[TransactionId, ...] = (),
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.deps = deps

    def size_estimate(self) -> int:
        return 40 + 16 * len(self.deps)


class PieceCommit(Message):
    """Round 2: execute the buffered piece in dependency order.

    The piece payload (``is_write`` / ``write_value``) rides along, so a
    server whose table does not hold the piece logs it from the commit
    instead of degrading the write to a read.
    """

    __slots__ = ("txn_id", "key", "order", "is_write", "write_value")
    priority = MessagePriority.COMMIT
    base_size = 56

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        order: float = 0.0,
        is_write: bool = False,
        write_value: object = None,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.order = order
        self.is_write = is_write
        self.write_value = write_value


class PieceExecuted(Message):
    __slots__ = ("txn_id", "key", "value", "version", "writer")
    priority = MessagePriority.CONTROL
    base_size = 56

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        value: object = None,
        version: int = 0,
        writer: Optional[TransactionId] = None,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.value = value
        self.version = version
        self.writer = writer


class PieceAbort(Message):
    """Fault-plane recovery: withdraw a dispatched-but-uncommitted piece.

    Sent by a restarted coordinator for transactions that crashed between
    their dispatch and commit rounds.  Only pieces that never received an
    execution order are withdrawn — an ordered piece will execute and clean
    itself up (its writes were decided atomically across all keys).
    """

    __slots__ = ("txn_id", "key")
    priority = MessagePriority.CONTROL
    base_size = 48

    def __init__(self, txn_id: TransactionId = None, key: object = None):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key


class SnapshotRead(Message):
    """Read-only transactions: one round of key reads."""

    __slots__ = ("txn_id", "key", "wait_for_pending")
    priority = MessagePriority.READ
    base_size = 40

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        wait_for_pending: bool = True,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.wait_for_pending = wait_for_pending


class SnapshotReadReturn(Message):
    __slots__ = ("txn_id", "key", "value", "version", "writer")
    priority = MessagePriority.READ
    base_size = 56

    def __init__(
        self,
        txn_id: TransactionId = None,
        key: object = None,
        value: object = None,
        version: int = 0,
        writer: Optional[TransactionId] = None,
    ):
        Message.__init__(self)
        self.txn_id = txn_id
        self.key = key
        self.value = value
        self.version = version
        self.writer = writer


@dataclass
class _RococoKey:
    """Server-side state of one key."""

    value: object = 0
    version: int = 0
    writer: Optional[TransactionId] = None


class RococoNode(ProtocolRuntime):
    """One node of the ROCOCO store.

    Everything it keeps is durable: the executed key states
    (value/version/writer), the piece table and the coordinator's
    crash-completion entries.
    """

    _DURABLE = ("_data", "redo", "_crash_completions", "_progress")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._data: Dict[object, _RococoKey] = {}
        # The piece table: per key the dispatched, unexecuted pieces, and
        # the reply of every executed one.  The payload is force-written at
        # dispatch, the assigned order before the execute reply, and the
        # execution advances the per-key order frontier — the order fence.
        # The replies grow with the committed transactions of a run, like
        # the other recovery indexes.
        self.redo = PieceRedoLog()
        # Order assignments (with the metadata) of transactions this node
        # coordinated whose commit round a crash cut short.  The restart
        # re-runs the round so the decided writes land on every key.
        self._crash_completions: Dict[TransactionId, Tuple[float, TransactionMeta]] = {}
        self.register_handler(PieceDispatch, self.on_dispatch)
        self.register_handler(PieceCommit, self.on_commit)
        self.register_handler(PieceAbort, self.on_piece_abort)
        self.register_handler(SnapshotRead, self.on_snapshot_read)
        # Signal notified whenever a pending set or a key version changes.
        self._progress = self.sim.signal(name=f"rococo-progress@{self.node_id}")

    # ------------------------------------------------------------------
    def preload(self, keys, initial_value=0) -> None:
        for key in keys:
            if self.primary(key) == self.node_id:
                self._data[key] = _RococoKey(value=initial_value)

    # ------------------------------------------------------------------
    # Fault plane
    # ------------------------------------------------------------------
    def on_restart(self, torn_down) -> None:
        """Replay the piece table, then recover coordinated transactions.

        Server side first: every ordered, unexecuted piece is replayed in
        order by a background process (the table kept every piece the crash
        cut short, so the ``ready()`` waits and the order fence see them).
        Coordinator side: an update transaction that crashed *after* its
        order was assigned (``meta.version_hints`` is force-written with the
        order) had its outcome decided — the restart re-runs its commit
        round so no key keeps a partial write; one that crashed *before* is
        withdrawn with ``PieceAbort`` (an unordered piece buffered at an
        alive server would otherwise block every later piece on its key,
        waiting for an order that will never come).
        """
        for record in self.redo.replay_order():
            # Nobody waits for the reply: the coordinator's re-sent commit
            # collects it from the table.
            self.counters["pieces_replayed"] += 1
            self.spawn_process(
                self._run_piece(record), name=f"rococo-replay:{record.txn_id}"
            )
        for meta, crash_phase in torn_down:
            txn_id = meta.txn_id
            if crash_phase is not TransactionPhase.PREPARING or meta.is_read_only:
                continue  # read-only rounds buffer no pieces
            self.counters["crash_recoveries"] += 1
            if meta.version_hints:
                # The order was assigned (force-written with version_hints)
                # before the crash: the outcome is decided, finish the
                # commit round instead of tearing the writes.
                order = next(iter(meta.version_hints.values()))
                self._crash_completions[txn_id] = (order, meta)
                continue
            for key in sorted(set(meta.read_set) | set(meta.write_set), key=repr):
                primary = self.primary(key)
                if primary != self.node_id:
                    self.channel.send(primary, PieceAbort(txn_id=txn_id, key=key))
                else:
                    self._withdraw(key, txn_id)
        for txn_id in sorted(self._crash_completions):
            self.spawn_process(
                self._complete_crashed_commit(txn_id),
                name=f"rococo-complete:{txn_id}",
            )

    # ------------------------------------------------------------------
    # Server-side handlers
    # ------------------------------------------------------------------
    def on_dispatch(self, message: PieceDispatch):
        yield self.cpu(self.service.queue_op_us)
        txn_id = message.txn_id
        # A re-sent dispatch finds its piece (or its reply) and answers with
        # the dependencies it would have observed, without resetting it.
        deps = tuple(t for t in self.redo.pending(message.key) if t != txn_id)
        # Force-written before the reply: once the coordinator has seen it,
        # it may assign an order, and a crash must not lose the piece.
        self.redo.log_dispatch(message.key, txn_id, message.is_write, message.write_value)
        self._progress.notify()
        self.counters["pieces_dispatched"] += 1
        self.respond(message, PieceDispatchReply(txn_id=txn_id, key=message.key, deps=deps))

    def on_commit(self, message: PieceCommit):
        key, txn_id, order = message.key, message.txn_id, message.order
        redo = self.redo
        reply = redo.reply(key, txn_id)
        if reply is None:
            if order < redo.frontier(key):
                # Order fence: this key has executed a piece ordered *after*
                # this one, so executing it now would interleave the two
                # transactions differently than every other key did.
                # Withdraw the piece instead of wedging the key; the
                # coordinator's re-send keeps asking, making this an
                # availability cost, never a consistency one.  The table
                # keeps every unexecuted piece across a crash, so the fence
                # is a backstop.
                self.counters["order_fence_refusals"] += 1
                self._withdraw(key, txn_id)
                return
            # Force-write the assigned order before the execute reply so a
            # crash after the reply can never forget the piece was ordered.
            piece = redo.log_order(key, txn_id, order, message.is_write, message.write_value)
            self._progress.notify()
            reply = yield from self._run_piece(piece)
        # A duplicate of an executed piece's commit gets the reply the
        # execution observed, exactly what the original answer carried.
        value, version, writer = reply
        self.respond(
            message,
            PieceExecuted(txn_id=txn_id, key=key, value=value, version=version, writer=writer),
        )

    def _run_piece(self, piece: PieceRecord):
        """Execute one ordered piece once its turn on the key comes.

        The shared execution core of the commit handler and the restart
        replay.  Returns the ``(value, version, writer)`` the piece observed
        — the pre-state for a fresh execution, the logged reply for a piece
        another run of it executed first.
        """
        key, txn_id, order = piece.key, piece.txn_id, piece.order
        pending = self.redo.pending(key)

        # Deferrable execution: wait until no pending piece on this key is
        # ordered before us.  Pieces that are still in their dispatch round
        # (order not assigned yet) are also waited for — their commit round
        # will assign an order shortly and executing ahead of them could
        # order the two transactions differently on different keys, which is
        # exactly what ROCOCO's dependency tracking prevents.
        def ready() -> bool:
            for other in pending.values():
                if other.txn_id == txn_id:
                    continue
                if other.order is None or other.order < order:
                    return False
            return True

        if not ready():
            self.counters["piece_waits"] += 1
            yield self.sim.condition(ready, self._progress, name=f"piece:{txn_id}")

        yield self.cpu(self.service.commit_apply_us)
        reply = self.redo.reply(key, txn_id)
        if reply is not None:
            return reply  # a re-sent commit raced the execution (or the replay)
        state = self._data.setdefault(key, _RococoKey())
        reply = (state.value, state.version, state.writer)
        if piece.is_write:
            state.value = piece.write_value
            state.version += 1
            state.writer = txn_id
        # Same simulation step as the state mutation: the execution (and the
        # frontier advance behind the order fence) is force-written.
        self.redo.log_execution(piece, reply)
        self._progress.notify()
        self.counters["pieces_executed"] += 1
        return reply

    def on_piece_abort(self, message: PieceAbort) -> None:
        self._withdraw(message.key, message.txn_id)

    def _withdraw(self, key, txn_id: TransactionId) -> None:
        """Withdraw a dispatched piece that never received an order (ordered
        pieces execute and clean themselves up)."""
        if self.redo.withdraw(key, txn_id):
            self.counters["pieces_aborted"] += 1
            self._progress.notify()

    def on_snapshot_read(self, message: SnapshotRead):
        key = message.key
        if message.wait_for_pending:
            pending = self.redo.pending(key)

            def no_pending_writers() -> bool:
                return not any(piece.is_write for piece in pending.values())

            if not no_pending_writers():
                self.counters["read_only_waits"] += 1
                yield self.sim.condition(
                    no_pending_writers, self._progress, name=f"ro-wait:{message.txn_id}"
                )
        yield self.cpu(self.service.read_local_us)
        state = self._data.setdefault(key, _RococoKey())
        self.respond(
            message,
            SnapshotReadReturn(
                txn_id=message.txn_id,
                key=key,
                value=state.value,
                version=state.version,
                writer=state.writer,
            ),
        )

    # ------------------------------------------------------------------
    # Coordinator side (Session interface)
    # ------------------------------------------------------------------
    def txn_read(self, meta: TransactionMeta, key: object):
        """Reads are collected lazily.

        ROCOCO executes a transaction's pieces during the commit round, so an
        update transaction's "read" simply registers interest in the key; the
        actual value is produced when the piece executes.  To keep the
        Session API uniform the registered read returns the key's current
        value from the primary (a dispatch-round observation); update
        transactions in the paper's workload do not branch on read values.

        Read-only transactions perform their first-round snapshot read here.
        """
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"read after completion of {meta}")
        if key in meta.write_set:
            return meta.write_set[key]
        reply = yield from self.reliable_request(
            self.primary(key),
            lambda: SnapshotRead(txn_id=meta.txn_id, key=key, wait_for_pending=meta.is_read_only),
            trace_txn=meta.txn_id,
            trace_name="read",
        )
        meta.record_read(
            key=key,
            value=reply.value,
            version_vc=meta.vc,
            writer=reply.writer,
            served_by=reply.sender,
        )
        meta.read_set[key].version_number = reply.version  # type: ignore[attr-defined]
        self.counters["client_reads"] += 1
        return reply.value

    def txn_commit(self, meta: TransactionMeta):
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"double commit of {meta}")
        if meta.is_read_only:
            return (yield from self._commit_read_only(meta))
        return (yield from self._commit_update(meta))

    # ------------------------------------------------------------------
    def _commit_read_only(self, meta: TransactionMeta):
        """Second-round validation of the snapshot read."""
        meta.phase = TransactionPhase.PREPARING
        valid = yield from self._traced_round(self._validate, meta.txn_id, "validate", meta)
        if not valid:
            self.counters["read_only_validation_failures"] += 1
            return self._finish_abort(meta, reason="read-only-validation")
        return self._finish_commit(meta, "read_only_commits")

    def _validate(self, meta: TransactionMeta, rejoined=None):
        """Re-read every key of the read set in one round, awaited key by
        key (each wait re-driven); ``False`` at the first changed version."""
        requests = RoundRequests(
            self,
            meta.read_set,
            self.primary,
            lambda key: SnapshotRead(txn_id=meta.txn_id, key=key, wait_for_pending=True),
            "round_retries",
        )
        for key, event in zip(requests.items, requests.events):
            yield from requests.redrive(event, lambda: event.triggered, rejoined)
            if event.value.version != getattr(meta.read_set[key], "version_number", 0):
                return False
        return True

    def _commit_update(self, meta: TransactionMeta):
        meta.phase = TransactionPhase.PREPARING
        meta.prepare_time = self.sim.now
        txn_id = meta.txn_id
        pieces = self._pieces(meta)

        # Round 1: dispatch.
        yield from self.request_round(
            pieces,
            self.primary,
            lambda key: PieceDispatch(
                txn_id=txn_id,
                key=key,
                is_write=pieces[key],
                write_value=meta.write_set.get(key),
            ),
            trace_txn=txn_id,
            trace_name="dispatch",
        )

        # Order position: the dispatch-round completion instant is unique per
        # coordinator (simulated time plus a per-transaction tie-breaker) and
        # consistent across every key of the transaction.
        order = self.sim.now + (txn_id.seq % 997) * 1e-6
        meta.internal_commit_time = self.sim.now
        # Pieces execute in ``order`` on every involved server, so the order
        # value doubles as the per-key version-order hint for the checker.
        meta.version_hints = {key: order for key in meta.write_set}

        yield from self._commit_round(meta, pieces, order, "commit")
        self.counters["two_round_commits"] += 1
        return self._finish_commit(meta, "update_commits")

    @staticmethod
    def _pieces(meta: TransactionMeta) -> Dict[object, bool]:
        """Every accessed key is one piece, routed to the key's primary
        (mapped to whether it writes)."""
        pieces = dict.fromkeys(meta.read_set, False)
        pieces.update(dict.fromkeys(meta.write_set, True))
        return pieces

    def _commit_round(self, meta: TransactionMeta, pieces, order: float, trace_name: str):
        """Round 2: execute every piece at ``order``, then fold what each
        observed into the recorded reads — the replies carry what the pieces
        observed *at the assigned order*; keeping the EXECUTING-phase
        snapshot instead would fabricate anti-dependencies against writers
        ordered before us."""
        executed_replies = yield from self.request_round(
            pieces,
            self.primary,
            lambda key: PieceCommit(
                txn_id=meta.txn_id,
                key=key,
                order=order,
                is_write=pieces[key],
                write_value=meta.write_set.get(key),
            ),
            trace_txn=meta.txn_id,
            trace_name=trace_name,
        )
        for executed in executed_replies.values():
            if executed.key in meta.read_set:
                record = meta.read_set[executed.key]
                record.value = executed.value
                record.writer = executed.writer

    def _complete_crashed_commit(self, txn_id: TransactionId):
        """Finish the commit round of a decided transaction the crash cut short.

        The order was assigned (force-written) before the crash, so the
        transaction committed on every key or none — re-running the commit
        round with the same order is idempotent at every server (the redo
        log answers duplicates) and lands the writes on any key the original
        round never reached.  Finishing into the history makes the recovered
        writes legitimately committed for the consistency checkers: crash
        recovery is all-or-nothing, never a torn partial commit.
        """
        entry = self._crash_completions.get(txn_id)
        if entry is None:
            return
        order, meta = entry
        yield from self._commit_round(meta, self._pieces(meta), order, "redo-commit")
        if self._crash_completions.pop(txn_id, None) is None:
            return  # a racing completion (re-restart) already finished it
        self.counters["crash_completed_commits"] += 1
        self._finish_commit(meta, "update_commits")


class RococoCluster(ProtocolCluster):
    """Cluster facade for the ROCOCO baseline."""

    node_class = RococoNode
    protocol_name = "rococo"

    @staticmethod
    def contract(history, replica_versions) -> list:
        """ROCOCO's contract under faults: serializability (the guarantee the
        integration tests pin for this baseline) plus committed-writer reads —
        no client may observe a torn or uncommitted write."""
        return [history.check("serializability"), history.check("committed-reads")]

