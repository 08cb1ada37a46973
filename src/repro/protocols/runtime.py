"""The shared protocol-node runtime.

:class:`ProtocolRuntime` is the one base class every protocol node (SSS and
the three competitors) extends:

* **Dispatch** — inherited from :class:`~repro.network.node.NetworkedNode`:
  the prioritized inbound queue, the dispatcher process, handler
  registration by message class, and request/response correlation.
* **Transaction state machine** — ``begin_transaction`` / ``txn_write`` /
  ``txn_abort`` plus the ``_finish_commit`` / ``_finish_abort`` outcome
  transitions shared by every coordinator, all operating on
  :class:`~repro.core.metadata.TransactionMeta` (the per-transaction state
  machine) and feeding the optional history recorder.  ``coordinated``
  holds the metadata of the transactions in flight (and of those a crash
  tore down); a finished one leaves only its
  :class:`~repro.core.metadata.TransactionOutcome` in ``outcomes``.
* **RPC rounds** — inherited from
  :class:`~repro.protocols.rounds.RoundsMixin`: each round is a
  ``RoundRequests`` plus ``redrive``, the one wait that asks whether a
  message can be lost and, if so, re-sends what is unanswered.
* **Reliable sends** — ``channel``, a composed
  :class:`~repro.protocols.stream.ReliableChannel`: ``channel.send`` is the
  one way to send a message that must arrive.
* **Fault plane** — :meth:`crash` / :meth:`restart`: a crashed node drops
  its volatile state (inbound queue, in-flight RPCs, and what the protocol
  class declares in ``_WAITS`` / ``_VOLATILE``) and replays its durable
  state on restart via :meth:`on_restart`, handed the transactions the
  crash tore down, then sends every peer a :class:`Rejoin`: each round
  waiting through ``redrive`` re-sends to a peer the instant it rejoins.

Protocol subclasses implement ``txn_read`` / ``txn_commit`` / ``preload``
and register their message handlers in ``__init__``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.common.config import ClusterConfig
from repro.common.errors import NodeCrashedError, TransactionStateError
from repro.common.ids import NodeId, TransactionId, TxnIdGenerator
from repro.core.metadata import TransactionMeta, TransactionOutcome, TransactionPhase
from repro.network.node import NetworkedNode
from repro.protocols.rounds import RoundsMixin
from repro.protocols.stream import Envelope, Rejoin, ReliableChannel, StreamAck
from repro.sim.events import Event
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.history import HistoryRecorder
    from repro.network.transport import Network
    from repro.replication.placement import KeyPlacement
    from repro.sim.engine import Simulation


class ProtocolRuntime(RoundsMixin, NetworkedNode):
    """Common runtime of every protocol node (SSS, 2PC, Walter, ROCOCO).

    Each protocol class declares its crash model once, naming every
    attribute it adds: ``_WAITS`` — maps of waiting events (values are
    events, or tuples led by one), whose untriggered events a crash fails;
    ``_VOLATILE`` — what a crash loses, the wait maps first: :meth:`crash`
    empties every plain container there (dict, set, list), and the class
    resets the rest in :meth:`on_crash` (or, for a flag, on restart);
    ``_DURABLE`` — everything a crash keeps.  The runtime's, its channel's
    and the network layer's own attributes are not declared: :meth:`crash`
    handles them itself.
    """

    _WAITS: Tuple[str, ...] = ()
    _VOLATILE: Tuple[str, ...] = ()
    _DURABLE: Tuple[str, ...] = ()

    def __init__(
        self,
        sim: "Simulation",
        network: "Network",
        node_id: NodeId,
        placement: "KeyPlacement",
        config: ClusterConfig,
        history: Optional["HistoryRecorder"] = None,
    ):
        super().__init__(sim, network, node_id, service=config.service)
        self.placement = placement
        self.config = config
        self.history = history
        self._txn_ids = TxnIdGenerator(node_id)
        self.coordinated: Dict[TransactionId, TransactionMeta] = {}
        self.outcomes: Dict[TransactionId, TransactionOutcome] = {}
        self.counters = defaultdict(int)
        # Participant-side idempotence of re-sent prepares (see
        # admit_prepare): prepares whose handler is still running (volatile)
        # and rounds whose decision this node applied
        # (durable, kept with the protocol's logged state: a duplicate held
        # by a buffering partition can outlive a crash of this node; 2PC and
        # Walter record every decide, so a prepare a fail-fast abort
        # overtook takes no lock either).
        self._preparing: Set[TransactionId] = set()
        self._decided: Set[TransactionId] = set()
        # Transactions a crash tore down whose client let go of them before
        # the restart recovered them (see txn_abandon).
        self._abandoned: Set[TransactionId] = set()
        # Fault mode only — peer -> the wake events of the rounds waiting on
        # it, in arrival order (see redrive); a round removes its own on wake.
        self._rejoin_waits: Dict[NodeId, Dict[Event, None]] = defaultdict(dict)
        # Until fault mode — the processes of rounds waiting on their target.
        self._unguarded: Dict[Process, None] = {}
        # A message can be lost (enable_fault_mode): rounds wait in waves.
        self._fault_mode = False
        period = config.timeouts.crash_resubscribe_us
        self.channel = ReliableChannel(
            sim, node_id, self.send, self._dispatch, period, self.counters
        )
        self._trace_down_since: Optional[float] = None
        self.register_handler(Rejoin, self._on_rejoin)
        self.register_handler(Envelope, self.channel.on_envelope)
        self.register_handler(StreamAck, self.channel.on_ack)

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def replicas(self, key: object) -> Tuple[NodeId, ...]:
        return self.placement.replicas(key)

    def primary(self, key: object) -> NodeId:
        return self.placement.primary(key)

    def is_replica_of(self, key: object) -> bool:
        return self.placement.is_replica(self.node_id, key)

    # ------------------------------------------------------------------
    # Session interface (the per-transaction state machine)
    # ------------------------------------------------------------------
    def begin_transaction(self, read_only: bool) -> TransactionMeta:
        """Create the metadata of a transaction coordinated by this node."""
        meta = TransactionMeta(
            txn_id=self._txn_ids.next_id(),
            coordinator=self.node_id,
            is_update=not read_only,
            n_nodes=self.config.n_nodes,
        )
        meta.begin_time = self.sim.now
        self.coordinated[meta.txn_id] = meta
        self.counters["begun"] += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.txn_begin(meta.txn_id, self.node_id)
        return meta

    def txn_write(self, meta: TransactionMeta, key: object, value: object) -> None:
        """Buffer a write (lazy update); visible only after commit."""
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"write after completion of {meta}")
        if meta.is_read_only:
            raise TransactionStateError(f"{meta.txn_id} was declared read-only but issued a write")
        meta.record_write(key, value)
        self.counters["client_writes"] += 1

    def txn_abort(self, meta: TransactionMeta) -> None:
        """Client-requested abort before commit (buffered writes dropped)."""
        if meta.phase is not TransactionPhase.EXECUTING:
            raise TransactionStateError(f"abort after completion of {meta}")
        meta.phase = TransactionPhase.ABORTED
        meta.abort_reason = "client-abort"
        meta.abort_time = self.sim.now
        self.counters["client_aborts"] += 1
        self._retire(meta)

    def txn_read(self, meta: TransactionMeta, key: object):  # pragma: no cover
        raise NotImplementedError

    def txn_commit(self, meta: TransactionMeta):  # pragma: no cover
        raise NotImplementedError

    def preload(self, keys, initial_value=0) -> None:  # pragma: no cover
        """Install version zero of ``keys``, the keys this node replicates
        (``KeyPlacement.local_keys``); overridden by each protocol."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Outcome transitions shared by every coordinator
    # ------------------------------------------------------------------
    def _finish_commit(self, meta: TransactionMeta, counter: str) -> bool:
        meta.phase = TransactionPhase.EXTERNALLY_COMMITTED
        meta.external_commit_time = self.sim.now
        if meta.commit_vc is None:
            meta.commit_vc = meta.vc
        self.counters[counter] += 1
        if self.history is not None:
            self.history.record_commit(meta)
        if self.sim.tracer is not None:
            self._trace_txn_end(meta, "commit")
        self._retire(meta)
        return True

    def _finish_abort(self, meta: TransactionMeta, reason: str, counter: str = "aborts") -> bool:
        meta.phase = TransactionPhase.ABORTED
        meta.abort_reason = reason
        meta.abort_time = self.sim.now
        self.counters[counter] += 1
        if self.history is not None:
            self.history.record_abort(meta)
        if self.sim.tracer is not None:
            self._trace_txn_end(meta, f"abort:{reason}")
        self._retire(meta)
        return False

    def txn_tear_down(self, meta: TransactionMeta, reason: str, trace_outcome="torn-down") -> None:
        """End a transaction a crash or a snapshot restart interrupted.

        It is marked ABORTED with ``reason`` but records no history abort
        (its client never saw an answer, or retries it under a fresh id),
        its trace closes as ``trace_outcome`` — a torn-down transaction
        would otherwise look identical to a genuinely stuck one — and it is
        retired like any finished transaction.
        """
        meta.phase = TransactionPhase.ABORTED
        meta.abort_reason = reason
        meta.abort_time = self.sim.now
        if self.sim.tracer is not None:
            self._trace_txn_end(meta, trace_outcome)
        self._retire(meta)

    def txn_abandon(self, meta: TransactionMeta) -> None:
        """The client lets go of a transaction a crash of this node interrupted.

        One begun while the node was down never met the crash and is torn
        down here (``node-crash``).  One the crash tore down is retired once
        the restart has recovered it: now, or by :meth:`restart`.
        """
        if meta.phase is TransactionPhase.EXTERNALLY_COMMITTED:
            return
        if meta.phase is not TransactionPhase.ABORTED:
            self.txn_tear_down(meta, "node-crash")
        elif meta.crash_phase is not None:
            self._abandoned.add(meta.txn_id)
        else:
            self._retire(meta)

    def _retire(self, meta: TransactionMeta) -> None:
        """Swap a finished transaction's metadata for its outcome record.

        A transaction a crash tore down keeps its metadata until the restart
        has recovered it (``crash_phase`` cleared): the recovery reads its
        read and write sets.
        """
        if meta.crash_phase is None:
            self.coordinated.pop(meta.txn_id, None)
            self.outcomes[meta.txn_id] = TransactionOutcome(meta)

    def txn_state(self, txn_id: TransactionId):
        """The metadata of a transaction this node coordinates, the outcome
        record it left if it finished, or ``None`` if this node never began it."""
        meta = self.coordinated.get(txn_id)
        return meta if meta is not None else self.outcomes.get(txn_id)

    def _trace_txn_end(self, meta: TransactionMeta, outcome: str) -> None:
        """Record the transaction's end plus its phase timeline (trace plane).

        Phases are derived post hoc from the metadata timestamps so no
        per-phase bookkeeping runs when tracing is off: execute =
        [begin, prepare), prepare = [prepare, internal commit), precommit =
        [internal commit, end].  Timestamps a protocol never sets (2PC has
        no separate internal-commit point, read-only transactions skip
        prepare) simply merge into the preceding phase.
        """
        tracer = self.sim.tracer
        if tracer is None or not tracer.wants(meta.txn_id):
            return
        begin = meta.begin_time
        end = self.sim.now
        cuts = [("phase.execute", begin)]
        prepare = meta.prepare_time
        if prepare is not None and prepare >= begin:
            cuts.append(("phase.prepare", prepare))
        internal = meta.internal_commit_time
        if internal is not None and internal >= cuts[-1][1]:
            cuts.append(("phase.precommit", internal))
        phases = []
        for index, (name, start) in enumerate(cuts):
            stop = cuts[index + 1][1] if index + 1 < len(cuts) else end
            if stop > start:
                phases.append((name, start, stop))
        tracer.txn_end(meta.txn_id, outcome, begin, phases)


    # ------------------------------------------------------------------
    # Fault plane: crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop this node.

        The network drops all traffic to and from the node, the inbound
        queue and in-flight RPC correlation state are discarded, the node's
        processes die at their next resumption (each checks the node's
        epoch, which the crash moves), the channel loses its volatile state
        (:meth:`ReliableChannel.crash`), and the protocol's declared volatile state
        is dropped: the events waiting in its ``_WAITS`` maps fail (map by
        map, by transaction id), so co-located clients are interrupted
        instead of parking on dead events, every ``_VOLATILE`` container is
        emptied, and :meth:`on_crash` resets the rest.  Durable state —
        whatever the class does not declare volatile — survives untouched.
        """
        if self.crashed:
            return
        self.crashed = True
        self._epoch += 1
        self.counters["crashes"] += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("node.crash", node=self.node_id)
            self._trace_down_since = self.sim.now
        self.network.crash(self.node_id)
        self.counters["crash_dropped_inbound"] += self.drop_inbound()
        self._preparing.clear()
        self.channel.crash()
        # Fail in-flight RPCs: waiting handler processes die with the epoch,
        # while co-located *client* processes receive
        # NodeCrashedError and reconnect with a back-off (see the closed-loop
        # client), which is what lets availability recover after a restart.
        pending = self._pending_replies
        self._pending_replies = {}
        for event in pending.values():
            if not event.triggered:
                event.fail(NodeCrashedError(f"node {self.node_id} crashed"))
        # Every transaction this node coordinates is torn down: the client
        # connection is gone, so the transaction can never be answered.  The
        # metadata records the crash so the restart recovery (on_restart
        # overrides) can release remote state the transaction pinned.
        for txn_id in sorted(self.coordinated):
            meta = self.coordinated[txn_id]
            if meta.phase in (
                TransactionPhase.EXTERNALLY_COMMITTED,
                TransactionPhase.ABORTED,
            ):
                continue
            meta.crash_phase = meta.phase  # kept until the restart recovered it
            self.counters["coordinator_crash_aborts"] += 1
            self.txn_tear_down(meta, "coordinator-crash")
        for name in self._WAITS:
            waits = getattr(self, name)
            for txn_id in sorted(waits):
                event = waits[txn_id]
                if isinstance(event, tuple):
                    event = event[0]
                if not event.triggered:
                    event.fail(NodeCrashedError(f"node {self.node_id} crashed"))
        for name in self._VOLATILE:
            state = getattr(self, name)
            if isinstance(state, (dict, set, list)):
                state.clear()
        self.on_crash()

    def restart(self) -> None:
        """Rejoin the network, replay durable state, announce it (:class:`Rejoin`).

        Every transaction the crash tore down is handed to :meth:`on_restart`
        once, in transaction-id order, as ``(meta, crash_phase)`` with its
        ``crash_phase`` cleared; one whose client already let go of it
        (:meth:`txn_abandon`) is retired right after.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.counters["restarts"] += 1
        self.network.recover(self.node_id)
        tracer = self.sim.tracer
        if tracer is not None:
            if self._trace_down_since is not None:
                tracer.span("node.down", self._trace_down_since, node=self.node_id)
                self._trace_down_since = None
            tracer.instant("node.restart", node=self.node_id)
        self.channel.restart()
        torn_down = []
        for txn_id in sorted(self.coordinated):
            meta = self.coordinated[txn_id]
            if meta.crash_phase is not None:
                torn_down.append((meta, meta.crash_phase))
                meta.crash_phase = None
        self.on_restart(torn_down)
        abandoned = self._abandoned
        for meta, _crash_phase in torn_down:
            if meta.txn_id in abandoned:
                abandoned.discard(meta.txn_id)
                self._retire(meta)
        if tracer is not None:
            # Durable-state replay runs synchronously inside on_restart, so
            # this marks its completion point on the node track.
            tracer.instant("node.recovered", node=self.node_id)
        self.channel.announce(peer for peer in range(self.config.n_nodes) if peer != self.node_id)

    def on_crash(self) -> None:
        """Protocol hook: the crash resets that are not "empty a container"."""

    def on_restart(self, torn_down) -> None:
        """Protocol hook: replay durable state after a restart and recover
        ``torn_down``, the ``(meta, crash_phase)`` pairs of :meth:`restart`."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        stats = dict(self.counters)
        stats["messages_handled"] = self.messages_handled
        return stats
