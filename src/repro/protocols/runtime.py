"""The shared protocol-node runtime.

Before this layer existed, the node-lifecycle plumbing — message
registration/dispatch, the per-transaction state machine, replica fan-out
with fastest-answer selection, 2PC-style vote collection, re-sends of lost
requests, counters — was re-implemented four times across
:mod:`repro.core.node`, :mod:`repro.baselines.twopc`,
:mod:`repro.baselines.walter` and :mod:`repro.baselines.rococo`.
:class:`ProtocolRuntime` collapses that duplication into one base class that
every protocol node (SSS and the three competitors) extends:

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
* **RPC rounds** — :meth:`fastest_round` (fastest-answer selection over
  a reply wave, the pattern behind every multi-replica read),
  :meth:`vote_round` (one 2PC-style prepare round with a
  :class:`VoteCollector` that fails fast on the first negative vote),
  :meth:`reliable_request` and :meth:`request_round`, each
  :class:`RoundRequests` plus :meth:`redrive`, the one wait that asks
  whether a message can be lost and, if so, re-sends what is unanswered.
  :meth:`admit_prepare` makes every prepare handler idempotent under it.
* **Reliable sends** — ``channel``, a composed
  :class:`~repro.protocols.stream.ReliableChannel`: ``channel.send`` is the
  one way to send a message that must arrive.
* **Fault plane** — :meth:`crash` / :meth:`restart`: a crashed node drops
  its volatile state (inbound queue, in-flight RPCs, and what the protocol
  class declares in ``_WAITS`` / ``_VOLATILE``) and replays its durable
  state on restart via :meth:`on_restart`, handed the transactions the
  crash tore down, then sends every peer a :class:`Rejoin`: each round
  waiting through :meth:`redrive` re-sends to a peer the instant it rejoins.

Protocol subclasses implement ``txn_read`` / ``txn_commit`` / ``preload``
and register their message handlers in ``__init__``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.common.config import ClusterConfig
from repro.common.errors import NodeCrashedError, TransactionStateError
from repro.common.ids import NodeId, TransactionId, TxnIdGenerator
from repro.core.metadata import TransactionMeta, TransactionOutcome, TransactionPhase
from repro.network.node import NetworkedNode
from repro.protocols.stream import Envelope, Rejoin, ReliableChannel, StreamAck
from repro.sim.events import Event
from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.history import HistoryRecorder
    from repro.network.transport import Network
    from repro.replication.placement import KeyPlacement
    from repro.sim.engine import Simulation


class VoteCollector(Event):
    """Event firing once a 2PC-style vote round is decided.

    Replaces the wave-by-wave ``any_of(pending + [timeout])`` pattern, which
    rebuilt an :class:`AnyOf` over every still-pending vote each wave — at
    large participant counts (the cluster-size sweep) that is quadratic in
    callbacks and list scans.  The collector registers one callback per vote
    reply, fails fast on the first unsuccessful vote (any reply with a falsy
    ``success`` attribute) and fires with ``(outcome, votes)`` once the round
    is decided.  Shared by SSS and the 2PC-style baselines; SSS hands the
    collected votes' proposed commit clocks to one batched
    ``VectorClock.merge_many``.
    """

    __slots__ = ("_remaining", "_votes")

    def __init__(self, sim, vote_events):
        super().__init__(sim, name="votes")
        self._remaining = len(vote_events)
        self._votes = []
        if not vote_events:
            # An empty round is trivially successful; without this the
            # collector would never fire and the round would wait forever.
            self.succeed((True, self._votes))
            return
        for event in vote_events:
            event.add_callback(self._on_vote)

    def _on_vote(self, event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            # A failed vote reply (the coordinator node crashed mid-round):
            # propagate, so the waiting client is interrupted like any other
            # in-flight RPC of the crashed node.
            self.fail(event._exception)
            return
        vote = event._value
        if not vote.success:
            self.succeed((False, self._votes))
            return
        self._votes.append(vote)
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed((True, self._votes))


class RoundRequests:
    """The requests of one RPC round, one per item, re-sent per peer.

    The reply to a re-sent copy completes its item's original event.  The
    copy it replaces is retired — a late reply to it is dropped as stale —
    unless ``keep_stale``: the vote round counts whichever copy is answered
    first, and retires them all when it ends.
    """

    __slots__ = ("node", "items", "destinations", "make", "counter", "messages", "events", "stale")

    def __init__(self, node, items, destination_of, make, counter=None, keep_stale=False):
        self.node = node
        self.items = items = list(items)
        self.destinations = [destination_of(item) for item in items] if destination_of else items
        self.make = make
        self.counter = counter
        self.messages = [make(item) for item in items]
        self.events = [node.request(d, m) for d, m in zip(self.destinations, self.messages)]
        self.stale = [] if keep_stale else None

    def waiting(self) -> list:
        """The destinations of the requests still unanswered."""
        return [d for d, event in zip(self.destinations, self.events) if not event.triggered]

    def resend(self, peers) -> None:
        """Re-send every unanswered request addressed to one of ``peers``."""
        node = self.node
        pending = node._pending_replies
        if self.counter is not None:
            node.counters[self.counter] += 1
        for index, destination in enumerate(self.destinations):
            event = self.events[index]
            if destination in peers and not event.triggered:
                if self.stale is None:
                    pending.pop(self.messages[index].msg_id, None)
                else:
                    self.stale.append(self.messages[index])
                message = self.messages[index] = self.make(self.items[index])
                pending[message.msg_id] = event
                node.send(destination, message)

    def redrive(self, target, done, rejoined=None, limit=None):
        """:meth:`ProtocolRuntime.redrive` over these requests."""
        return self.node.redrive(target, self.waiting, self.resend, done, rejoined, limit)


class ProtocolRuntime(NetworkedNode):
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
    # Replica fan-out and vote collection
    # ------------------------------------------------------------------
    def _traced_round(self, round_fn, trace_txn, trace_name, *args):
        """Start an RPC-round generator, in an ``rpc.<trace_name>`` span if traced.

        Untraced (the common case) the round generator itself is returned,
        adding no delegation frame.  A round that re-sent on a peer's
        :class:`Rejoin` names the peers in the span's ``rejoined`` arg.
        """
        tracer = self.sim.tracer
        if tracer is None or trace_txn is None:
            return round_fn(*args)
        return self._span_round(round_fn, args, tracer, trace_txn, f"rpc.{trace_name}")

    def _span_round(self, round_fn, args, tracer, txn_id: TransactionId, name: str):
        start = self.sim.now
        rejoined: List[str] = []
        result = yield from round_fn(*args, rejoined)
        tracer.span(name, start, txn=txn_id, args={"rejoined": rejoined} if rejoined else None)
        return result

    def redrive(self, target, silent, resend, done=None, rejoined=None, limit=None):
        """The one wait of every round: re-drive it until ``done()``.

        This is the one place that asks whether a message can be lost (fault
        mode).  When none can, the wait is ``target`` alone — no timer, no
        :class:`Rejoin` registration — and returns ``(0, [])`` once it fires,
        unless a crash arms fault mode first (:meth:`enable_fault_mode`).
        Otherwise a wave waits for the first of ``target``, the fallback
        timer and a :class:`Rejoin` from a peer in ``silent()`` (those still
        awaited), which gets ``resend([peer])`` at once — no silent wave
        counted, the peer appended to ``rejoined`` — before the wave goes on
        under a fresh timer.  The ``crash_resubscribe_us`` timer covers what
        no restart announces (drop-mode partitions, lost replies): unless
        ``done()``, a silent wave ``resend(silent())`` follows, at most
        ``limit`` of them; returns their count and the first one's peers.
        ``done=None`` stops after one wave.
        """
        if not self._fault_mode:
            process = self.sim.active_process
            self._unguarded[process] = None
            try:
                yield target
                return 0, []
            except Interrupt:
                pass  # a crash armed fault mode: go on in waves
            finally:
                del self._unguarded[process]
        waits = self._rejoin_waits
        waves, first_silent = 0, []
        while True:
            timer = self.sim.timeout(self.config.timeouts.crash_resubscribe_us)
            wake = self.sim.any_of([target, timer])
            # The registry holds the wave's own wake event, and only while it
            # waits: a shared event would keep every round's callbacks alive.
            peers = silent()
            for peer in peers:
                waits[peer][wake] = None
            try:
                woken = yield wake
            finally:
                for peer in peers:
                    waits[peer].pop(wake, None)
            fired = target.triggered
            if isinstance(woken, Rejoin) and not fired:
                resend([woken.sender])
                if rejoined is not None:
                    rejoined.append(str(woken.sender))
                continue
            if fired or done is None or done() or waves == limit:
                return waves, first_silent
            waves += 1
            peers = silent()
            if waves == 1:
                first_silent = peers
            resend(peers)

    def enable_fault_mode(self) -> None:
        """Arm fault mode on the rounds and the channel, and move every round
        waiting on its target alone into :meth:`redrive`'s waves: a message
        it awaits can now be lost."""
        self._fault_mode = True
        self.channel.enable_fault_mode()
        for process in self._unguarded:
            process.interrupt()

    def _on_rejoin(self, message: Rejoin) -> None:
        """A peer restarted: wake every wave waiting on it (see
        :meth:`redrive`), then hand the Rejoin to the channel."""
        for wake in self._rejoin_waits.get(message.sender, ()):
            if not wake.triggered:
                wake.succeed(message)
        self.channel.on_rejoin(message)

    def fastest_round(self, destinations, make_message, trace_txn=None, trace_name="read"):
        """RPC-round generator: fastest-answer fan-out, re-driven when lost.

        Sends ``make_message(destination)`` to every destination and returns
        ``(reply, events)`` — the fastest answer plus the reply events of the
        wave that produced it (callers inspect the losing events for
        cleanup).  One event is awaited without an ``AnyOf``.  A wave nobody
        answers — every contacted replica crashed, the rf=1 read-wave stall —
        is re-driven (:meth:`redrive`) until some replica answers after its
        restart; read handlers are naturally idempotent, and a crash of
        *this* node fails the wave's events and propagates to the waiting
        client like any in-flight RPC.

        ``trace_txn`` attributes the round to a transaction's trace as an
        ``rpc.<trace_name>`` span (no effect when tracing is off); the same
        pair works on every round helper below.
        """
        return self._traced_round(
            self._fastest_round, trace_txn, trace_name, destinations, make_message
        )

    def _fastest_round(self, destinations, make_message, rejoined=None):
        requests = RoundRequests(self, destinations, None, make_message, "read_wave_retries")
        events = requests.events
        target = events[0] if len(events) == 1 else self.sim.any_of(events)
        yield from requests.redrive(target, lambda: any(e.triggered for e in events), rejoined)
        return next(event.value for event in events if event.triggered), events

    def vote_round(self, participants, make_message, trace_txn=None):
        """RPC-round generator: a 2PC-style vote round over ``participants``.

        Sends one request per participant and collects the votes with a
        :class:`VoteCollector`.  Returns ``(outcome, votes)``; ``outcome`` is
        ``False`` when any participant voted no or the round gave up.  A
        prepare lost in a participant's down window is re-sent on its
        :class:`Rejoin` or in a silent wave (:meth:`redrive`); a participant
        still silent after ``prepare_retry_limit`` silent waves is declared
        dead — the round fails within ``(limit + 1) * crash_resubscribe_us``.
        A round that needed a re-send carries ``rpc.prepare`` span args:
        ``resends`` and ``silent`` for the silent waves, ``rejoined`` for
        the Rejoin ones, ``outcome`` when it gave up.
        """
        start = self.sim.now
        requests = RoundRequests(
            self, participants, None, make_message, "prepare_retries", keep_stale=True
        )
        votes = VoteCollector(self.sim, requests.events)
        rejoined: List[str] = []
        limit = self.config.timeouts.prepare_retry_limit
        waves, silent = yield from requests.redrive(votes, lambda: votes.triggered, rejoined, limit)
        for message in requests.stale + requests.messages:
            self._pending_replies.pop(message.msg_id, None)  # every unanswered copy
        args = {"resends": waves, "silent": [str(p) for p in silent]} if waves else {}
        if rejoined:
            args["rejoined"] = rejoined
        if not votes.triggered:
            self.counters["prepare_retry_aborts"] += 1
            args["outcome"] = "retry-exhausted"
        tracer = self.sim.tracer
        if tracer is not None and trace_txn is not None:
            tracer.span("rpc.prepare", start, txn=trace_txn, args=args or None)
        return votes.value if votes.triggered else (False, [])

    def admit_prepare(self, message, recorded_vote) -> bool:
        """The guard making a prepare handler idempotent under re-sends.

        ``recorded_vote(txn_id)`` looks up the vote the protocol's durable
        prepared state holds for a transaction (``None`` for none).  A prepare
        whose round this node already *decided* is ignored — nobody waits
        for the answer, and voting again would pin locks no second decision
        releases; one racing its still-running original is dropped (the
        original answers, and the coordinator counts either reply); one
        already *voted and undecided* gets the same vote again, with no
        second lock, clock tick or queue entry.  Returns ``True`` for a
        first delivery — every prepare of a run that loses no message —
        which the handler must end with :meth:`cast_vote`.
        """
        txn_id = message.txn_id
        if txn_id in self._decided or txn_id in self._preparing:
            self.counters["prepare_duplicates_dropped"] += 1
            return False
        vote = recorded_vote(txn_id)
        if vote is not None:
            self.counters["prepare_revotes"] += 1
            self.respond(message, vote)
            return False
        self._preparing.add(txn_id)
        return True

    def cast_vote(self, prepare, vote) -> None:
        """Answer ``prepare`` and close its in-flight window."""
        self._preparing.discard(prepare.txn_id)
        self.respond(prepare, vote)

    def reliable_request(self, destination, make_message, trace_txn=None, trace_name="request"):
        """RPC generator: one request, re-driven (:meth:`redrive`) until
        answered — the handler must be idempotent.  Returns the reply."""
        return self._traced_round(
            self._reliable_request, trace_txn, trace_name, destination, make_message
        )

    def _reliable_request(self, destination, make_message, rejoined=None):
        requests = RoundRequests(
            self, (destination,), None, lambda _destination: make_message(), "round_retries"
        )
        event = requests.events[0]
        yield from requests.redrive(event, lambda: event.triggered, rejoined)
        return event.value

    def request_round(
        self, items, destination_of, make_message, trace_txn=None, trace_name="round"
    ):
        """RPC-round generator: one request per item, all replies awaited.

        ``destination_of(item)`` routes each item (several items may share a
        destination — ROCOCO's per-key pieces do); with ``None`` the items
        are the destinations.  Unanswered requests are
        re-driven (:meth:`redrive`) — a crashed destination answers after
        its restart, so handlers of messages sent through this helper must
        be idempotent.  Returns ``{item: reply}``.
        """
        return self._traced_round(
            self._request_round, trace_txn, trace_name, items, destination_of, make_message
        )

    def _request_round(self, items, destination_of, make_message, rejoined=None):
        requests = RoundRequests(self, items, destination_of, make_message, "round_retries")
        events = requests.events
        yield from requests.redrive(
            self.sim.all_of(events), lambda: all(e.triggered for e in events), rejoined
        )
        return {item: event.value for item, event in zip(requests.items, events)}

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
