"""The shared protocol-node runtime.

Before this layer existed, the node-lifecycle plumbing — message
registration/dispatch, the per-transaction state machine, replica fan-out
with fastest-answer selection, 2PC-style vote collection, crash-guard
timers, counters — was re-implemented four times across
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
  machine) and feeding the optional history recorder.
* **Replica fan-out** — :meth:`request_each` (one request per destination)
  and :meth:`fastest_round` (fastest-answer selection over a reply wave),
  the pattern behind every multi-replica read.
* **Vote collection** — :meth:`vote_round`: one 2PC-style prepare round
  with a :class:`VoteCollector` that fails fast on the first negative vote.
  Like its sibling round helpers it is fault-aware on its own: fail-free a
  single wave under a shared coarse crash-guard deadline, in fault mode
  re-driving unanswered prepares and declaring a participant dead after a
  bounded number of silent waves.  :meth:`admit_prepare` is
  the participant half — the one guard that makes every protocol's prepare
  handler idempotent under those re-sends.
* **Fault plane** — :meth:`crash` / :meth:`restart`: a crashed node drops
  its volatile state (inbound queue, in-flight RPCs, whatever the protocol
  declares volatile via :meth:`on_crash`) and replays its durable state on
  restart via :meth:`on_restart`, then sends every peer a :class:`Rejoin`:
  each fault-mode round waits through :meth:`redrive`, which re-sends to a
  peer the instant it rejoins.  Fail-free runs never touch any of this.

Protocol subclasses implement ``txn_read`` / ``txn_commit`` / ``preload``
and register their message handlers in ``__init__``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.common.config import ClusterConfig
from repro.common.errors import NodeCrashedError, TransactionStateError
from repro.common.ids import NodeId, TransactionId, TxnIdGenerator
from repro.core.metadata import TransactionMeta, TransactionPhase
from repro.network.message import Message, MessagePriority
from repro.network.node import NetworkedNode
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.history import HistoryRecorder
    from repro.network.transport import Network
    from repro.replication.placement import KeyPlacement
    from repro.sim.engine import Simulation


class Rejoin(Message):
    """A restarted node's announcement to a peer, sent once its durable
    state is replayed: re-send what I lost (:meth:`ProtocolRuntime.redrive`)."""

    __slots__ = ()
    priority = MessagePriority.CONTROL


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
            # collector would never fire and the caller would idle until
            # its crash-guard deadline.
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
    """The requests of one fault-mode round, one per item, re-sent per peer.

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
    """Common runtime of every protocol node (SSS, 2PC, Walter, ROCOCO)."""

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
        self.counters = defaultdict(int)
        # Fault mode only — participant-side idempotence of re-sent prepares
        # (see admit_prepare): prepares whose handler is still running
        # (volatile) and rounds whose decision this node applied (durable,
        # kept with the protocol's logged state: a duplicate held by a
        # buffering partition can outlive a crash of this node).
        self._preparing: Set[TransactionId] = set()
        self._decided: Set[TransactionId] = set()
        # Fault mode only — peer -> the wake events of the rounds waiting on
        # it, in arrival order (see redrive); a round removes its own on wake.
        self._rejoin_waits: Dict[NodeId, Dict[Event, None]] = defaultdict(dict)
        self.register_handler(Rejoin, self._on_rejoin)

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
        return False

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
    def request_each(self, destinations, make_message) -> List[Event]:
        """Send ``make_message(destination)`` to each destination.

        Returns the reply events in destination order.  ``make_message`` must
        build a fresh message per call (the transport mutates the instance).
        """
        request = self.request
        return [
            request(destination, make_message(destination))
            for destination in destinations
        ]

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
        """The one wait of every fault-mode round: re-drive it until ``done()``.

        A wave waits for the first of ``target``, the fallback timer and a
        :class:`Rejoin` from a peer in ``silent()`` (those still awaited),
        which gets ``resend([peer])`` at once — no silent wave counted, the
        peer appended to ``rejoined`` — before the wave goes on under a
        fresh timer.  The ``crash_resubscribe_us`` timer covers what no
        restart announces (drop-mode partitions, lost replies): unless
        ``done()``, a silent wave ``resend(silent())`` follows, at most
        ``limit`` of them; returns their count and the first one's peers.
        ``done=None`` stops after one wave; ``target=None`` waits on the
        timer alone; fail-free a wave is exactly ``any_of([target, timer])``.
        """
        waits = self._rejoin_waits
        waves, first_silent = 0, []
        while True:
            timer = self.sim.timeout(self.config.timeouts.crash_resubscribe_us)
            wake = timer if target is None else self.sim.any_of([target, timer])
            if not self._fault_mode:
                yield wake
                return waves, first_silent
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
            fired = target is not None and target.triggered
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

    def _on_rejoin(self, message: Rejoin) -> None:
        """A peer restarted: wake every wave waiting on it (see :meth:`redrive`)."""
        for wake in self._rejoin_waits.get(message.sender, ()):
            if not wake.triggered:
                wake.succeed(message)

    def fastest_round(self, destinations, make_message, trace_txn=None, trace_name="read"):
        """RPC-round generator: fastest-answer fan-out with fault-mode retries.

        Sends ``make_message(destination)`` to every destination and returns
        ``(reply, events)`` — the fastest answer plus the reply events of the
        wave that produced it (callers inspect the losing events for
        cleanup).  Fail-free this is one wave of :meth:`request_each`, awaited
        without an ``AnyOf`` when it has one event.  In fault mode a wave
        nobody answers — every contacted replica crashed, the rf=1
        read-wave stall — is re-driven (:meth:`redrive`) until some replica
        answers after its restart; read handlers are naturally idempotent,
        and a crash of *this* node fails the wave's events and propagates to
        the waiting client like any in-flight RPC.

        ``trace_txn`` attributes the round to a transaction's trace as an
        ``rpc.<trace_name>`` span (no effect when tracing is off); the same
        pair works on every round helper below.
        """
        return self._traced_round(
            self._fastest_round, trace_txn, trace_name, destinations, make_message
        )

    def _fastest_round(self, destinations, make_message, rejoined=None):
        if not self._fault_mode:
            events = self.request_each(destinations, make_message)
            if len(events) == 1:  # a plain await: no AnyOf on the rf=1 path
                reply = yield events[0]
                return reply, events
            yield self.sim.any_of(events)
            return next(event.value for event in events if event.triggered), events
        requests = RoundRequests(self, destinations, None, make_message, "read_wave_retries")
        events = requests.events
        target = events[0] if len(events) == 1 else self.sim.any_of(events)
        yield from requests.redrive(target, lambda: any(e.triggered for e in events), rejoined)
        return next(event.value for event in events if event.triggered), events

    def vote_round(self, participants, make_message, trace_txn=None):
        """RPC-round generator: a 2PC-style vote round over ``participants``.

        Sends one request per participant and collects the votes with a
        :class:`VoteCollector`.  Returns ``(outcome, votes)``; ``outcome`` is
        ``False`` when any participant voted no or the round gave up.
        Fail-free this is a single wave under the shared coarse crash-guard
        deadline (``prepare_timeout_us``; see :meth:`Simulation.deadline` — a
        guard against crashed participants, not a precise timer).  In fault
        mode a prepare sent into a participant's down window is lost by the
        crash-stop model and only its coordinator can re-send it, so the
        round is re-driven, never waited out (:meth:`_vote_round_retry`).
        """
        participants = list(participants)
        tracer = self.sim.tracer if trace_txn is not None else None
        start = self.sim.now
        args = None
        if self._fault_mode:
            votes, args = yield from self._vote_round_retry(participants, make_message)
        else:
            events = self.request_each(participants, make_message)
            timeout = self.sim.deadline(self.config.timeouts.prepare_timeout_us)
            votes = VoteCollector(self.sim, events)
            yield self.sim.any_of([votes, timeout])
            if tracer is not None and not votes.triggered:
                # The round resolved by *waiting out the crash-guard
                # deadline*, not by votes: with no fault plan that takes a
                # participant whose queue delayed its vote past the guard.
                silent = [str(p) for p, e in zip(participants, events) if not e.triggered]
                tracer.span(
                    "wait.ambiguous_guard",
                    start,
                    txn=trace_txn,
                    node=self.node_id,
                    args={"outcome": "guard-timeout", "round": "prepare", "silent": silent},
                )
        if tracer is not None:
            tracer.span("rpc.prepare", start, txn=trace_txn, args=args)
        return votes.value if votes.triggered else (False, [])

    def _vote_round_retry(self, participants, make_message):
        """The fault-mode vote round: unanswered prepares are re-driven.

        A participant that restarts gets its prepare again on its
        :class:`Rejoin`, its handler made idempotent by
        :meth:`admit_prepare`; prepares the fallback timer finds unanswered
        are re-sent in a silent wave, and a participant still silent after
        ``prepare_retry_limit`` such waves is declared dead: the round fails
        within ``(limit + 1) * crash_resubscribe_us`` instead of idling out
        the coarse guard.  Returns the collector and, for a round that
        needed a re-send, the ``rpc.prepare`` span args: ``resends`` and
        ``silent`` for the silent waves, ``rejoined`` for the Rejoin ones.
        """
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
        return votes, args or None

    def admit_prepare(self, message, recorded_vote) -> bool:
        """Fault-mode guard making a prepare handler idempotent under re-sends.

        ``recorded_vote(txn_id)`` looks up the vote the protocol's durable
        prepared state holds for a transaction (``None`` for none).  A prepare
        whose round this node already *decided* is ignored — nobody waits
        for the answer, and voting again would pin locks no second decision
        releases; one racing its still-running original is dropped (the
        original answers, and the coordinator counts either reply); one
        already *voted and undecided* gets the same vote again, with no
        second lock, clock tick or queue entry.  Returns ``True`` for a
        first delivery, which the handler must end with :meth:`cast_vote`.
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
        """Answer ``prepare`` and close its in-flight window (any mode)."""
        self._preparing.discard(prepare.txn_id)
        self.respond(prepare, vote)

    def reliable_request(self, destination, make_message, trace_txn=None, trace_name="request"):
        """RPC generator: one request, re-driven in fault mode until answered.

        Fail-free this is exactly a plain ``yield self.request(...)``.  In
        fault mode the request is re-sent (:meth:`redrive`) until a reply
        arrives — the handler must be idempotent.  Returns the reply.
        """
        return self._traced_round(
            self._reliable_request, trace_txn, trace_name, destination, make_message
        )

    def _reliable_request(self, destination, make_message, rejoined=None):
        if not self._fault_mode:
            reply = yield self.request(destination, make_message())
            return reply
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
        destination — ROCOCO's per-key pieces do).  Fail-free this is
        exactly the historical ``all_of`` wave.  In fault mode unanswered
        requests are re-driven (:meth:`redrive`) — a crashed destination
        answers after its restart, so handlers of messages sent through
        this helper must be idempotent.  Returns ``{item: reply}``.
        """
        return self._traced_round(
            self._request_round, trace_txn, trace_name, items, destination_of, make_message
        )

    def _request_round(self, items, destination_of, make_message, rejoined=None):
        if not self._fault_mode:
            items = list(items)
            events = [
                self.request(destination_of(item), make_message(item))
                for item in items
            ]
            yield self.sim.all_of(events)
            return {item: event.value for item, event in zip(items, events)}
        requests = RoundRequests(self, items, destination_of, make_message, "round_retries")
        events = requests.events
        yield from requests.redrive(
            self.sim.all_of(events), lambda: all(e.triggered for e in events), rejoined
        )
        return {item: event.value for item, event in zip(requests.items, events)}

    def request_all(self, destinations, make_message, trace_txn=None, trace_name="round"):
        """:meth:`request_round` specialized to one request per destination."""
        return self.request_round(
            destinations,
            lambda destination: destination,
            make_message,
            trace_txn=trace_txn,
            trace_name=trace_name,
        )

    # ------------------------------------------------------------------
    # Fault plane: crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop this node.

        The network drops all traffic to and from the node, the inbound
        queue and in-flight RPC correlation state are discarded, handler
        processes die at their next scheduling point (the epoch guard
        installed by fault mode), and the protocol's volatile state is
        dropped via :meth:`on_crash`.  Durable state — whatever the protocol
        treats as logged/persisted — survives untouched.
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
        # Fail in-flight RPCs: waiting handler processes die through the
        # epoch guard, while co-located *client* processes receive
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
            meta.crash_phase = meta.phase
            meta.phase = TransactionPhase.ABORTED
            meta.abort_reason = "coordinator-crash"
            meta.abort_time = self.sim.now
            self.counters["coordinator_crash_aborts"] += 1
            if tracer is not None:
                # These teardowns bypass _finish_abort, so close their
                # traces here — a torn-down transaction would otherwise
                # look identical to a genuinely stuck one.
                self._trace_txn_end(meta, "torn-down")
        self.on_crash()

    def restart(self) -> None:
        """Rejoin the network, replay durable state, announce it (:class:`Rejoin`)."""
        if not self.crashed:
            return
        self.crashed = False
        self.counters["restarts"] += 1
        self.network.recover(self.node_id)
        tracer = self.sim.tracer
        if tracer is not None:
            down_since = getattr(self, "_trace_down_since", None)
            if down_since is not None:
                tracer.span("node.down", down_since, node=self.node_id)
                self._trace_down_since = None
            tracer.instant("node.restart", node=self.node_id)
        self.on_restart()
        if tracer is not None:
            # Durable-state replay runs synchronously inside on_restart, so
            # this marks its completion point on the node track.
            tracer.instant("node.recovered", node=self.node_id)
        for peer in range(self.config.n_nodes):
            if peer != self.node_id:
                self.send(peer, Rejoin())

    def on_crash(self) -> None:
        """Protocol hook: drop volatile state (lock tables, prepare buffers)."""

    def on_restart(self) -> None:
        """Protocol hook: replay durable state after a restart."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        stats = dict(self.counters)
        stats["messages_handled"] = self.messages_handled
        return stats
