"""RPC rounds: one request path, re-driven when a message can be lost.

Every round is a :class:`RoundRequests` waited for through
:meth:`RoundsMixin.redrive`.  :class:`RoundsMixin` is inherited by
:class:`~repro.protocols.runtime.ProtocolRuntime`, which declares the
state it uses.
"""

from __future__ import annotations

from typing import List

from repro.common.ids import TransactionId
from repro.protocols.stream import Rejoin
from repro.sim.events import Event
from repro.sim.process import Interrupt


class VoteCollector(Event):
    """Event firing once a 2PC-style vote round is decided.

    It registers one callback per vote, once, however many waves the round
    takes; it fails fast on the first unsuccessful vote (any reply with a
    falsy ``success`` attribute) and fires with ``(outcome, votes)`` once the
    round is decided.  Shared by SSS and the 2PC-style baselines; SSS hands the
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
        """:meth:`RoundsMixin.redrive` over these requests."""
        return self.node.redrive(target, self.waiting, self.resend, done, rejoined, limit)


class RoundsMixin:
    """RPC-round methods mixed into :class:`~repro.protocols.runtime.ProtocolRuntime`."""

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
