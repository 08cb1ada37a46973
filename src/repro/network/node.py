"""Base class for protocol nodes.

:class:`NetworkedNode` provides the machinery every protocol node (SSS, the
2PC baseline, Walter, ROCOCO) needs:

* the arrival of a message (:meth:`NetworkedNode.enqueue`, the engine entry
  :class:`~repro.network.transport.Network` pushes per message) and the
  prioritized inbound queue behind it,
* a dispatcher that serves the queue one message at a time, charging a
  per-message CPU handling cost (this is what makes a node saturate under
  load),
* handler registration by message class — handlers may be plain functions or
  generator functions; generator handlers are spawned as simulation
  processes so they can block on further events,
* request/response helpers that correlate replies to requests via
  ``reply_to`` and return awaitable events,
* crash-aware dispatch for the fault plane: when fault mode is enabled
  (:meth:`NetworkedNode.enable_fault_mode`: a message can be lost), handler
  processes carry the node's *epoch* and die at their next scheduling point
  after a crash bumped it — modelling the loss of all in-progress work of a
  crash-stopped process.  A run that never enables it pays nothing beyond
  one attribute check per delivery.

Protocol subclasses register their handlers in ``__init__`` and use
``self.send`` / ``self.request`` / ``self.respond``.
"""

from __future__ import annotations

import inspect
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Type

from repro.common.config import ServiceTimeConfig
from repro.common.errors import NodeCrashedError
from repro.common.ids import NodeId
from repro.network.message import Message
from repro.sim.engine import DELIVERY_KEY_MASK
from repro.sim.events import Event
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.transport import Network
    from repro.sim.engine import Simulation


class NetworkedNode:
    """A cluster node attached to a :class:`~repro.network.transport.Network`."""

    def __init__(
        self,
        sim: "Simulation",
        network: "Network",
        node_id: NodeId,
        service: Optional[ServiceTimeConfig] = None,
    ):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.service = service or ServiceTimeConfig()
        # Messages that arrived while another was being served, as a heap of
        # (priority, arrival number, message).  ``_serving`` is true from the
        # instant a message starts its handling time until the queue is empty.
        self._inbound: List[Tuple[int, int, Message]] = []
        self._arrivals = 0
        self._serving = False
        self._handling_us = self.service.message_handling_us
        # message type -> (handler, process name); the name is None for a
        # plain function.  Whether a handler needs to be spawned as a process
        # is decided once at registration instead of via inspect on every
        # delivery.
        self._handlers: Dict[Type[Message], Tuple[Callable, Optional[str]]] = {}
        self._pending_replies: Dict[int, Event] = {}
        self.messages_handled = 0
        # Fault plane: ``crashed`` gates delivery, ``_epoch`` invalidates
        # handler processes spawned before a crash, ``_fault_mode`` says a
        # message can be lost and keeps the guard machinery off the hot path
        # of a run where none can.
        self.crashed = False
        self._epoch = 0
        self._fault_mode = False
        network.register(self)

    # ------------------------------------------------------------- handlers
    def register_handler(self, message_type: Type[Message], handler: Callable) -> None:
        """Register ``handler`` for messages of ``message_type``.

        The handler receives the message as its single argument.  If the
        handler is a generator function it is spawned as a new simulation
        process, allowing it to ``yield`` further events (remote calls, lock
        waits, condition waits).
        """
        self._handlers[message_type] = (
            handler,
            self._process_name(message_type) if inspect.isgeneratorfunction(handler) else None,
        )

    def _process_name(self, message_type: Type[Message]) -> str:
        return f"node{self.node_id}.{message_type.__name__}"

    def _resolve_handler(self, message_type: Type[Message]) -> Tuple[Callable, Optional[str]]:
        """First delivery of a subclass of a registered type: cache its entry."""
        for klass, (handler, name) in self._handlers.items():
            if issubclass(message_type, klass):
                entry = (handler, name and self._process_name(message_type))
                self._handlers[message_type] = entry
                return entry
        raise LookupError(f"node {self.node_id} has no handler for {message_type.__name__}")

    # ------------------------------------------------------------- messaging
    def send(self, destination: NodeId, message: Message) -> None:
        """Fire-and-forget send."""
        self.network.send(self.node_id, destination, message)

    def request(self, destination: NodeId, message: Message) -> Event:
        """Send ``message`` and return an event firing with the reply.

        The reply is matched by the responder calling :meth:`respond` with
        the original request, which copies the request's ``msg_id`` into the
        response's ``reply_to`` field.  While this node is crashed (fault
        plane), the request fails immediately with
        :class:`~repro.common.errors.NodeCrashedError` so co-located client
        processes do not park forever on a reply that can never come.
        """
        event = Event(self.sim, "reply")
        if self.crashed:
            event.fail(NodeCrashedError(f"node {self.node_id} is crashed"))
            return event
        self._pending_replies[message.msg_id] = event
        self.network.send(self.node_id, destination, message)
        return event

    def respond(self, request: Message, response: Message) -> None:
        """Send ``response`` back to the sender of ``request``."""
        response.reply_to = request.msg_id
        self.network.send(self.node_id, request.sender, response)

    # ------------------------------------------------------------ inbound path
    def enqueue(self, message: Message) -> None:
        """A message reaches this node: the engine entry the transport pushed.

        A destination that crashed while the message was in flight drops it.
        Otherwise it counts as delivered, and an idle node starts on it at
        once while a busy one queues it by priority, then arrival.  The
        ``int()`` conversion is deliberate: the priority-flattening ablation
        benchmark hooks ``MessagePriority.__int__`` to collapse the priority
        classes.  Tests call this directly for a message that was never sent.
        """
        network = self.network
        sim = self.sim
        tracer = sim.tracer
        type_name = message.type_name
        if network._crashed and self.node_id in network._crashed:
            network.stats.dropped[type_name] += 1
            if tracer is not None:
                tracer.message(
                    "msg.dropped", getattr(message, "txn_id", None), self.node_id, kind=type_name
                )
            return
        message.deliver_time = sim._now
        network.stats.delivered[type_name] += 1
        if tracer is not None:
            # The flow id is the sender-local delivery key: the low bits of
            # the key of the engine entry that is executing this arrival.
            tracer.message(
                "msg.recv",
                getattr(message, "txn_id", None),
                self.node_id,
                flow=sim._ekey_key & DELIVERY_KEY_MASK,
                kind=type_name,
            )
        if self._serving:
            heappush(self._inbound, (int(message.priority), self._arrivals, message))
            self._arrivals += 1
            return
        self._serving = True
        # The hand-off to an idle dispatcher counts as one processed event,
        # as the dequeue of a queued message does in _serve: events/sec stays
        # comparable with the BENCH baselines taken when both were events.
        sim._event_count += 1
        self._start(message)

    def _start(self, message: Message) -> None:
        """Serve ``message`` once its CPU handling time has passed."""
        if self._handling_us > 0:
            sim = self.sim
            sim._event_count += 1  # the CPU charge, counted like a process's numeric yield
            sim._push(sim._now + self._handling_us, self._serve, message)
        else:
            self._serve(message)

    def _serve(self, message: Message) -> None:
        """Handle ``message``, then start on the next queued one or go idle."""
        self.messages_handled += 1
        # Fault plane: a crashed node processes nothing.  The arrival already
        # drops traffic to crashed nodes; this guard covers messages that
        # were queued or in their handling time when the crash hit (and is
        # only ever reached in fault mode).
        if not (self._fault_mode and self.crashed):
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.message(
                    "msg.handle",
                    getattr(message, "txn_id", None),
                    self.node_id,
                    kind=message.type_name,
                )
            if message.reply_to is not None:
                # Replies to outstanding requests complete the request event
                # directly and bypass handler dispatch.  A reply with no
                # matching request is stale — its request state died with a
                # crash, or its round ended without it (a fail-fast vote
                # round retires its unanswered prepares) — and is dropped.
                pending = self._pending_replies.pop(message.reply_to, None)
                if pending is not None and not pending.triggered:
                    pending.succeed(message)
            else:
                message_type = type(message)
                entry = self._handlers.get(message_type)
                if entry is None:
                    entry = self._resolve_handler(message_type)
                handler, name = entry
                if name is None:
                    handler(message)
                else:
                    generator = handler(message)
                    if self._fault_mode:
                        generator = self._epoch_guard(generator, self._epoch)
                    Process(self.sim, generator, name)
        if self._inbound:
            self.sim._event_count += 1
            self._start(heappop(self._inbound)[2])
        else:
            self._serving = False

    def drop_inbound(self) -> int:
        """Discard every queued message (crash semantics); returns the count.

        A message already in its handling time is not in the queue; it is
        dropped on delivery, by the crash guard of :meth:`_serve`.
        """
        dropped = len(self._inbound)
        self._inbound.clear()
        return dropped

    # ------------------------------------------------------------ fault plane
    def enable_fault_mode(self) -> None:
        """Arm the crash/epoch machinery: from now on a message can be lost.

        Done by the fault installer, or by ``Network.crash``.  It costs one
        wrapper generator per handler process here, plus what the protocol
        layer re-sends and records (ARCHITECTURE.md, "Fault-only mechanisms").
        """
        self._fault_mode = True

    def spawn_process(self, generator, name: str = ""):
        """Spawn a node-owned simulation process.

        In fault mode the process is epoch-guarded: it dies at its next
        scheduling point once the node crashes, like the handler processes.
        Protocol code must use this (not ``sim.process``) for any background
        work that conceptually lives inside the node.
        """
        if self._fault_mode:
            generator = self._epoch_guard(generator, self._epoch)
        return Process(self.sim, generator, name)

    def _epoch_guard(self, generator, epoch: int):
        """Forward ``generator`` transparently until the node's epoch moves.

        The wrapper adds no simulation events of its own: every value the
        inner generator yields is yielded through unchanged, and every value
        or exception the engine sends back is forwarded.  When a crash bumps
        the node epoch, the inner generator is closed at its next resumption
        (running its ``finally`` blocks) and the process ends quietly —
        in-progress handler work dies with the node.
        """
        try:
            value = next(generator)
        except StopIteration as stop:
            return stop.value
        while True:
            if self._epoch != epoch:
                generator.close()
                return None
            try:
                received = yield value
            except BaseException as thrown:  # noqa: BLE001 - forward everything
                if self._epoch != epoch:
                    generator.close()
                    return None
                try:
                    value = generator.throw(thrown)
                except StopIteration as stop:
                    return stop.value
                continue
            if self._epoch != epoch:
                generator.close()
                return None
            try:
                value = generator.send(received)
            except StopIteration as stop:
                return stop.value

    # ------------------------------------------------------------ conveniences
    def cpu(self, micros: float) -> float:
        """Return an awaitable modelling ``micros`` of local CPU work.

        The returned plain number is the engine's allocation-free timeout
        fast path; it is only meaningful when yielded from a simulation
        process.
        """
        return micros

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} id={self.node_id}>"
