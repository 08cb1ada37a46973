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
* crash-aware processes for the fault plane: every handler process and
  every :meth:`NetworkedNode.spawn_process` carries the node's *epoch* and
  dies at its next resumption after a crash moved it
  (:class:`~repro.sim.process.Process` checks) — modelling the loss of all
  in-progress work of a crash-stopped process.

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
        # Fault plane: ``crashed`` gates delivery, ``_epoch`` ends the
        # processes spawned before a crash.
        self.crashed = False
        self._epoch = 0
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
        # were queued or in their handling time when the crash hit.
        if not self.crashed:
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
                self._dispatch(message)
        if self._inbound:
            self.sim._event_count += 1
            self._start(heappop(self._inbound)[2])
        else:
            self._serving = False

    def _dispatch(self, message: Message) -> Optional[Process]:
        """Run ``message``'s handler; a generator handler becomes a process
        of this node, which is returned."""
        message_type = type(message)
        entry = self._handlers.get(message_type)
        if entry is None:
            entry = self._resolve_handler(message_type)
        handler, name = entry
        if name is None:
            handler(message)
            return None
        return Process(self.sim, handler(message), name, self)

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
        """A message can now be lost (the fault installer, ``Network.crash``).
        Nothing changes at this layer: the protocol runtime arms its
        re-drives and its reliable channel."""

    def spawn_process(self, generator, name: str = ""):
        """Spawn a process of this node: like a handler process, it dies at
        its next resumption once the node crashes.  Protocol code must use
        this (not ``sim.process``) for any background work that conceptually
        lives inside the node.
        """
        return Process(self.sim, generator, name, self)

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
