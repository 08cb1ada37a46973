"""Awaitable primitives for the discrete-event simulation engine.

Processes (see :mod:`repro.sim.process`) communicate with the engine by
yielding instances of the classes defined here.  The design follows the
classic SimPy model: an :class:`Event` is a one-shot occurrence that carries a
value, a :class:`Timeout` is an event scheduled at ``now + delay``, and the
composite events :class:`AnyOf` / :class:`AllOf` fire when one / all of their
children have fired.

In addition to the SimPy-style primitives, the engine provides
:class:`Signal` and :class:`Condition`.  The SSS pseudo-code contains several
``wait until <predicate over mutable node state>`` steps (for example a read
request waiting until ``NLog.mostRecentVC[i] >= T.VC[i]``, or the pre-commit
phase waiting until no older read-only transaction remains in a snapshot
queue).  A :class:`Condition` binds such a predicate to one or more
:class:`Signal` objects; whenever a signal is notified the predicate is
re-evaluated and, if true, the condition fires.

All classes use ``__slots__``: protocol state mutations notify signals and
trigger events hundreds of thousands of times per run, and instance dicts
were a measurable share of the event loop's allocation volume.
:meth:`Signal.notify` returns without any allocation when no condition is
attached, which is the common case for snapshot-queue and commit-log signals
under read-dominated workloads.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Simulation

# Sentinel distinguishing "not yet fired" from "fired with value None".
_PENDING = object()


class Event:
    """A one-shot occurrence inside the simulation.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    makes it *triggered* and schedules all registered callbacks to run at the
    current simulation time.  Processes waiting on the event are resumed with
    the event's value, or have the failure exception thrown into them.
    """

    __slots__ = ("sim", "name", "_value", "_exception", "callbacks")

    def __init__(self, sim: "Simulation", name: str = ""):
        self.sim = sim
        self.name = name
        self._value = _PENDING
        self._exception: Optional[BaseException] = None
        self.callbacks: List[Callable[["Event"], None]] = []

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._value is not _PENDING and self._exception is None

    @property
    def value(self):
        """The value the event succeeded with."""
        if self._value is _PENDING and self._exception is None:
            raise SimulationError(f"event {self!r} has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering -------------------------------------------------------
    def succeed(self, value=None) -> "Event":
        """Mark the event as successful and schedule its callbacks.

        With nobody waiting there is nothing to schedule: a callback added
        later finds the event triggered and schedules itself
        (:meth:`add_callback`).  Most handler processes finish this way.
        """
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        if self.callbacks:
            self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event as failed; waiters get ``exception`` thrown."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        self.sim._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event triggers.

        If the event already triggered the callback is scheduled immediately
        (still asynchronously, preserving run-to-completion semantics).
        """
        if self._value is not _PENDING or self._exception is not None:
            self.sim._schedule_callback(self, callback)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.sim.now:.1f}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it was created."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value=None, name: str = ""):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # The name stays empty unless provided: formatting a label for every
        # CPU charge and think time is pure allocation overhead (__repr__
        # falls back to the class name).
        super().__init__(sim, name=name)
        self.delay = delay
        # Schedule the bound method with the value in the heap entry; no
        # closure is allocated for this extremely common operation.
        sim.call_after(delay, self._fire, value)

    def _fire(self, value) -> None:
        if self._value is _PENDING and self._exception is None:
            self._value = value
            # _fire runs directly from the event loop at the timeout's own
            # position, so the callbacks can run inline: run-to-completion is
            # preserved without a second trip through the heap.  The firing
            # still counts as one processed event so the events/sec metric
            # stays comparable with the two-pass implementation.
            callbacks = self.callbacks
            if callbacks:
                self.callbacks = []
                self.sim._event_count += 1
                for callback in callbacks:
                    callback(self)


class AnyOf(Event):
    """Composite event that fires when *any* child event fires.

    The value is a dict mapping the already-triggered child events to their
    values at the time the composite fired.  Firing detaches the composite
    from the children still pending: a round's long fallback timer would
    otherwise keep every decided round it ever guarded alive until it
    expires, and schedule a dispatch of callbacks with nothing left to do.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulation", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, _child: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        callback = self._on_child
        for event in self.events:
            if event._value is _PENDING and event._exception is None:
                event.callbacks.remove(callback)
        if _child._exception is not None:
            self.fail(_child._exception)
            return
        self.succeed(self._collect())

    def _collect(self) -> dict:
        return {
            e: e._value
            for e in self.events
            if e._value is not _PENDING and e._exception is None
        }


class AllOf(Event):
    """Composite event that fires when *all* child events have fired."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulation", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            raise SimulationError("AllOf requires at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        if child._exception is not None:
            self.fail(child._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e._value for e in self.events})


class Signal:
    """A broadcast notification channel for :class:`Condition` waiters.

    Protocol state that ``wait until`` predicates read (the node's NLog, a
    key's snapshot queue, the commit queue) owns a :class:`Signal`; every
    mutation calls :meth:`notify`, which re-evaluates all conditions bound to
    the signal.
    """

    __slots__ = ("sim", "name", "_conditions")

    def __init__(self, sim: "Simulation", name: str = ""):
        self.sim = sim
        self.name = name
        self._conditions: List["Condition"] = []

    def attach(self, condition: "Condition") -> None:
        self._conditions.append(condition)

    def detach(self, condition: "Condition") -> None:
        if condition in self._conditions:
            self._conditions.remove(condition)

    def notify(self) -> None:
        """Re-evaluate every attached condition, firing those now true."""
        conditions = self._conditions
        if not conditions:
            # Fast path: protocol state mutates far more often than anything
            # waits on it; skip the defensive copy entirely.
            return
        if len(conditions) == 1:
            # Single waiter: evaluating may detach it, which is safe without
            # copying because we do not continue iterating.
            conditions[0].evaluate()
            return
        # Iterate over a copy: firing a condition detaches it.
        for condition in list(conditions):
            condition.evaluate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Signal {self.name!r} waiters={len(self._conditions)}>"


class Condition(Event):
    """Event that fires as soon as ``predicate()`` becomes true.

    The predicate is evaluated once at construction time (so conditions that
    are already satisfied fire immediately) and then again every time one of
    the bound signals is notified.
    """

    __slots__ = ("predicate", "signals")

    def __init__(
        self,
        sim: "Simulation",
        predicate: Callable[[], bool],
        signals: Iterable[Signal],
        name: str = "",
    ):
        super().__init__(sim, name=name or "condition")
        self.predicate = predicate
        self.signals = list(signals)
        for signal in self.signals:
            signal.attach(self)
        self.evaluate()

    def evaluate(self) -> None:
        """Fire the condition if its predicate currently holds."""
        if self._value is not _PENDING or self._exception is not None:
            return
        if self.predicate():
            for signal in self.signals:
                signal.detach(self)
            self.succeed()

    def cancel(self) -> None:
        """Detach from all signals without firing (used on process kill)."""
        for signal in self.signals:
            signal.detach(self)


class ThresholdWaiters:
    """Waiters on one predicate that loosens as its integer argument falls.

    ``ready(target)`` must be monotone at every instant: if it holds for a
    target it holds for every smaller one (``wait until log >= target`` is
    the model case).  The waiters then sit in a heap by target, and a
    notification tests the smallest target only — when that one is not
    ready no other is — where one :class:`Condition` per waiter would
    re-run every predicate on every notification.

    The group is attached to its signals exactly while somebody waits, so a
    signal nobody waits on keeps its allocation-free :meth:`Signal.notify`.
    Waiters that become ready in the same notification fire in the order
    they started waiting, as separate conditions on the same signals would.
    """

    __slots__ = ("sim", "ready", "signals", "_waiting", "_arrivals")

    def __init__(self, sim: "Simulation", ready: Callable[[int], bool], signals: Iterable[Signal]):
        self.sim = sim
        self.ready = ready
        self.signals = list(signals)
        self._waiting: List[Tuple[int, int, Event]] = []  # heap of (target, arrival, event)
        self._arrivals = 0

    def wait(self, target: int, name: str = "") -> Event:
        """Return an event that fires as soon as ``ready(target)`` holds."""
        event = Event(self.sim, name=name or "threshold-wait")
        if self.ready(target):
            event.succeed()
            return event
        if not self._waiting:
            for signal in self.signals:
                signal.attach(self)
        heappush(self._waiting, (target, self._arrivals, event))
        self._arrivals += 1
        return event

    def evaluate(self) -> None:
        """Fire every waiter whose target is ready (called by the signals)."""
        waiting = self._waiting
        ready = self.ready
        if not ready(waiting[0][0]):
            return
        fired = [heappop(waiting)]
        while waiting and ready(waiting[0][0]):
            fired.append(heappop(waiting))
        if not waiting:
            for signal in self.signals:
                signal.detach(self)
        fired.sort(key=itemgetter(1))
        for _target, _arrival, event in fired:
            event.succeed()
