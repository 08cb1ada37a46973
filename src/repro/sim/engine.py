"""The discrete-event simulation kernel.

:class:`Simulation` owns the virtual clock and the event heap.  Everything in
the reproduction — network message delivery, protocol handler execution,
client think time, lock timeouts — is expressed as events scheduled on one
:class:`Simulation` instance, which makes runs fully deterministic and
reproducible from a single seed.

Hot-path design
---------------
The event loop executes hundreds of thousands of callbacks per simulated
second, so the kernel avoids per-event allocations wherever possible:

* heap entries are plain ``(time, key, func, arg)`` tuples — scheduling never
  allocates a closure; ``func(arg)`` is invoked directly, with a private
  sentinel marking zero-argument callables;
* the run loop hoists the heap and ``heappop`` into locals and pops exactly
  once per event (an event past the ``until`` horizon is pushed back, which
  preserves its original key and therefore the replay order);
* :class:`~repro.sim.events.Timeout` and the network transport schedule
  bound methods with their argument in the heap entry instead of lambdas.

Unit-keyed event ordering
-------------------------
Tie-breaking at equal timestamps is *unit-local* rather than global: every
event belongs to an execution unit (a node id, or the control unit ``-1``
for scripted faults) and carries a packed integer key::

    key = ((unit + 1) << 81) | (lane << 80) | low

``lane 1`` holds ordinary events, whose ``low`` bits are a monotonic per-unit
counter.  ``lane 0`` holds message deliveries to the unit
(:meth:`Simulation.schedule_delivery`), one entry per message, whose ``low``
bits are the transport's sender-local ``(sender, per-sender sequence)`` key
— 80 bits wide because that key keeps the sequence in its low 44 bits and
the sender above them.  At one timestamp, control events run first
(``unit -1`` packs to the smallest keys), then in unit order each unit's
arrivals by ``(sender, sequence)`` followed by its own events in creation
order.  Neither the counter nor the delivery key depends on anything but
one unit's, or one sender's, own history — which is what allows the
node-sharded parallel engine (:mod:`repro.harness.parallel`) to replay an
identical order with only a subset of units present: a shard that imports a
cross-shard message pushes it under the very key the serial engine used.
Within a unit, creation order still breaks ties, so single-unit usage
behaves exactly like the old global-sequence kernel.

Histories are byte-for-byte reproducible across kernel versions for a fixed
seed (see the determinism tests in ``tests/unit/test_sim_engine.py`` and the
serial-vs-parallel equivalence tests in
``tests/unit/test_parallel_engine.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf, nextafter
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Condition, Event, Signal, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

# Sentinel argument marking a zero-argument callable in a heap entry.
_CALL0 = object()

#: Bit layout of the packed event key (see module docstring).
_UNIT_SHIFT = 81
_LANE1 = 1 << 80
#: Masks the transport's delivery key out of an executing lane-0 entry's key.
DELIVERY_KEY_MASK = _LANE1 - 1

#: The control unit that scripted fault-plane events execute under.
CTRL_UNIT = -1


class Simulation:
    """Event loop and virtual clock for one simulated cluster run.

    Parameters
    ----------
    seed:
        Root seed for the :class:`~repro.sim.rng.RngRegistry`; every random
        stream used by the cluster is derived from it.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_useq",
        "_unitp",
        "_ekey_time",
        "_ekey_key",
        "rng",
        "_crashed",
        "_event_count",
        "fault_log",
        "tracer",
        "active_process",
    )

    #: Events processed by every :meth:`run` call in this interpreter, summed
    #: once per call: a machine-independent cost of a test session.
    session_events = 0

    def __init__(self, seed: int = 1):
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Callable, object]] = []
        #: Per-unit monotonic sequence counters, indexed by ``unit + 1``
        #: (index 0 is the control unit).  Unit 0 exists from the start so
        #: bare ``Simulation`` usage needs no unit declarations.
        self._useq: List[int] = [0, 0]
        self._unitp = 1  # current scheduling unit, as unit + 1
        self._ekey_time: float = 0.0  # (time, key) of the executing event,
        self._ekey_key: int = 0  # exposed for shard-merge record tagging
        self.rng = RngRegistry(seed)
        self._crashed: List[Tuple[Process, BaseException]] = []
        self._event_count = 0
        #: Scripted fault-plane events (time, label), in scheduling order.
        self.fault_log: List[Tuple[float, str]] = []
        #: Optional :class:`repro.trace.recorder.TraceRecorder`.  ``None``
        #: (the default) keeps tracing at a single identity check per
        #: instrumented site; the kernel itself never consults it.
        self.tracer = None
        #: The :class:`~repro.sim.process.Process` whose generator is running
        #: (between events, the last one that ran).
        self.active_process: Optional[Process] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far (useful for progress stats)."""
        return self._event_count

    # ------------------------------------------------------------------ units
    def _ensure_unit(self, unitp: int) -> None:
        useqs = self._useq
        if unitp >= len(useqs):
            useqs.extend([0] * (unitp + 1 - len(useqs)))

    def declare_units(self, count: int) -> None:
        """Pre-size the per-unit counters for units ``0 .. count - 1``."""
        self._ensure_unit(count)

    def set_unit(self, unit: int) -> int:
        """Switch the scheduling unit context; returns the previous unit.

        Used by the cluster facade to charge construction-time scheduling
        (node timers, client spawns, preloads) to the owning node, and by the
        fault plane to charge a crash/restart's effects to its target node.
        The run loop overrides the context per event from the event's own
        key, so ``set_unit`` only matters outside event execution and for
        the first pushes of a control-unit callback.
        """
        prev = self._unitp - 1
        unitp = unit + 1
        self._ensure_unit(unitp)
        self._unitp = unitp
        return prev

    # --------------------------------------------------------------- creation
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event firing ``delay`` microseconds from now."""
        return Timeout(self, delay, value=value)

    def signal(self, name: str = "") -> Signal:
        """Create a broadcast :class:`Signal` for condition waiters."""
        return Signal(self, name=name)

    def condition(self, predicate: Callable[[], bool], signals, name: str = "") -> Condition:
        """Create a :class:`Condition` firing when ``predicate()`` is true."""
        if isinstance(signals, Signal):
            signals = [signals]
        return Condition(self, predicate, signals, name=name)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def process(self, generator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    # -------------------------------------------------------------- scheduling
    def _push(self, time: float, func: Callable, arg) -> None:
        if time < self._now - 1e-9:
            raise SimulationError(f"cannot schedule in the past: {time} < now {self._now}")
        unitp = self._unitp
        useqs = self._useq
        useq = useqs[unitp]
        useqs[unitp] = useq + 1
        heappush(self._heap, (time, (unitp << _UNIT_SHIFT) | _LANE1 | useq, func, arg))

    def schedule_delivery(self, time: float, unit: int, skey: int, func: Callable, arg) -> None:
        """Schedule ``func(arg)`` as the lane-0 entry ``skey`` of ``unit`` at ``time``.

        Deliveries sort *before* every ordinary event of the unit at the same
        timestamp, among themselves by ``skey``, and consume no per-unit
        sequence number: the entry's position is a function of the message
        alone, so it is the same whichever shard pushes it.  ``unit`` must
        have been declared (:meth:`declare_units`).
        """
        if time < self._now - 1e-9:
            raise SimulationError(f"cannot schedule in the past: {time} < now {self._now}")
        heappush(self._heap, (time, ((unit + 1) << _UNIT_SHIFT) | skey, func, arg))

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        """Schedule ``event``'s callbacks to run ``delay`` from now."""
        self._push(self._now + delay, self._dispatch, event)

    def _schedule_callback(
        self, event: Optional[Event], callback: Callable[[Optional[Event]], None]
    ) -> None:
        """Schedule a single callback with ``event`` as argument, at ``now``."""
        self._push(self._now, callback, event)

    def call_at(self, time: float, callback: Callable, arg=_CALL0) -> None:
        """Schedule ``callback`` at absolute ``time``.

        Without ``arg`` the callback is invoked with no arguments; passing
        ``arg`` invokes ``callback(arg)`` and saves callers a closure
        allocation on hot paths.
        """
        self._push(time, callback, arg)

    def call_after(self, delay: float, callback: Callable, arg=_CALL0) -> None:
        """Schedule ``callback`` (optionally with one argument) ``delay`` from now."""
        self._push(self._now + delay, callback, arg)

    def schedule_fault(self, at: float, callback: Callable, label: str = "") -> None:
        """Schedule a scripted fault-plane event at absolute time ``at``.

        Crash/restart/partition/slow-link events are first-class in the
        engine: they go through the same heap as every other event (so they
        interleave deterministically with protocol traffic) and are recorded
        in :attr:`fault_log` for experiment reports and tests.  Fault events
        execute under the control unit (:data:`CTRL_UNIT`), which sorts
        before every node unit at the same timestamp; a shard that installs
        the full fault plan therefore assigns the same control-unit keys the
        serial engine does, regardless of which nodes it owns.
        """
        self.fault_log.append((at, label))
        useqs = self._useq
        useq = useqs[0]
        useqs[0] = useq + 1
        heappush(self._heap, (at, _LANE1 | useq, callback, _CALL0))

    def _dispatch(self, event: Event) -> None:
        callbacks = event.callbacks
        if callbacks:
            event.callbacks = []
            for callback in callbacks:
                callback(event)

    def _note_crashed_process(self, process: Process, exc: BaseException) -> None:
        self._crashed.append((process, exc))

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Absolute simulated time at which to stop.  ``None`` runs until no
            scheduled events remain.

        Returns
        -------
        float
            The simulation time at which the loop stopped.

        Raises
        ------
        Exception
            If any process died with an uncaught exception during the run,
            the first such exception is re-raised after the loop stops, so
            protocol bugs never fail silently.
        """
        heap = self._heap
        crashed = self._crashed
        sentinel = _CALL0
        count = 0
        before = self._event_count
        try:
            # A process may have crashed before its first yield (processes
            # start inline at creation), with nothing scheduled to surface it.
            if crashed:
                process, exc = crashed[0]
                raise SimulationError(
                    f"process {process.name!r} crashed at t={self._now:.1f}"
                ) from exc
            while heap:
                entry = heappop(heap)
                time, key, func, arg = entry
                if until is not None and time > until:
                    heappush(heap, entry)
                    break
                self._now = time
                self._unitp = key >> _UNIT_SHIFT
                self._ekey_time = time
                self._ekey_key = key
                count += 1
                if arg is sentinel:
                    func()
                else:
                    func(arg)
                if crashed:
                    process, exc = crashed[0]
                    raise SimulationError(
                        f"process {process.name!r} crashed at t={self._now:.1f}"
                    ) from exc
        finally:
            self._event_count += count
            Simulation.session_events += self._event_count - before
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_window(self, until: float) -> float:
        """Run every event *strictly before* ``until``; end with ``now == until``.

        The parallel engine's window step.  Unlike :meth:`run` (which is
        inclusive of ``until``), events at exactly ``until`` stay in the heap:
        the barrier at ``until`` may still admit cross-shard messages due at
        that instant, and their lane-0 entries must sort before the local
        events of the same timestamp — so everything at ``until`` belongs to
        the *next* window.  The clock always lands exactly on ``until``.
        That is :meth:`run` with the horizon at the largest float below
        ``until``.
        """
        self.run(until=nextafter(until, -inf))
        self._now = until
        return self._now
