"""Generator-based cooperative processes for the simulation engine.

A process body is a Python generator function.  Each ``yield`` hands an
awaitable (:class:`~repro.sim.events.Event` or subclass) back to the engine;
the process is resumed when that awaitable triggers, receiving the awaitable's
value as the result of the ``yield`` expression.  Yielding a plain ``float``
or ``int`` is the allocation-free equivalent of yielding a value-less
``Timeout`` of that many microseconds — the fast path used for CPU service
charges.  A process is itself an :class:`~repro.sim.events.Event` that
triggers with the generator's return value, so processes can wait for each
other.

Example
-------
::

    def client(sim, store):
        yield Timeout(sim, 10)                 # think for 10 us
        value = yield store.read("x")          # wait for a read to complete
        return value

    proc = sim.process(client(sim, store))
    sim.run()
    assert proc.value == ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.common.errors import SimulationError
from repro.sim.events import _PENDING, Condition, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class ProcessKilled(Exception):
    """Thrown into a process generator when :meth:`Process.kill` is called."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""


class Process(Event):
    """A running simulation process wrapping a generator.

    The process triggers (as an event) when its generator returns or raises.
    A generator ``return value`` becomes the process's event value; an
    uncaught exception makes the process fail, which propagates to any
    process waiting on it and, if nothing waits, surfaces from
    :meth:`Simulation.run` to avoid silently swallowed errors.
    """

    __slots__ = ("generator", "_waiting_on", "_killed")

    def __init__(self, sim: "Simulation", generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator (did you forget to call the "
                "generator function?)"
            )
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self._killed = False
        # Start the process synchronously, advancing the generator to its
        # first yield.  Spawning is a per-message operation (every generator
        # handler dispatch creates a process), and the deferred start cost
        # one heap entry plus one event-loop round-trip per spawn; the
        # inline start runs the same code at the same simulated time, only
        # without the scheduler detour.  The creator is the running process
        # again once the new one yields.
        caller = sim.active_process
        self._resume(None)
        sim.active_process = caller

    # -- engine interface ---------------------------------------------------
    def _resume(self, event: Optional[Event]) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        if self._value is not _PENDING or self._exception is not None:
            return
        self._waiting_on = None
        sim = self.sim
        sim.active_process = self
        try:
            if event is None:
                target = self.generator.send(None)
            elif event._exception is not None:
                target = self.generator.throw(event._exception)
            else:
                target = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled:
            self.succeed(None)
            return
        except BaseException as exc:  # noqa: BLE001 - must propagate any failure
            self.fail(exc)
            sim._note_crashed_process(self, exc)
            return

        cls = target.__class__
        if cls is float or cls is int:
            # Plain-number yield: resume after that many microseconds.  This
            # is the allocation-free fast path for CPU service charges (no
            # Timeout event is created; the generator receives None, exactly
            # as it would from a value-less Timeout).  Count one extra
            # processed event so the events/sec metric stays comparable with
            # the reference two-pass timeout machinery.
            sim._event_count += 1
            sim._push(sim._now + target, self._resume, None)
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(f"process {self.name!r} yielded {target!r}, expected an Event")
            )
            return
        # Inlined add_callback: the common case is a pending target.
        if target._value is _PENDING and target._exception is None:
            self._waiting_on = target
            target.callbacks.append(self._resume)
        else:
            self._waiting_on = target
            sim._schedule_callback(target, self._resume)

    # -- public API -----------------------------------------------------------
    def interrupt(self) -> None:
        """Throw :class:`Interrupt` into the process at its pending yield, at
        the current time (SimPy's ``Process.interrupt``); no-op once it fired."""
        waiting = self._waiting_on
        if self.triggered or waiting is None or waiting.triggered:
            return
        waiting.callbacks.remove(self._resume)
        self._waiting_on = event = Event(self.sim, "interrupt")
        event.callbacks.append(self._resume)
        event.fail(Interrupt())

    def kill(self) -> None:
        """Terminate the process at the next opportunity.

        The process generator receives :class:`ProcessKilled` at its current
        yield point; ``finally`` blocks run normally.  Killing an already
        finished process is a no-op.
        """
        if self.triggered or self._killed:
            return
        self._killed = True
        waiting = self._waiting_on
        if isinstance(waiting, Condition):
            waiting.cancel()
        self._waiting_on = None
        try:
            self.generator.throw(ProcessKilled())
        except (StopIteration, ProcessKilled):
            pass
        except BaseException as exc:  # noqa: BLE001
            self.fail(exc)
            self.sim._note_crashed_process(self, exc)
            return
        if not self.triggered:
            self.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the process generator has not finished."""
        return not self.triggered
