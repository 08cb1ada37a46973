"""Simulated synchronization resources.

:class:`SimLock` is a FIFO mutual-exclusion lock whose ``acquire`` returns an
event; used for coarse node-level critical sections (e.g. the ``atomically``
annotation on the Decide handler in Algorithm 2).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class SimLock:
    """FIFO mutual exclusion lock in simulated time."""

    def __init__(self, sim: "Simulation", name: str = ""):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        """Return an event that fires when the caller holds the lock."""
        event = self.sim.event(name=f"lock-acquire:{self.name}")
        if not self._locked:
            self._locked = True
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release the lock, handing it to the next waiter if any."""
        if not self._locked:
            raise RuntimeError(f"release of unlocked SimLock {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False
