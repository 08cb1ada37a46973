"""Per-key shared/exclusive lock table with acquisition timeouts.

The 2PC prepare phase of SSS (Algorithm 2) and of the 2PC-baseline acquires
exclusive locks on the write-set keys and shared locks on the read-set keys
stored by the participant.  The paper avoids distributed deadlocks by giving
lock acquisition a timeout (1 ms on their cluster); a timed-out prepare votes
``no`` and the transaction aborts.

:class:`LockTable` implements that model on simulated time:

* ``acquire_all`` acquires a set of keys in a canonical (sorted) order to cut
  down on local deadlocks, waiting in FIFO order behind incompatible holders,
  and gives up when the per-acquisition timeout budget is exhausted —
  releasing everything it had obtained.
* Shared locks are compatible with shared locks; exclusive locks are
  compatible with nothing.  A transaction that already holds an exclusive
  lock implicitly holds the shared lock; a shared holder that is the only
  holder may upgrade to exclusive.
* A key's state exists only while the key has a holder or a waiter: the
  table follows the locks in use, not every key ever locked.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Set, Tuple

from repro.common.ids import TransactionId

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class _KeyLockState:
    """Lock state of a single key."""

    holders: Dict[TransactionId, LockMode] = field(default_factory=dict)
    waiters: Deque[Tuple[TransactionId, LockMode, object]] = field(default_factory=deque)

    def compatible(self, txn_id: TransactionId, mode: LockMode) -> bool:
        """Can ``txn_id`` obtain ``mode`` given current holders?"""
        others = {t: m for t, m in self.holders.items() if t != txn_id}
        if not others:
            return True
        if mode is LockMode.SHARED:
            return all(m is LockMode.SHARED for m in others.values())
        return False


class LockTable:
    """Lock manager for the keys stored by one node."""

    def __init__(self, sim: "Simulation", name: str = "", owner=None):
        self.sim = sim
        self.name = name
        #: Owning node id, used to place lock-wait trace spans on its track.
        self.owner = owner
        self._keys: Dict[object, _KeyLockState] = {}
        self.acquired_count = 0
        self.timeout_count = 0

    # ------------------------------------------------------------ primitives
    def _state(self, key: object) -> _KeyLockState:
        if key not in self._keys:
            self._keys[key] = _KeyLockState()
        return self._keys[key]

    def _drop_if_idle(self, key: object, state: _KeyLockState) -> None:
        """Forget ``key``'s state once nobody holds or waits for it."""
        if not state.holders and not state.waiters and self._keys.get(key) is state:
            del self._keys[key]

    def holders(self, key: object) -> Dict[TransactionId, LockMode]:
        """Current holders of ``key`` (copy)."""
        state = self._keys.get(key)
        return dict(state.holders) if state is not None else {}

    def holds(self, txn_id: TransactionId, key: object) -> bool:
        state = self._keys.get(key)
        return state is not None and txn_id in state.holders

    def try_acquire(self, txn_id: TransactionId, key: object, mode: LockMode) -> bool:
        """Non-blocking acquisition attempt."""
        state = self._state(key)
        current = state.holders.get(txn_id)
        if current is LockMode.EXCLUSIVE or current is mode:
            return True
        if current is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
            # Upgrade allowed only when we are the sole holder.
            if len(state.holders) == 1:
                state.holders[txn_id] = LockMode.EXCLUSIVE
                return True
            return False
        if state.compatible(txn_id, mode) and not state.waiters:
            state.holders[txn_id] = mode
            self.acquired_count += 1
            return True
        return False

    def release(self, txn_id: TransactionId, keys: Iterable[object]) -> None:
        """Release ``txn_id``'s locks on ``keys`` and wake eligible waiters."""
        for key in keys:
            state = self._keys.get(key)
            if state is None:
                continue
            if txn_id in state.holders:
                del state.holders[txn_id]
            self._grant_waiters(key, state)
            self._drop_if_idle(key, state)

    def release_all(self, txn_id: TransactionId) -> None:
        """Release every lock held by ``txn_id`` (abort cleanup)."""
        for key, state in list(self._keys.items()):
            if txn_id in state.holders:
                del state.holders[txn_id]
                self._grant_waiters(key, state)
                self._drop_if_idle(key, state)

    def reset_except(self, keep) -> None:
        """Crash semantics with durable prepared state.

        Drops every waiter and every holder whose transaction is not in
        ``keep`` — the textbook participant model where only *prepared*
        transactions' locks survive recovery (and keep blocking, which is
        2PC's in-doubt window).
        """
        for key, state in list(self._keys.items()):
            state.waiters.clear()
            for txn_id in [t for t in state.holders if t not in keep]:
                del state.holders[txn_id]
            self._drop_if_idle(key, state)

    def _grant_waiters(self, key: object, state: _KeyLockState) -> None:
        """Grant queued waiters in FIFO order while compatible."""
        while state.waiters:
            txn_id, mode, event = state.waiters[0]
            if event.triggered:
                state.waiters.popleft()
                continue
            if not state.compatible(txn_id, mode):
                break
            state.waiters.popleft()
            state.holders[txn_id] = mode
            self.acquired_count += 1
            event.succeed(True)

    # ------------------------------------------------------------ blocking API
    def acquire_all(
        self,
        txn_id: TransactionId,
        exclusive_keys: Iterable[object],
        shared_keys: Iterable[object] = (),
        timeout_us: float = 1_000.0,
    ):
        """Process generator acquiring all requested locks or giving up.

        Yields simulation events; the generator's return value is ``True``
        when every lock was obtained and ``False`` on timeout (in which case
        every lock obtained along the way has been released).

        Use as ``ok = yield from lock_table.acquire_all(...)`` inside a node
        handler process.
        """
        exclusive = sorted(set(exclusive_keys), key=repr)
        shared = sorted(set(shared_keys) - set(exclusive), key=repr)
        plan: List[Tuple[object, LockMode]] = [
            (key, LockMode.EXCLUSIVE) for key in exclusive
        ] + [(key, LockMode.SHARED) for key in shared]
        acquired: Set[object] = set()
        deadline = self.sim.now + timeout_us

        for key, mode in plan:
            if self.try_acquire(txn_id, key, mode):
                acquired.add(key)
                continue
            remaining = deadline - self.sim.now
            if remaining <= 0:
                self._abandon(txn_id, acquired)
                return False
            state = self._state(key)
            tracer = self.sim.tracer
            if tracer is not None:
                wait_start = self.sim.now
                # The holders at queue time are who this transaction is
                # blocked behind — the causal links of the wait span.
                blocked_on = sorted(t for t in state.holders if t != txn_id)
            grant = self.sim.event(name=f"lock-wait:{key}")
            state.waiters.append((txn_id, mode, grant))
            expiry = self.sim.timeout(remaining)
            yield self.sim.any_of([grant, expiry])
            # Check the grant event itself rather than the AnyOf value: the
            # grant may have been handed to us at the same instant the
            # timeout fired, and it must not be leaked in that case.
            if grant.triggered:
                acquired.add(key)
                if tracer is not None:
                    tracer.span(
                        "wait.lock",
                        wait_start,
                        txn=txn_id,
                        node=self.owner,
                        link=blocked_on,
                        args={"key": str(key), "outcome": "granted"},
                    )
            else:
                # Timed out while queued: withdraw the waiter and give up.
                state.waiters = deque(waiter for waiter in state.waiters if waiter[2] is not grant)
                self._drop_if_idle(key, state)
                self.timeout_count += 1
                if tracer is not None:
                    tracer.span(
                        "wait.lock_timeout",
                        wait_start,
                        txn=txn_id,
                        node=self.owner,
                        link=blocked_on,
                        args={"key": str(key), "outcome": "timeout"},
                    )
                self._abandon(txn_id, acquired)
                return False
        return True

    def _abandon(self, txn_id: TransactionId, acquired: Set[object]) -> None:
        if acquired:
            self.release(txn_id, acquired)

    # ------------------------------------------------------------ inspection
    def locked_keys(self) -> List[object]:
        """Keys currently held by at least one transaction."""
        return [key for key, state in self._keys.items() if state.holders]

    def waiting_count(self) -> int:
        """Number of queued (not yet granted) waiters across all keys."""
        return sum(len(state.waiters) for state in self._keys.values())
