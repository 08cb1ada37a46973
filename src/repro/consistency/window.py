"""Windowed (online) consistency checking.

The post-hoc checkers in :mod:`repro.consistency.checkers` need the entire
history in memory — O(n) in committed transactions, which is exactly what a
"heavy traffic" run cannot afford.  This module checks the same properties
**as the run progresses** and discards transactions once they can no longer
participate in a new violation:

* Committed transactions arrive in external-commit order (the recorder is
  fed at the instant each client is answered, so the *commit frontier* —
  the latest external-commit time seen — is nondecreasing).  No future
  record can ever land behind the frontier.
* A new transaction's dependency and real-time edges only reach a bounded
  distance into the past: its begin time is at most the maximum transaction
  lifetime ago, and the versions it observed are at most the protocols'
  staleness bound old.  ``retention_us`` over-approximates that *ambiguous
  zone*; its default is derived from the cluster's
  :class:`~repro.common.config.TimeoutConfig` (:func:`default_retention_us`).
* Time is cut into fixed ``epoch_us`` epochs.  Epoch *E* **closes** when
  the frontier passes ``end(E) + retention_us``: at that point every
  transaction that could share a violation with E's transactions has been
  observed.  Closing runs the ordinary post-hoc checkers over the retained
  window and then prunes transactions older than ``end(E)`` (but see the
  version-order assumption below), remembering
  per key only the *identities* of pruned writers that an in-sync retained
  reader could still observe: every id newer than ``end(E) - retention_us``
  plus the single youngest id at or below that cutoff (the latest version
  as of the oldest instant such a reader's snapshot can reflect).  Older
  ids are shadowed by a younger write and expire into a fixed-size
  deterministic Bloom filter (:class:`_IdBloom`) — a crash-frozen replica
  under lazy replication can legally serve a version of unbounded age, so
  "was this id ever a committed writer?" must stay answerable forever, in
  O(1) space.

Verdicts are **sticky** (a violation found at any close stays reported) and
the retained window is bounded by ``retention_us + epoch_us`` worth of
transactions — memory no longer grows with run length.

Relation to the post-hoc oracle
-------------------------------
The post-hoc checkers remain the golden oracle;
``tests/unit/test_windowed_consistency.py`` asserts verdict equivalence on
every sweep shape the repo runs.  Equivalence holds under the bounded-window
assumption above: any violation whose transactions span at most
``retention_us`` of commit time is fully contained in the retained window at
some close (when its last transaction commits, nothing younger than
``frontier - retention_us`` has been pruned), so the oracle's cycle is found
verbatim.  A violation spanning *more* than the retention bound would be
missed — that is the assumption, not a bug, and the checker makes it
observable: reads that reach past the window are counted
(``stale_window_reads`` for reads of a pruned-but-remembered version, which
are legal bounded-staleness reads, and the snapshot checker's
unknown-writer violation for writers that were *never* committed — a
crashed coordinator's zombie read stays a violation because its writer was
never recorded, hence never pruned).

Reads of a pruned writer are rewritten to the *initial-version* observation
(``writer=None``) before checking.  That assumes every pruned writer of a
key precedes every retained writer in the key's version order, so the
rewrite preserves the anti-dependency edge target and the consistent-cut
verdict while letting the full transaction record go.  Commit order does
not guarantee it: a ROCOCO writer answers once all its pieces executed, so
one ordered earlier can answer later (a coordinator's restart completes
it).  A close therefore prunes a writer only when no transaction that stays
retained writes one of its keys at a smaller version hint; the others stay
until a later close.

Commit order does not bound reads either: a ROCOCO reader executes at its
order and can answer before the writer it read.  A close leaves out a
retained transaction that read a writer the window has never seen (not
retained, pruned or expired) and stays retained past the close; a later
close, or :meth:`WindowedConsistencyChecker.results`, checks it.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.ids import TransactionId
from repro.consistency.checkers import CHECKS, CheckResult, check_update_completion_order
from repro.consistency.history import CommittedTransaction

#: Check names the windowed checker knows, in run_all_checks order.
ALL_CHECKS: Tuple[str, ...] = tuple(CHECKS)


def default_retention_us(timeouts) -> float:
    """Ambiguous-zone bound derived from a :class:`TimeoutConfig`.

    A transaction's edges reach back at most one full lifetime.  Where a
    message can be lost, the retry envelope ``(prepare_retry_limit + 1) *
    crash_resubscribe_us`` bounds a vote round; a fail-free one has no timer
    (it ends once every participant voted, a vote waiting at most
    ``lock_timeout_us`` per lock), so there the envelope is headroom: the
    windowed recipes live at most 16.6 ms (SSS, 256 nodes).  The read-only
    restart wait bounds snapshot retries; twice the external-done wait covers
    the answer-to-record slack and the staleness of served snapshots.
    """
    return (
        (timeouts.prepare_retry_limit + 1) * timeouts.crash_resubscribe_us
        + timeouts.readonly_restart_wait_us
        + 2.0 * timeouts.external_done_wait_us
    )


class _IdBloom:
    """Deterministic fixed-size Bloom filter over transaction ids.

    Second memory tier for pruned-writer identities: a replica frozen by a
    crash can serve a version arbitrarily older than any time-based horizon
    (Walter's lazy propagation under a crash plan does exactly this), so the
    checker needs "was this id ever a committed writer?" membership for ids
    long since expired from the exact per-key maps — in O(1) space.  Hashing
    uses :func:`hashlib.blake2b` over the id's string form, so membership is
    identical across processes and ``PYTHONHASHSEED`` values.

    False positives only: a never-committed (zombie) writer that collides is
    misclassified as a legal bounded-staleness read.  At the default sizing
    (1 MiB, 4 probes) the rate stays under ~1% up to roughly 800k inserted
    ids; the post-hoc oracle is unaffected either way.
    """

    def __init__(self, bits: int = 1 << 23, hashes: int = 4):
        if bits % 8 or bits <= 0:
            raise ValueError("bits must be a positive multiple of 8")
        self.bits = bits
        self.hashes = hashes
        self._bytes = bytearray(bits // 8)
        self.added = 0

    def _positions(self, txn_id: TransactionId) -> Iterator[int]:
        digest = hashlib.blake2b(
            str(txn_id).encode("ascii"), digest_size=4 * self.hashes
        ).digest()
        for index in range(self.hashes):
            chunk = digest[4 * index : 4 * index + 4]
            yield int.from_bytes(chunk, "little") % self.bits

    def add(self, txn_id: TransactionId) -> None:
        self.added += 1
        for pos in self._positions(txn_id):
            self._bytes[pos >> 3] |= 1 << (pos & 7)

    def __contains__(self, txn_id: TransactionId) -> bool:
        return all(
            self._bytes[pos >> 3] & (1 << (pos & 7))
            for pos in self._positions(txn_id)
        )


class WindowedConsistencyChecker:
    """Epoch-windowed online consistency checking (see module docstring)."""

    def __init__(
        self,
        epoch_us: float = 5_000.0,
        retention_us: float = 60_000.0,
        checks: Sequence[str] = ALL_CHECKS,
        completion_tolerance_us: float = 25.0,
        max_violations: int = 25,
    ):
        if epoch_us <= 0 or retention_us <= 0:
            raise ValueError("epoch_us and retention_us must be positive")
        unknown = set(checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks {sorted(unknown)}; expected from {ALL_CHECKS}")
        self.epoch_us = float(epoch_us)
        self.retention_us = float(retention_us)
        self.checks = tuple(checks)
        self.completion_tolerance_us = completion_tolerance_us
        self.max_violations = max_violations
        self._check_fns: Dict[str, Callable] = {
            **CHECKS,
            "update-completion-order": lambda window: check_update_completion_order(
                window, tolerance_us=self.completion_tolerance_us
            ),
        }
        self._retained: Deque[CommittedTransaction] = deque()
        self._epoch_end = self.epoch_us
        # Identities of pruned writers, per key, in commit order (insertion
        # order of the inner dict).  A retained reader observes the latest
        # version of a key as of some instant no older than
        # ``threshold - retention_us``, so per key we must remember every
        # pruned writer newer than that cutoff *plus* the single youngest one
        # at or below it — older ids can never be referenced again and are
        # expired via the FIFO queue below (one entry per pruned write,
        # amortised O(1)).  Memory is bounded by touched keys plus the write
        # rate over one retention span, not by run length.
        self._pruned_writers: Dict[object, Dict[TransactionId, float]] = {}
        self._pruned_expiry: Deque[Tuple[float, object]] = deque()
        # Tier two: ids expired from the exact maps above live on in a
        # fixed-size Bloom filter, because a crash-frozen replica can serve
        # a version of unbounded age (see _IdBloom).
        self._expired_ids = _IdBloom()
        self._violations: Dict[str, List[str]] = {name: [] for name in self.checks}
        self._seen_violations: Dict[str, set] = {name: set() for name in self.checks}
        # results() of the history so far; the next observe() outdates it.
        self._results: Optional[Dict[str, CheckResult]] = None
        # Observability counters (surfaced by stats()/bench JSON).
        self.observed = 0
        self.epochs_closed = 0
        self.pruned = 0
        self.max_retained = 0
        self.stale_window_reads = 0

    # ------------------------------------------------------------------
    def observe(self, txn: CommittedTransaction) -> None:
        """Feed one committed transaction (external-commit order)."""
        self._results = None
        self._retained.append(txn)
        self.observed += 1
        if len(self._retained) > self.max_retained:
            self.max_retained = len(self._retained)
        frontier = txn.external_commit_time
        while frontier >= self._epoch_end + self.retention_us:
            self._close_epoch()

    def _close_epoch(self) -> None:
        """Check the retained window, then discard the closing epoch."""
        threshold = self._epoch_end
        retained = self._retained
        older: List[CommittedTransaction] = []
        while retained and retained[0].external_commit_time < threshold:
            older.append(retained.popleft())
        kept = self._unprunable(older)
        staying = {txn.txn_id for txn in kept}
        staying.update(txn.txn_id for txn in retained)
        self._run_checks(older + list(retained), staying)
        retained.extendleft(reversed(kept))
        for txn in older:
            if txn.txn_id in staying:
                continue
            self.pruned += 1
            commit = txn.external_commit_time
            for key in txn.writes:
                self._pruned_writers.setdefault(key, {})[txn.txn_id] = commit
                self._pruned_expiry.append((commit, key))
        # A queue entry (c, key) marks that once the cutoff passes c, every
        # pruned writer of ``key`` older than c is shadowed by the write at c
        # and can be forgotten.
        cutoff = threshold - self.retention_us
        expiry = self._pruned_expiry
        while expiry and expiry[0][0] <= cutoff:
            commit, key = expiry.popleft()
            ids = self._pruned_writers[key]
            while len(ids) > 1:
                oldest = next(iter(ids))
                if ids[oldest] < commit:
                    del ids[oldest]
                    self._expired_ids.add(oldest)
                else:
                    break
        self._epoch_end += self.epoch_us
        self.epochs_closed += 1

    def _unprunable(self, older: List[CommittedTransaction]) -> List[CommittedTransaction]:
        """The transactions of ``older`` that must stay retained: a writer
        is pruned only when no transaction that stays writes one of its keys
        at a smaller version hint (see module doc)."""
        floor: Dict[object, float] = {}  # lowest hint a staying writer holds per key

        def stay(txn: CommittedTransaction) -> None:
            for key, hint in txn.write_version_hints:
                current = floor.get(key)
                if current is None or hint < current:
                    floor[key] = hint

        for txn in self._retained:
            stay(txn)
        kept = set()
        changed = bool(floor)
        while changed:
            changed = False
            for txn in older:
                if txn.txn_id in kept:
                    continue
                if any(key in floor and hint > floor[key] for key, hint in txn.write_version_hints):
                    kept.add(txn.txn_id)
                    stay(txn)
                    changed = True
        return [txn for txn in older if txn.txn_id in kept]

    # ------------------------------------------------------------------
    def _window_transactions(self, transactions, staying) -> List[CommittedTransaction]:
        """The window to check, with pruned-writer reads rewritten (see module
        doc).  A transaction in ``staying`` (retained past this close) that
        read a writer the window has never seen is left out: its writer can
        still arrive, and a later close checks it."""
        seen = {txn.txn_id for txn in transactions} if staying else ()
        window: List[CommittedTransaction] = []
        for txn in transactions:
            stale = []
            unseen = False
            for read in txn.reads:
                writer = read.writer
                if writer is None:
                    continue
                if writer in self._pruned_writers.get(read.key, ()) or writer in self._expired_ids:
                    stale.append(read)
                elif staying and writer not in seen:
                    unseen = True
            if unseen and txn.txn_id in staying:
                continue
            if not stale:
                window.append(txn)
                continue
            self.stale_window_reads += len(stale)
            stale_set = set(id(read) for read in stale)
            window.append(
                replace(
                    txn,
                    reads=tuple(
                        replace(read, writer=None) if id(read) in stale_set else read
                        for read in txn.reads
                    ),
                )
            )
        return window

    def _run_checks(self, transactions, staying=()) -> Dict[str, CheckResult]:
        window = self._window_transactions(transactions, staying)
        results: Dict[str, CheckResult] = {}
        for name in self.checks:
            result = self._check_fns[name](window)
            results[name] = result
            seen = self._seen_violations[name]
            sticky = self._violations[name]
            for violation in result.violations:
                if violation in seen:
                    continue
                seen.add(violation)
                if len(sticky) < self.max_violations:
                    sticky.append(violation)
        return results

    # ------------------------------------------------------------------
    def results(self) -> Dict[str, CheckResult]:
        """Current verdicts: one more pass over the open window, then the
        sticky violations accumulated across every closed epoch.  The pass
        runs once per history: asking again before the next :meth:`observe`
        returns the same verdicts.

        Call at (or after) the end of a run; histories shorter than the
        retention bound are never pruned, so the verdicts are *identical*
        to the post-hoc oracle by construction.
        """
        if self._results is None:
            self._run_checks(list(self._retained))
            self._results = {
                name: CheckResult(
                    ok=not self._violations[name],
                    name=name,
                    violations=list(self._violations[name]),
                    checked_transactions=self.observed,
                )
                for name in self.checks
            }
        return self._results

    def stats(self) -> Dict[str, float]:
        """Bounded-memory observability counters (for the bench JSON)."""
        return {
            "observed": float(self.observed),
            "retained_now": float(len(self._retained)),
            "max_retained": float(self.max_retained),
            "pruned": float(self.pruned),
            "epochs_closed": float(self.epochs_closed),
            "stale_window_reads": float(self.stale_window_reads),
            "pruned_ids_live": float(
                sum(len(ids) for ids in self._pruned_writers.values())
            ),
            "pruned_ids_filtered": float(self._expired_ids.added),
        }


__all__ = [
    "ALL_CHECKS",
    "WindowedConsistencyChecker",
    "default_retention_us",
]
