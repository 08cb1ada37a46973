"""Closed-loop YCSB-style clients.

The paper drives every experiment with 10 application threads (clients) per
node "injecting transactions in the system in a closed-loop (i.e., a client
issues a new request only when the previous one has returned)".
:func:`closed_loop_client` is that client as a simulation process: it draws a
transaction spec, executes it through a :class:`repro.core.session.Session`,
retries aborted transactions (counting the abort), and keeps going until the
experiment deadline.

Per-client statistics are accumulated in :class:`ClientStats`; the harness
aggregates them into the experiment metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import NodeCrashedError, SnapshotRestartError
from repro.core.metadata import TransactionMeta
from repro.core.session import Session
from repro.workload.profiles import TransactionSpec, WorkloadGenerator


@dataclass
class ClientStats:
    """Counters and samples collected by one closed-loop client."""

    node_id: int
    client_index: int
    committed: int = 0
    committed_read_only: int = 0
    committed_update: int = 0
    aborted: int = 0
    latencies_us: List[float] = field(default_factory=list)
    update_latencies_us: List[float] = field(default_factory=list)
    read_only_latencies_us: List[float] = field(default_factory=list)
    internal_latencies_us: List[float] = field(default_factory=list)
    precommit_waits_us: List[float] = field(default_factory=list)
    #: Completion timestamps, feeding the per-phase availability metrics of
    #: fault-plan experiments (one float per outcome, like the latencies).
    commit_times_us: List[float] = field(default_factory=list)
    abort_times_us: List[float] = field(default_factory=list)
    #: Optional :class:`~repro.harness.streaming.StreamingAccumulator`.
    #: When set, outcomes stream into it instead of the lists above (O(1)
    #: memory per client); the scalar counters are kept either way.
    sink: Optional[object] = None

    def record(self, meta: TransactionMeta, committed: bool) -> None:
        """Record a closed-loop transaction's outcome from its metadata."""
        if not committed:
            self.record_abort(meta.abort_time)
            return
        internal = wait = None
        if meta.is_update:
            internal = meta.internal_latency()
            wait = meta.precommit_wait()
        self.record_commit(
            meta.latency(), meta.external_commit_time, not meta.is_update, internal, wait
        )

    def record_commit(
        self,
        latency: Optional[float],
        commit_time: Optional[float],
        read_only: bool,
        internal: Optional[float] = None,
        wait: Optional[float] = None,
    ) -> None:
        """Count a measured commit and keep its samples (a missing one is skipped)."""
        self.committed += 1
        if read_only:
            self.committed_read_only += 1
        else:
            self.committed_update += 1
        if self.sink is not None:
            self.sink.on_commit(latency, commit_time, read_only, internal, wait)
            return
        if commit_time is not None:
            self.commit_times_us.append(commit_time)
        if latency is not None:
            self.latencies_us.append(latency)
            (self.read_only_latencies_us if read_only else self.update_latencies_us).append(
                latency
            )
        if internal is not None:
            self.internal_latencies_us.append(internal)
        if wait is not None:
            self.precommit_waits_us.append(wait)

    def record_abort(self, abort_time: Optional[float]) -> None:
        """Count a measured abort and keep its time, if it has one."""
        self.aborted += 1
        if self.sink is not None:
            self.sink.on_abort(abort_time)
        elif abort_time is not None:
            self.abort_times_us.append(abort_time)


def execute_spec(session: Session, spec: TransactionSpec):
    """Execute one transaction spec through ``session`` (generator).

    Returns ``(committed, meta)``.  Update transactions follow the paper's
    profile: read every key, then write back a derived value for the keys in
    the write set.

    A read-only transaction withdrawn for a snapshot restart
    (:class:`~repro.common.errors.SnapshotRestartError` — a real-time-stale
    read, or the commit-time wait-cycle breaker) is re-executed under a
    fresh id and snapshot: the restart is invisible to the client — one
    logical request, answered once, from the committed attempt — so
    read-only transactions still never abort.
    """
    attempt = 0
    while True:
        try:
            meta = session.begin(read_only=spec.read_only)
            values = {}
            for key in spec.read_keys:
                values[key] = yield from session.read(key)
            if not spec.read_only:
                for key in spec.write_keys:
                    base = values.get(key, 0)
                    base = base if isinstance(base, int) else 0
                    session.write(key, base + 1)
            committed = yield from session.commit()
        except SnapshotRestartError:
            attempt += 1
            # Staggered, growing back-off before the retry.  An immediate
            # re-read would deterministically re-create the same exclusion
            # gates and re-enter the same wait cycle in lockstep with the
            # other cycling readers (livelock).  While backing off the
            # transaction holds no queue entries and no gates, so the
            # writers it gated can drain; the per-client stagger makes the
            # cycle thin out instead of re-forming.  Deterministic: derived
            # only from the session's coordinates and the attempt count.
            timeouts = session.node.config.timeouts
            base_us = timeouts.external_done_wait_us
            # The stagger is bounded separately from the (capped)
            # exponential part so that at large node counts the cap cannot
            # flatten every client onto the same delay, which would
            # reintroduce exactly the lockstep this back-off exists to
            # break.
            stagger = ((session.node_id * 7 + session.client_index * 3) % 37) * (base_us / 4.0)
            delay = min(base_us * (2 ** min(attempt, 4)), 16_000.0) + stagger
            sim = session.node.sim
            tracer = sim.tracer
            backoff_start = sim.now if tracer is not None else 0.0
            yield sim.timeout(delay)
            if tracer is not None:
                tracer.span(
                    "client.backoff",
                    backoff_start,
                    node=session.node_id,
                    link=[meta.txn_id],
                    args={"attempt": attempt},
                )
            continue
        return committed, meta


def closed_loop_client(
    session: Session,
    generator: WorkloadGenerator,
    stats: ClientStats,
    deadline_us: float,
    warmup_us: float = 0.0,
    max_transactions: Optional[int] = None,
    think_time_us: float = 0.0,
    crash_backoff_us: float = 1_000.0,
):
    """Closed-loop client process: issue, wait, repeat until the deadline.

    Transactions whose commit attempt fails are counted as aborts and the
    client immediately moves on to a new transaction (the retried work is a
    fresh transaction, which is how the paper's abort rates are reported).
    Statistics are only recorded after ``warmup_us`` of simulated time.

    Under the fault plane, a transaction interrupted by its own node's crash
    (:class:`NodeCrashedError`) counts as an abort; the client backs off
    ``crash_backoff_us`` and reconnects, which is what lets throughput
    recover once the node restarts.
    """
    sim = session.node.sim
    session.keep_history = False
    issued = 0
    while sim.now < deadline_us:
        if max_transactions is not None and issued >= max_transactions:
            break
        spec = generator.next_spec()
        issued += 1
        try:
            committed, meta = yield from execute_spec(session, spec)
        except NodeCrashedError:
            meta = session.last
            if sim.now >= warmup_us and meta is not None:
                stats.record(meta, False)
            tracer = sim.tracer
            backoff_start = sim.now if tracer is not None else 0.0
            yield sim.timeout(crash_backoff_us)
            if tracer is not None:
                tracer.span(
                    "client.crash_backoff",
                    backoff_start,
                    node=session.node_id,
                    link=[meta.txn_id] if meta is not None else (),
                )
            continue
        if sim.now >= warmup_us:
            stats.record(meta, committed)
        if think_time_us > 0:
            tracer = sim.tracer
            think_start = sim.now if tracer is not None else 0.0
            yield sim.timeout(think_time_us)
            if tracer is not None:
                tracer.span("client.think", think_start, node=session.node_id)
    return stats
