"""Open-loop clients: arrivals decoupled from completions.

The closed-loop clients of :mod:`repro.workload.ycsb` can only ever observe
the saturation point — each client re-issues the moment its previous
transaction answers, so offered load self-throttles to whatever the system
sustains.  The open-loop source in this module severs that feedback: a
:class:`~repro.traffic.plan.TrafficPlan` schedules arrivals on its own
clock, and the system's *response* to that offered load (goodput, latency,
queue growth, shed load) becomes the measurement.

One :class:`OpenLoopSource` runs per node, offered ``1/n`` of the plan's
cluster-wide rate on its own named random streams
(``traffic.arrivals.n<id>`` for arrival sampling, ``traffic.mix.n<id>``
for transaction specs), so runs are byte-deterministic and adding a node
never perturbs another node's stream.

Each arrival drawn while the node is at its in-flight limit
(``plan.max_pending``) waits in a bounded admission queue
(``plan.queue_limit``); beyond that it is **dropped** on the spot, and a
queued arrival that waited longer than ``plan.queue_timeout_us`` when a
slot frees is abandoned unissued (**timed out**).  Both are first-class
overload outcomes, reported next to goodput — under open loop, "the
system kept up" and "the system shed load" are different numbers, which
is the entire point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import NodeCrashedError
from repro.traffic.plan import TrafficPlan
from repro.workload.profiles import WorkloadGenerator
from repro.workload.ycsb import ClientStats, execute_spec


@dataclass
class OpenLoopStats:
    """Per-node accounting of one open-loop source.

    ``client`` aggregates the protocol-level outcomes in the same
    :class:`~repro.workload.ycsb.ClientStats` shape the closed-loop
    harness uses (so :class:`~repro.harness.metrics.ExperimentMetrics`
    consumes both paths uniformly); latencies recorded there are
    **arrival-to-answer** — they include admission-queue wait, which is
    the latency an open-loop client actually observes.

    The ``*_times_us`` lists feed the time-resolved metrics and are
    recorded over the whole run; the scalar counters respect the warm-up
    window like every other measurement.
    """

    node_id: int
    client: ClientStats = None  # type: ignore[assignment]
    offered: int = 0
    started: int = 0
    dropped: int = 0
    timed_out: int = 0
    queue_depth_max: int = 0
    queue_depth_sum: int = 0
    queue_depth_samples: int = 0
    arrival_times_us: List[float] = field(default_factory=list)
    completion_times_us: List[float] = field(default_factory=list)
    completion_latencies_us: List[float] = field(default_factory=list)
    drop_times_us: List[float] = field(default_factory=list)
    timeout_times_us: List[float] = field(default_factory=list)

    def __post_init__(self):
        if self.client is None:
            self.client = ClientStats(node_id=self.node_id, client_index=-1)


class OpenLoopSource:
    """The per-node open-loop load generator process."""

    def __init__(
        self,
        cluster,
        node_id: int,
        plan: TrafficPlan,
        workload,
        duration_us: float,
        warmup_us: float,
        sink=None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.node_id = node_id
        self.plan = plan
        self.base_workload = workload
        self.duration_us = duration_us
        self.warmup_us = warmup_us
        self.sink = sink
        """Optional :class:`~repro.harness.streaming.StreamingAccumulator`:
        when set, per-event timestamps/latencies stream into it instead of
        growing the raw ``*_times_us`` lists (O(1) memory per event).  The
        scalar counters are maintained either way."""
        self.stats = OpenLoopStats(node_id=node_id)
        self.sessions: List = []
        """Every session this source ever opened (for stall accounting)."""
        self._free: List = []
        self._pending = 0
        self._queue: deque = deque()
        self._arrival_rng = self.sim.rng.stream(f"traffic.arrivals.n{node_id}")
        self._mix_rng = self.sim.rng.stream(f"traffic.mix.n{node_id}")
        self._txn_seq = 0

    # ------------------------------------------------------------------
    def run(self):
        """Generator process: walk the plan's phases, emitting arrivals."""
        n_nodes = self.cluster.config.n_nodes
        sim = self.sim
        for _label, start, end, phase in self.plan.phase_windows(self.duration_us):
            workload = phase.workload_config(self.base_workload)
            generator = WorkloadGenerator(
                workload,
                self.cluster.keys,
                self._mix_rng,
                placement=self.cluster.placement,
                node_id=self.node_id,
            )
            process = phase.process(offset_units=self.node_id / n_nodes, rate_scale=1.0 / n_nodes)
            for at_us in process.arrivals(self._arrival_rng, start, end):
                delay = at_us - sim.now
                if delay > 0:
                    yield sim.timeout(delay)
                self._on_arrival(generator)
        return self.stats

    # ------------------------------------------------------------------
    def _on_arrival(self, generator: WorkloadGenerator) -> None:
        now = self.sim.now
        stats = self.stats
        if self.sink is None:
            stats.arrival_times_us.append(now)
        else:
            self.sink.on_arrival(now)
        measured = now >= self.warmup_us
        if measured:
            stats.offered += 1
        depth = self._pending + len(self._queue)
        if depth > stats.queue_depth_max:
            stats.queue_depth_max = depth
        stats.queue_depth_sum += depth
        stats.queue_depth_samples += 1
        spec = generator.next_spec()
        if self._pending < self.plan.max_pending:
            self._start(self._take_session(), spec, now)
        elif len(self._queue) < self.plan.queue_limit:
            self._queue.append((now, spec))
        else:
            if self.sink is None:
                stats.drop_times_us.append(now)
            else:
                self.sink.on_drop(now)
            if measured:
                stats.dropped += 1

    def _take_session(self):
        if self._free:
            return self._free.pop()
        session = self.cluster.session(self.node_id)
        session.keep_history = False
        self.sessions.append(session)
        return session

    def _start(self, session, spec, arrival_us: float) -> None:
        self._pending += 1
        if self.sim.now >= self.warmup_us:
            self.stats.started += 1
        self._txn_seq += 1
        self.cluster.spawn(
            self._txn(session, spec, arrival_us),
            name=f"openloop-{self.node_id}-{self._txn_seq}",
        )

    def _txn(self, session, spec, arrival_us: float):
        meta = None
        try:
            committed, meta = yield from execute_spec(session, spec)
        except NodeCrashedError:
            # The co-located node crash-stopped mid-transaction: under
            # constant offered load this is lost work, not back-pressure.
            committed, meta = False, session.last
        self._record(spec, arrival_us, committed, meta)
        self._release(session)

    def _record(self, spec, arrival_us: float, committed: bool, meta) -> None:
        now = self.sim.now
        stats = self.stats
        client = stats.client
        sink = self.sink
        if not committed:
            if now >= self.warmup_us:
                client.aborted += 1
                abort_time = (
                    meta.abort_time
                    if meta is not None and meta.abort_time is not None
                    else now
                )
                if sink is None:
                    client.abort_times_us.append(abort_time)
                else:
                    sink.on_abort(abort_time)
            return
        latency = now - arrival_us
        if sink is None:
            stats.completion_times_us.append(now)
            stats.completion_latencies_us.append(latency)
        else:
            sink.on_completion(now, latency)
        if now < self.warmup_us:
            return
        client.committed += 1
        commit_time = now
        if meta is not None and meta.external_commit_time is not None:
            commit_time = meta.external_commit_time
        internal = wait = None
        if not spec.read_only and meta is not None:
            internal = meta.internal_latency()
            wait = meta.precommit_wait()
        if sink is not None:
            if spec.read_only:
                client.committed_read_only += 1
            else:
                client.committed_update += 1
            sink.on_commit(latency, commit_time, spec.read_only, internal, wait)
            return
        client.latencies_us.append(latency)
        client.commit_times_us.append(commit_time)
        if spec.read_only:
            client.committed_read_only += 1
            client.read_only_latencies_us.append(latency)
        else:
            client.committed_update += 1
            client.update_latencies_us.append(latency)
            if internal is not None:
                client.internal_latencies_us.append(internal)
            if wait is not None:
                client.precommit_waits_us.append(wait)

    def _release(self, session) -> None:
        """Return a slot: serve the admission queue or park the session."""
        now = self.sim.now
        stats = self.stats
        while self._queue:
            arrival_us, spec = self._queue.popleft()
            if now - arrival_us > self.plan.queue_timeout_us:
                if self.sink is None:
                    stats.timeout_times_us.append(now)
                else:
                    self.sink.on_timeout(now)
                if now >= self.warmup_us:
                    stats.timed_out += 1
                continue
            self._pending -= 1
            tracer = self.sim.tracer
            if tracer is not None and now > arrival_us:
                # Admission-queue wait of the arrival we are about to issue;
                # the transaction id does not exist yet, so the span lives on
                # the node's track.
                tracer.span("client.queue", arrival_us, node=self.node_id, end=now)
            self._start(session, spec, arrival_us)
            return
        self._pending -= 1
        self._free.append(session)


def install_open_loop(
    cluster,
    workload,
    duration_us: float,
    warmup_us: float,
    plan: Optional[TrafficPlan] = None,
    sink=None,
) -> List[OpenLoopSource]:
    """Start one open-loop source per node; returns the sources.

    ``plan`` defaults to the cluster config's traffic plan.  The sources'
    statistics are live objects — read them after the simulation ran.
    ``sink`` (a :class:`~repro.harness.streaming.StreamingAccumulator`) is
    shared by all sources and switches them to streaming recording.
    """
    plan = plan if plan is not None else cluster.config.traffic
    sources = []
    for node_id in range(cluster.config.n_nodes):
        source = OpenLoopSource(
            cluster, node_id, plan, workload, duration_us, warmup_us, sink=sink
        )
        sources.append(source)
        cluster.spawn(source.run(), name=f"traffic-source-{node_id}")
    return sources


def aggregate_open_loop(
    stats: List[OpenLoopStats], measured_duration_us: float
) -> Tuple[dict, List[ClientStats]]:
    """Collapse per-node open-loop accounting (each source's ``stats``) into
    metrics ``extra`` fields."""
    offered = sum(node.offered for node in stats)
    dropped = sum(node.dropped for node in stats)
    timed_out = sum(node.timed_out for node in stats)
    committed = sum(node.client.committed for node in stats)
    depth_samples = sum(node.queue_depth_samples for node in stats)
    depth_sum = sum(node.queue_depth_sum for node in stats)
    seconds = max(measured_duration_us, 1.0) / 1_000_000.0
    extra = {
        "open_loop": 1.0,
        "offered": float(offered),
        "offered_tps": round(offered / seconds, 1),
        "goodput_tps": round(committed / seconds, 1),
        "dropped": float(dropped),
        "timed_out": float(timed_out),
        "queue_depth_max": float(max((node.queue_depth_max for node in stats), default=0)),
        "queue_depth_mean": round(depth_sum / depth_samples, 2) if depth_samples else 0.0,
    }
    clients = [node.client for node in stats]
    return extra, clients
