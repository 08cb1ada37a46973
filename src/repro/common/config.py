"""Configuration dataclasses for clusters, networks and workloads.

All experiment knobs used by the paper's evaluation (Section V) appear here:
node count, replication degree, number of keys, percentage of read-only
transactions, read-set sizes, access locality and clients per node.  The
defaults match the paper's default configuration (replication degree 2,
10 clients per node, 2-key update transactions, 2-key read-only
transactions, uniform access).

Times are expressed in *microseconds of simulated time* throughout the
library; the paper reports a ~20 microsecond message delivery latency on its
Infiniband test-bed, which is the default here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.common.units import (  # noqa: F401  (re-exported, historical home)
    MICROSECOND,
    MILLISECOND,
    SECOND,
    format_number,
    parse_rate_tps,
    parse_time_us,
)
from repro.traffic.plan import TrafficPlan


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the simulated message-passing network.

    Attributes
    ----------
    base_latency_us:
        Mean one-way message latency in microseconds (paper: ~20 us).
    jitter_us:
        Half-width of the uniform jitter added to every message.
    bandwidth_msgs_per_us:
        Per-node outgoing message service rate used to model network
        congestion; ``0`` disables the congestion model.
    priority_levels:
        Number of distinct priority levels for per-message-type queues.
    """

    base_latency_us: float = 20.0
    jitter_us: float = 4.0
    bandwidth_msgs_per_us: float = 0.35
    priority_levels: int = 4

    def validate(self) -> None:
        if self.base_latency_us < 0:
            raise ConfigurationError("base_latency_us must be >= 0")
        if self.jitter_us < 0:
            raise ConfigurationError("jitter_us must be >= 0")
        if self.priority_levels < 1:
            raise ConfigurationError("priority_levels must be >= 1")


@dataclass(frozen=True)
class ServiceTimeConfig:
    """CPU service times charged by a node for local protocol steps.

    These model the per-operation processing cost of the Java implementation
    (version-chain traversal, lock table access, queue maintenance).  They are
    what makes a node saturate when too many clients inject requests, which is
    required to reproduce the saturation behaviour in Figures 4 and 5.
    """

    read_local_us: float = 4.0
    write_buffer_us: float = 1.0
    version_walk_us: float = 0.4
    lock_op_us: float = 1.0
    validate_key_us: float = 0.8
    queue_op_us: float = 0.8
    commit_apply_us: float = 2.0
    message_handling_us: float = 2.0

    def validate(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0")


@dataclass(frozen=True)
class TimeoutConfig:
    """Protocol timeouts (microseconds)."""

    lock_timeout_us: float = 1_000.0
    """Lock acquisition timeout; the paper sets 1 ms on its cluster."""

    prepare_timeout_us: float = 50_000.0
    """Fail-free only: the coarse guard a 2PC coordinator waits for votes
    before declaring the round failed.  With a fault plan installed the
    round is re-driven instead (``crash_resubscribe_us`` /
    ``prepare_retry_limit``) and this deadline is never armed."""

    starvation_threshold_us: float = 20_000.0
    """Queued-writer age beyond which read-only reads apply back-off."""

    backoff_initial_us: float = 100.0
    backoff_max_us: float = 5_000.0

    external_done_wait_us: float = 400.0
    """Bounded wait of a read-only read on a writer in the "ambiguous zone"
    (internally committed locally, local pre-commit wait passed, external
    commit not yet announced).  A handful of message round-trips is enough
    for the ExternalDone notification to arrive in the common case; on
    expiry the reader resolves the remaining writers definitively at their
    coordinators (``ExternalStatusQuery``) and excludes only those confirmed
    still in flight — a blind timeout exclusion could serialize the reader
    before a writer whose client was already answered."""

    readonly_restart_wait_us: float = 8_000.0
    """How long a read-only transaction's external-commit dependency wait may
    sit on writers *confirmed still in flight* before the transaction is
    restarted internally (entries withdrawn, fresh snapshot, client never
    sees an abort).  This is the deterministic breaker for the 4-party wait
    cycle: two read-only transactions bridging two independent pre-committing
    writers can adopt contradictory serialization orders, and one of the
    readers must move since the writers' versions are already installed.
    Legitimate dependency waits resolve in a few round-trips, so the default
    is far above the fail-free common case and far below the drain window."""

    crash_resubscribe_us: float = 5_000.0
    """The fallback timer of every round a fault can swallow — the prepare
    round of every protocol (``vote_round``), read waves, decide/commit
    rounds, external-status queries, and the SubscribeExternal of an
    external-commit dependency wait (``ProtocolRuntime.redrive``).  A
    message sent into a node's down window is lost and only its sender can
    re-drive it: at once when the node's ``Rejoin`` arrives, on this timer
    for what no restart announces (drop-mode partitions, lost replies)."""

    prepare_retry_limit: int = 3
    """Fault-mode only: how many silent waves (fallback timer expired, no
    ``Rejoin``) the prepare round of any protocol (``vote_round``) tolerates
    before declaring the silent participant dead and failing the round.
    Bounds the dead-participant abort at ``(limit + 1) *
    crash_resubscribe_us`` — 20 ms at the defaults — while a participant
    that restarts within the envelope still answers a re-send and the round
    completes honestly."""

    def validate(self) -> None:
        if self.lock_timeout_us <= 0:
            raise ConfigurationError("lock_timeout_us must be > 0")
        if self.prepare_timeout_us <= 0:
            raise ConfigurationError("prepare_timeout_us must be > 0")
        if self.prepare_retry_limit < 1:
            raise ConfigurationError("prepare_retry_limit must be >= 1")
        if self.backoff_initial_us <= 0 or self.backoff_max_us < self.backoff_initial_us:
            raise ConfigurationError("invalid back-off window")
        if self.readonly_restart_wait_us <= 0:
            raise ConfigurationError("readonly_restart_wait_us must be > 0")


# ----------------------------------------------------------------------
# Fault plane: declarative fault plans
# (time/rate literal parsing lives in repro.common.units and is
# re-exported above for the historical import path.)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashFault:
    """Crash-stop ``node`` at ``at_us``; restart after ``duration_us``.

    ``duration_us=None`` means the node never restarts.  A crashed node
    loses its volatile state (see ``ProtocolRuntime.on_crash``) and replays
    its durable state on restart.
    """

    node: int
    at_us: float
    duration_us: Optional[float] = None

    kind = "crash"

    def end_us(self, horizon: float) -> float:
        if self.duration_us is None:
            return horizon
        return self.at_us + self.duration_us

    def to_spec(self) -> str:
        """Canonical compact string; re-parses to an equal fault."""
        spec = f"crash node={self.node} at={format_number(self.at_us)}"
        if self.duration_us is not None:
            spec += f" for={format_number(self.duration_us)}"
        return spec

    def validate(self, n_nodes: int) -> None:
        if not 0 <= self.node < n_nodes:
            raise ConfigurationError(f"crash fault targets node {self.node}, cluster has {n_nodes}")
        if self.at_us < 0:
            raise ConfigurationError("crash at_us must be >= 0")
        if self.duration_us is not None and self.duration_us <= 0:
            raise ConfigurationError("crash duration_us must be > 0 (or None)")


@dataclass(frozen=True)
class PartitionFault:
    """Split the cluster into ``groups`` during ``[at_us, at_us+duration_us)``.

    ``mode="buffer"`` (default) holds cross-partition messages in the
    network and releases them at heal time — the paper's "messages are
    guaranteed to be eventually delivered unless a crash happens" model.
    ``mode="drop"`` loses them instead (a partition that behaves like a
    crash of the far side).  Nodes not named in any group form one implicit
    extra group together.
    """

    groups: Tuple[Tuple[int, ...], ...]
    at_us: float
    duration_us: float
    mode: str = "buffer"

    kind = "partition"

    def end_us(self, horizon: float) -> float:
        return self.at_us + self.duration_us

    def to_spec(self) -> str:
        """Canonical compact string; re-parses to an equal fault."""
        groups = "|".join(",".join(str(node) for node in group) for group in self.groups)
        spec = (
            f"partition groups={groups} "
            f"at={format_number(self.at_us)} for={format_number(self.duration_us)}"
        )
        if self.mode != "buffer":
            spec += f" mode={self.mode}"
        return spec

    def validate(self, n_nodes: int) -> None:
        if len(self.groups) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        seen: set = set()
        for group in self.groups:
            if not group:
                raise ConfigurationError("empty partition group")
            for node in group:
                if not 0 <= node < n_nodes:
                    raise ConfigurationError(f"partition names node {node}, cluster has {n_nodes}")
                if node in seen:
                    raise ConfigurationError(f"node {node} appears in two partition groups")
                seen.add(node)
        if self.at_us < 0 or self.duration_us <= 0:
            raise ConfigurationError("partition window must be positive")
        if self.mode not in ("buffer", "drop"):
            raise ConfigurationError(f"unknown partition mode {self.mode!r}")


@dataclass(frozen=True)
class SlowLinkFault:
    """Degrade the ``src -> dst`` link during ``[at_us, at_us+duration_us)``.

    Every message on the link has its propagation latency multiplied by
    ``factor`` and increased by ``extra_us``.  ``bidirectional`` (default)
    degrades both directions.
    """

    src: int
    dst: int
    at_us: float
    duration_us: float
    factor: float = 1.0
    extra_us: float = 0.0
    bidirectional: bool = True

    kind = "slowlink"

    def end_us(self, horizon: float) -> float:
        return self.at_us + self.duration_us

    def to_spec(self) -> str:
        """Canonical compact string; re-parses to an equal fault."""
        spec = (
            f"slowlink src={self.src} dst={self.dst} "
            f"at={format_number(self.at_us)} for={format_number(self.duration_us)}"
        )
        if self.factor != 1.0:
            spec += f" factor={format_number(self.factor)}"
        if self.extra_us != 0.0:
            spec += f" extra={format_number(self.extra_us)}"
        if not self.bidirectional:
            spec += " bidirectional=false"
        return spec

    def validate(self, n_nodes: int) -> None:
        for node in (self.src, self.dst):
            if not 0 <= node < n_nodes:
                raise ConfigurationError(f"slowlink names node {node}, cluster has {n_nodes}")
        if self.src == self.dst:
            raise ConfigurationError("slowlink src and dst must differ")
        if self.at_us < 0 or self.duration_us <= 0:
            raise ConfigurationError("slowlink window must be positive")
        if self.factor < 1.0 or self.extra_us < 0:
            raise ConfigurationError("slowlink must degrade (factor >= 1, extra_us >= 0)")


FaultSpec = Union[CrashFault, PartitionFault, SlowLinkFault]

_TRUE_LITERALS = ("1", "true", "yes", "on")


def _parse_fault(spec: Union[str, Dict, FaultSpec]) -> FaultSpec:
    """Parse one fault spec: a fault object, a dict, or a compact string.

    String grammar (whitespace-separated ``key=value`` fields after the
    kind)::

        "crash node=2 at=30ms for=20ms"          # "for" optional: no restart
        "partition groups=0,1|2,3 at=10ms for=20ms mode=drop"
        "slowlink src=0 dst=1 at=5ms for=10ms factor=8 extra=200us"
    """
    if isinstance(spec, (CrashFault, PartitionFault, SlowLinkFault)):
        return spec
    if isinstance(spec, str):
        tokens = spec.split()
        if not tokens:
            raise ConfigurationError("empty fault spec")
        kind, fields = tokens[0].lower(), {}
        for token in tokens[1:]:
            if "=" not in token:
                raise ConfigurationError(f"malformed fault field {token!r} in {spec!r}")
            key, value = token.split("=", 1)
            fields[key] = value
        spec = {"kind": kind, **fields}
    if not isinstance(spec, dict):
        raise ConfigurationError(f"cannot parse fault spec {spec!r}")
    fields = dict(spec)
    kind = str(fields.pop("kind", "")).lower()
    at_us = parse_time_us(fields.pop("at", fields.pop("at_us", 0)))
    raw_for = fields.pop("for", fields.pop("duration_us", None))
    duration_us = None if raw_for is None else parse_time_us(raw_for)
    if kind == "crash":
        node = _parse_node(fields.pop("node"), kind)
        _reject_unknown(kind, fields)
        return CrashFault(node=node, at_us=at_us, duration_us=duration_us)
    if kind == "partition":
        raw_groups = fields.pop("groups")
        if isinstance(raw_groups, str):
            groups = tuple(
                tuple(_parse_node(part, kind) for part in group.split(",") if part != "")
                for group in raw_groups.split("|")
            )
        else:
            groups = tuple(
                tuple(_parse_node(node, kind) for node in group) for group in raw_groups
            )
        mode = str(fields.pop("mode", "buffer"))
        _reject_unknown(kind, fields)
        if duration_us is None:
            raise ConfigurationError("partition requires a 'for' window")
        return PartitionFault(groups=groups, at_us=at_us, duration_us=duration_us, mode=mode)
    if kind == "slowlink":
        src = _parse_node(fields.pop("src"), kind)
        dst = _parse_node(fields.pop("dst"), kind)
        factor = float(fields.pop("factor", 1.0))
        extra_us = parse_time_us(fields.pop("extra", fields.pop("extra_us", 0.0)))
        raw_bidi = fields.pop("bidirectional", True)
        if isinstance(raw_bidi, str):
            bidirectional = raw_bidi.lower() in _TRUE_LITERALS
        else:
            bidirectional = bool(raw_bidi)
        _reject_unknown(kind, fields)
        if duration_us is None:
            raise ConfigurationError("slowlink requires a 'for' window")
        return SlowLinkFault(
            src=src,
            dst=dst,
            at_us=at_us,
            duration_us=duration_us,
            factor=factor,
            extra_us=extra_us,
            bidirectional=bidirectional,
        )
    raise ConfigurationError(f"unknown fault kind {kind!r}")


def _parse_node(value, kind: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{kind!r} fault: node id {value!r} is not an integer") from None


def _reject_unknown(kind: str, leftover: Dict) -> None:
    if leftover:
        raise ConfigurationError(f"unknown field(s) {sorted(leftover)} for {kind!r} fault")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, deterministic schedule of fault-plane events.

    The plan is part of the cluster configuration, so a faulty experiment is
    exactly as reproducible (and as picklable for the parallel sweep runner)
    as a fail-free one.  An empty plan is the default everywhere and changes
    nothing: fail-free histories stay byte-identical.
    """

    faults: Tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, specs: Sequence[Union[str, Dict, FaultSpec]]) -> "FaultPlan":
        """Build a plan from compact strings / dicts / fault objects."""
        return cls(faults=tuple(_parse_fault(spec) for spec in specs))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def specs(self) -> List[str]:
        """Canonical compact strings: ``FaultPlan.parse(plan.specs()) == plan``.

        Parsing used to be one-way; the scenario searcher's mutators parse,
        perturb and re-serialize plans, so every fault knows how to print
        itself back (pinned by the hypothesis round-trip test in
        ``tests/property/test_plan_roundtrip.py``).
        """
        return [fault.to_spec() for fault in self.faults]

    def validate(self, n_nodes: int) -> None:
        for fault in self.faults:
            fault.validate(n_nodes)
        # The transport supports one active partition at a time.
        partitions = sorted(
            (fault.at_us, fault.at_us + fault.duration_us)
            for fault in self.faults
            if isinstance(fault, PartitionFault)
        )
        for (_, prev_end), (next_start, _) in zip(partitions, partitions[1:]):
            if next_start < prev_end:
                raise ConfigurationError("overlapping partition windows are not supported")

    def phases(self, duration_us: float) -> List[Tuple[str, float, float]]:
        """Split ``[0, duration_us)`` at fault boundaries.

        Returns ``(label, start_us, end_us)`` tuples; the label names the
        fault kinds active in the window (``"fail-free"`` when none are).
        The harness uses these windows for the per-phase availability
        metrics.
        """
        if not self.faults:
            return []
        cuts = {0.0, duration_us}
        for fault in self.faults:
            cuts.add(min(fault.at_us, duration_us))
            cuts.add(min(fault.end_us(duration_us), duration_us))
        ordered = sorted(cuts)
        phases: List[Tuple[str, float, float]] = []
        for index, (start, end) in enumerate(zip(ordered, ordered[1:])):
            if end - start <= 0:
                continue
            active = sorted(
                {
                    fault.kind
                    for fault in self.faults
                    if fault.at_us < end and fault.end_us(duration_us) > start
                }
            )
            label = "+".join(active) if active else "fail-free"
            phases.append((f"p{index}:{label}", start, end))
        return phases


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of a simulated cluster.

    Attributes
    ----------
    n_nodes:
        Number of nodes (the paper evaluates 5, 10, 15 and 20).
    n_keys:
        Number of shared keys (paper: 5 000 or 10 000).
    replication_degree:
        Number of replicas per key (paper: 2; 1 for ROCOCO comparisons).
    clients_per_node:
        Closed-loop clients co-located with every node (paper: 10);
        ignored when a traffic plan switches the run to open loop.
    seed:
        Root seed from which every random stream in the cluster is derived.
    """

    n_nodes: int = 5
    n_keys: int = 5_000
    replication_degree: int = 2
    clients_per_node: int = 10
    seed: int = 1
    network: NetworkConfig = field(default_factory=NetworkConfig)
    service: ServiceTimeConfig = field(default_factory=ServiceTimeConfig)
    timeouts: TimeoutConfig = field(default_factory=TimeoutConfig)
    faults: FaultPlan = field(default_factory=FaultPlan)
    """Declarative fault schedule; empty (the default) means fail-free."""

    traffic: TrafficPlan = field(default_factory=TrafficPlan)
    """Declarative open-loop traffic scenario; empty (the default) keeps the
    historical closed-loop clients and changes nothing — see
    :mod:`repro.traffic`."""

    def validate(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("n_nodes must be >= 1")
        if self.n_keys < 1:
            raise ConfigurationError("n_keys must be >= 1")
        if not 1 <= self.replication_degree <= self.n_nodes:
            raise ConfigurationError(
                "replication_degree must be between 1 and n_nodes "
                f"(got {self.replication_degree} with {self.n_nodes} nodes)"
            )
        if self.clients_per_node < 0:
            raise ConfigurationError("clients_per_node must be >= 0")
        self.network.validate()
        self.service.validate()
        self.timeouts.validate()
        self.faults.validate(self.n_nodes)
        self.traffic.validate()


@dataclass(frozen=True)
class WorkloadConfig:
    """YCSB-style workload description (Section V of the paper).

    Attributes
    ----------
    read_only_fraction:
        Fraction of transactions that are read-only (paper: 0.2 / 0.5 / 0.8).
    update_txn_keys:
        Keys read *and* written by an update transaction (paper: 2).
    read_only_txn_keys:
        Keys read by a read-only transaction (paper: 2, up to 16 in Fig. 8).
    key_distribution:
        ``"uniform"`` or ``"zipfian"`` key popularity.
    zipf_theta:
        Skew of the zipfian distribution, ignored for uniform access.
    locality_fraction:
        Probability that an accessed key is chosen among keys replicated on
        the client's local node (paper Fig. 7 uses 0.5).
    think_time_us:
        Client think time between transactions; 0 reproduces the paper's
        closed loop with immediate re-issue.
    """

    read_only_fraction: float = 0.5
    update_txn_keys: int = 2
    read_only_txn_keys: int = 2
    key_distribution: str = "uniform"
    zipf_theta: float = 0.7
    locality_fraction: float = 0.0
    think_time_us: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.read_only_fraction <= 1.0:
            raise ConfigurationError("read_only_fraction must be in [0, 1]")
        if self.update_txn_keys < 1:
            raise ConfigurationError("update_txn_keys must be >= 1")
        if self.read_only_txn_keys < 1:
            raise ConfigurationError("read_only_txn_keys must be >= 1")
        if self.key_distribution not in ("uniform", "zipfian"):
            raise ConfigurationError(f"unknown key_distribution {self.key_distribution!r}")
        if not 0.0 <= self.locality_fraction <= 1.0:
            raise ConfigurationError("locality_fraction must be in [0, 1]")
        if self.think_time_us < 0:
            raise ConfigurationError("think_time_us must be >= 0")
