"""The cluster interconnect.

:class:`Network` connects the nodes of a simulated cluster.  Sending a
message stamps it with sender/destination, charges the sender's outgoing link
(a simple M/D/1-style busy-until model that produces congestion when a node
emits messages faster than the link service rate), samples a propagation
latency and schedules the message's arrival at the destination node.

A message is *one engine entry* from :meth:`Network.send` to its arrival:
``send`` pushes ``(deliver_at, key, destination.enqueue, message)`` straight
onto the event heap (:meth:`Simulation.schedule_delivery
<repro.sim.engine.Simulation.schedule_delivery>`), and
:meth:`NetworkedNode.enqueue <repro.network.node.NetworkedNode.enqueue>` does
the delivery-side accounting and the node's queue-or-start decision in the
same frame.  ``key`` places the entry in the destination's delivery lane
under the sender-local ``(sender, seq)`` key, so arrivals at one node in one
instant are served in that order, ahead of the node's own events of that
instant.  (There used to be a per-destination channel in between, sharing
one engine entry among the messages due at a node in the same instant; with
any jitter no two arrivals coincide — 0 of 277 915 drains on the ledger's
workloads carried a second message — so it cost every message a second heap
and bought nothing.)

Wire-size accounting is a formula of the message alone
(:meth:`Message.size_estimate <repro.network.message.Message.size_estimate>`,
every vector clock charged densely at ``8 * width`` bytes) and feeds only
``NetworkStats.bytes_sent``; the transport keeps no per-channel clock state.
The paper's metadata compression (Section III-A) is measured offline, by the
``ablation`` row of ``benchmarks/figures.py`` replaying NLog commit clocks
through :class:`~repro.clocks.compression.VCCodec`.

Reliability model: channels are reliable unless an endpoint has crashed, in
which case messages to or from that node are dropped — exactly the paper's
crash-stop assumption ("messages are guaranteed to be eventually delivered
unless a crash happens at the sender or receiver node").

Fault plane: on top of the crash-stop model the transport exposes two
scripted degradations (driven by the declarative
:class:`~repro.common.config.FaultPlan`):

* :meth:`Network.partition` splits the nodes into groups; cross-group
  messages are *held* inside the network and released at
  :meth:`Network.heal_partition` (eventual delivery, the paper's model), or
  dropped outright in ``mode="drop"``.
* :meth:`Network.degrade_link` multiplies/inflates the propagation latency
  of one directed link (a "slow link"); :meth:`Network.restore_link` undoes
  it.

All fault state is ``None``/empty by default and checked with one truthiness
test on the send path, so fail-free runs are untouched.

Shard awareness: randomness and sequence numbers are *per sender*
(:class:`_Sender`: stream ``network.latency.n<id>``, and a delivery key
packing ``(sender, seq)`` into one integer), so a message's delivery key
depends only on its sender's own send history — never on global send
interleaving.  A node-sharded engine
(:mod:`repro.sim.shard`) can therefore compute identical delivery keys with
only a subset of nodes present.  A send to a node that is not registered
locally lands in :attr:`Network.outbox`; at a window barrier the driver
drains it (:meth:`Network.take_outbox`) and hands every entry to the shard
that owns its destination (:meth:`Network.admit`).  A network that owns
every node never exports, so its outbox stays empty.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.common.config import NetworkConfig
from repro.common.ids import NodeId
from repro.network.latency import LatencyModel, UniformLatency
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation
    from repro.network.node import NetworkedNode

#: One cross-shard message in flight: ``(deliver_at, skey, destination,
#: message, held)`` — what the owning shard needs to push the engine entry,
#: plus the partition-held flag decided at the sender.
ExportEntry = Tuple[float, int, NodeId, Message, bool]


class NetworkStats:
    """Counters of network activity, aggregated per message type."""

    def __init__(self) -> None:
        self.sent: Dict[str, int] = defaultdict(int)
        self.delivered: Dict[str, int] = defaultdict(int)
        self.dropped: Dict[str, int] = defaultdict(int)
        self.bytes_sent: int = 0
        #: Messages currently (or cumulatively) held back by a partition.
        self.held: int = 0
        self.released: int = 0

    @property
    def total_sent(self) -> int:
        return sum(self.sent.values())

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def as_dict(self) -> Dict[str, int]:
        return {
            "sent": self.total_sent,
            "delivered": self.total_delivered,
            "dropped": self.total_dropped,
            "bytes_sent": self.bytes_sent,
            "held": self.held,
            "released": self.released,
        }

    def merge_from(self, other: "NetworkStats") -> None:
        """Accumulate ``other`` into this instance (shard-merge path).

        Send-side counters (sent/bytes/held) and delivery-side counters
        (delivered/dropped/released) are each counted on exactly one shard
        per message, so summing per-shard stats never double-counts.
        """
        for name, count in other.sent.items():
            self.sent[name] += count
        for name, count in other.delivered.items():
            self.delivered[name] += count
        for name, count in other.dropped.items():
            self.dropped[name] += count
        self.bytes_sent += other.bytes_sent
        self.held += other.held
        self.released += other.released


class _Sender:
    """What the transport keeps per sending node.

    A message's delivery time and key must depend only on its sender's own
    history, so that shards reproduce them without observing other senders'
    traffic: the link's busy-until horizon, the latency stream and the next
    delivery key ``((sender + 1) << 44) | seq``.
    """

    __slots__ = ("busy_until", "rng", "next_skey")

    def __init__(self, sim: "Simulation", sender: NodeId):
        self.busy_until = 0.0
        self.rng = sim.rng.stream(f"network.latency.n{sender}")
        self.next_skey = (sender + 1) << 44


class Network:
    """Reliable asynchronous message transport between cluster nodes."""

    def __init__(
        self,
        sim: "Simulation",
        config: Optional[NetworkConfig] = None,
        latency_model: Optional[LatencyModel] = None,
    ):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.latency_model = latency_model or UniformLatency(
            base=self.config.base_latency_us, jitter=self.config.jitter_us
        )
        self._nodes: Dict[NodeId, "NetworkedNode"] = {}
        self._crashed: set[NodeId] = set()
        # Fault plane: active partition (node -> group id, None = connected),
        # messages held back by a buffering partition, and per-directed-link
        # latency degradations.  All empty by default.
        self._partition: Optional[Dict[NodeId, int]] = None
        self._partition_mode: str = "buffer"
        self._held: List[Tuple[float, int, NodeId, Message]] = []
        #: Simulated times of past heals, newest last.  A shard that imports
        #: a partition-held message after the heal already ran locally uses
        #: this to release it directly (see :meth:`admit`).
        self._heal_times: List[float] = []
        #: Messages addressed to nodes another shard owns, awaiting the next
        #: barrier exchange.
        self.outbox: List[ExportEntry] = []
        self._degraded: Dict[Tuple[NodeId, NodeId], Tuple[float, float]] = {}
        self._senders: Dict[NodeId, _Sender] = {}
        self.stats = NetworkStats()
        # Full-cluster membership (see declare_node_ids): partition mapping
        # defaults to the locally registered nodes without it, and a send to
        # a node outside it has nowhere to go.
        self._all_node_ids: frozenset = frozenset()
        rate = self.config.bandwidth_msgs_per_us
        self._link_service_us = 1.0 / rate if rate > 0 else 0.0

    # ---------------------------------------------------------------- nodes
    def register(self, node: "NetworkedNode") -> None:
        """Attach ``node`` to the network; its id must be unique."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node
        self.sim.declare_units(node.node_id + 1)

    def node(self, node_id: NodeId) -> "NetworkedNode":
        return self._nodes[node_id]

    def declare_node_ids(self, node_ids: Iterable[NodeId]) -> None:
        """Declare the full cluster membership.

        A shard registers only the nodes it owns, but partition groups are
        defined over the whole cluster; the declared membership keeps the
        implicit "every unnamed node" partition group identical on every
        shard (and on the serial engine).  It is also what tells a message
        for a node another shard owns (exported at the next barrier) from a
        message for a node nobody registered (:meth:`send` raises).
        """
        self._all_node_ids = frozenset(node_ids)

    @property
    def node_ids(self) -> List[NodeId]:
        return sorted(self._nodes)

    # --------------------------------------------------------------- crashes
    def crash(self, node_id: NodeId) -> None:
        """Mark ``node_id`` as crashed; its traffic is dropped from now on.

        A message can now be lost, so every node arms fault mode: a crash
        injected without a fault plan is survived through the same
        re-drives, also by the rounds already waiting.
        """
        self._crashed.add(node_id)
        for node in self._nodes.values():
            node.enable_fault_mode()

    def recover(self, node_id: NodeId) -> None:
        """Clear the crashed flag (crash-recovery experiments only)."""
        self._crashed.discard(node_id)

    def is_crashed(self, node_id: NodeId) -> bool:
        return node_id in self._crashed

    # ------------------------------------------------------------- partitions
    def partition(self, groups: Iterable[Iterable[NodeId]], mode: str = "buffer") -> None:
        """Split the cluster into ``groups``; cross-group traffic is cut.

        ``mode="buffer"`` holds cross-partition messages inside the network
        and releases them at :meth:`heal_partition` — the paper's
        eventual-delivery model.  ``mode="drop"`` loses them.  Registered
        nodes not named in any group form one implicit extra group together.
        Replaces any previously active partition.
        """
        mapping: Dict[NodeId, int] = {}
        group_count = 0
        for group_count, group in enumerate(groups, start=1):
            for node_id in group:
                mapping[node_id] = group_count - 1
        members = self._all_node_ids or self._nodes
        for node_id in members:
            mapping.setdefault(node_id, group_count)
        self._partition = mapping
        self._partition_mode = mode

    def heal_partition(self) -> None:
        """Reconnect the cluster; release every held cross-partition message.

        Held messages are delivered under their original keys (so order among
        them is preserved) at their original delivery time or ``now``,
        whichever is later.
        """
        self._partition = None
        sim = self.sim
        now = sim.now
        self._heal_times.append(now)
        held = self._held
        self._held = []
        for deliver_at, skey, destination, message in held:
            at = deliver_at if deliver_at > now else now
            sim.schedule_delivery(at, destination, skey, self._nodes[destination].enqueue, message)
        self.stats.released += len(held)

    def is_partitioned(self, sender: NodeId, destination: NodeId) -> bool:
        """True when an active partition separates the two nodes."""
        partition = self._partition
        if partition is None:
            return False
        return partition.get(sender) != partition.get(destination)

    # ----------------------------------------------------------- link quality
    def degrade_link(
        self, src: NodeId, dst: NodeId, factor: float = 1.0, extra_us: float = 0.0
    ) -> None:
        """Degrade the directed ``src -> dst`` link.

        Every subsequent message on the link has its propagation latency
        multiplied by ``factor`` and increased by ``extra_us``.
        """
        self._degraded[(src, dst)] = (factor, extra_us)

    def restore_link(self, src: NodeId, dst: NodeId) -> None:
        """Remove any degradation of the directed ``src -> dst`` link."""
        self._degraded.pop((src, dst), None)

    # ---------------------------------------------------------------- sending
    def send(self, sender: NodeId, destination: NodeId, message: Message) -> None:
        """Send ``message`` from ``sender`` to ``destination``.

        Local sends (``sender == destination``) skip the propagation latency
        but still pay the dispatcher's handling cost, mirroring a loopback
        fast path.
        """
        message.sender = sender
        message.destination = destination
        sim = self.sim
        now = sim._now
        message.send_time = now
        stats = self.stats
        tracer = sim.tracer
        type_name = message.type_name
        stats.sent[type_name] += 1
        state = self._senders.get(sender)
        if state is None:
            state = self._senders[sender] = _Sender(sim, sender)
        stats.bytes_sent += message.size_estimate()

        if self._crashed and (sender in self._crashed or destination in self._crashed):
            stats.dropped[type_name] += 1
            if tracer is not None:
                tracer.message(
                    "msg.dropped",
                    getattr(message, "txn_id", None),
                    sender,
                    peer=destination,
                    kind=type_name,
                )
            return

        # Outgoing-link congestion: each message occupies the link for
        # 1/bandwidth microseconds and queues FIFO behind the link's
        # busy-until horizon — negligible at low load, and the source of
        # the saturation knees in the paper's throughput curves once a
        # node emits messages faster than its link drains them.
        service = self._link_service_us
        if service:
            start = state.busy_until
            if start < now:
                start = now
            deliver_at = state.busy_until = start + service
        else:
            deliver_at = now
        if sender != destination:
            latency = self.latency_model.sample(state.rng)
            if self._degraded:
                degradation = self._degraded.get((sender, destination))
                if degradation is not None:
                    latency = latency * degradation[0] + degradation[1]
            deliver_at += latency

        # Globally unique, sender-local delivery key: ties at one delivery
        # instant break by (sender, per-sender seq) rather than by global
        # send order, which every shard can reproduce independently.
        skey = state.next_skey
        state.next_skey = skey + 1

        held = False
        if self._partition is not None and sender != destination:
            partition = self._partition
            if partition.get(sender) != partition.get(destination):
                if self._partition_mode == "drop":
                    stats.dropped[type_name] += 1
                    if tracer is not None:
                        tracer.message(
                            "msg.dropped",
                            getattr(message, "txn_id", None),
                            sender,
                            peer=destination,
                            kind=type_name,
                        )
                    return
                # Eventual delivery: hold the message until the heal.  Held
                # messages live at the *destination* side so a mirrored heal
                # releases them with purely local state.
                stats.held += 1
                held = True

        if tracer is not None:
            # One lifecycle point per send: ``msg.send`` (or ``msg.held``
            # when a buffering partition intercepts it) with the sender-
            # local delivery key as the flow id binding it to the delivery.
            tracer.message(
                "msg.held" if held else "msg.send",
                getattr(message, "txn_id", None),
                sender,
                flow=skey,
                peer=destination,
                kind=type_name,
            )

        node = self._nodes.get(destination)
        if node is None:
            if destination not in self._all_node_ids:
                raise KeyError(destination)
            self.outbox.append((deliver_at, skey, destination, message, held))
        elif held:
            self._held.append((deliver_at, skey, destination, message))
        else:
            sim.schedule_delivery(deliver_at, destination, skey, node.enqueue, message)

    # ------------------------------------------------------ shard exchange
    def take_outbox(self) -> List[ExportEntry]:
        """Drain and return the pending cross-shard exports (barrier step)."""
        out = self.outbox
        self.outbox = []
        return out

    def admit(self, imports: List[ExportEntry]) -> None:
        """Deliver messages exported by other shards (called at a barrier).

        Ordinary messages are pushed under their original sender-local key,
        so their delivery order is the one-shard one.  A partition-held
        message joins the local held set *unless* a mirrored heal already
        ran since it was sent — then a network owning both ends would have
        released it at that heal, at ``max(deliver_at, heal_time) ==
        deliver_at`` (cross-shard delivery times always lie at or beyond the
        barrier, hence beyond any already-executed heal).
        """
        sim = self.sim
        held_list = self._held
        heal_times = self._heal_times
        stats = self.stats
        for deliver_at, skey, destination, message, held in imports:
            if held and not (heal_times and heal_times[-1] > message.send_time):
                held_list.append((deliver_at, skey, destination, message))
                continue
            if held:
                stats.released += 1
            arrive = self._nodes[destination].enqueue
            sim.schedule_delivery(deliver_at, destination, skey, arrive, message)

    def broadcast(self, sender: NodeId, destinations: Iterable[NodeId], message_factory) -> None:
        """Send one message per destination, created by ``message_factory()``.

        A factory is required (rather than one shared message instance)
        because the transport mutates sender/destination/timestamps on the
        message object.
        """
        for destination in destinations:
            self.send(sender, destination, message_factory())
