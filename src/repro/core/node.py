"""One SSS protocol node.

:class:`SSSNode` stores a shard of the multi-version key space, answers the
messages of :mod:`repro.core.messages` and coordinates the transactions of
its co-located clients.  This module declares its crash model and all its
state.  Its behaviour is one mixin per part of the algorithms:
:mod:`~repro.core.coordinator` (Algorithm 5 reads, the Algorithm 1
commit), :mod:`~repro.core.read_path` (Algorithm 6),
:mod:`~repro.core.ambiguous` (the ambiguous zone and its repairs),
:mod:`~repro.core.commit_path` (Algorithms 2-4, ExternalDone and Remove)
and :mod:`~repro.core.recovery` (crash and restart).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.common.config import ClusterConfig
from repro.common.ids import NodeId, TransactionId
from repro.core.ambiguous import AmbiguousZoneMixin
from repro.core.commit_path import CommitPathMixin
from repro.core.coordinator import CoordinatorMixin
from repro.core.messages import (
    Decide,
    ExternalAck,
    ExternalDone,
    ExternalStatusQuery,
    Prepare,
    PrecommitQuery,
    ReadRequest,
    ReleaseGate,
    Remove,
    SubscribeExternal,
)
from repro.core.read_path import ReadPathMixin
from repro.core.recovery import RecoveryMixin
from repro.protocols.runtime import ProtocolRuntime
from repro.replication.placement import KeyPlacement
from repro.sim.events import ThresholdWaiters
from repro.storage.commit_queue import CommitQueue, RedoLog
from repro.storage.locks import LockTable
from repro.storage.mvstore import MultiVersionStore
from repro.storage.nlog import NLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.history import HistoryRecorder
    from repro.network.transport import Network
    from repro.sim.engine import Simulation


class SSSNode(
    ReadPathMixin,
    AmbiguousZoneMixin,
    CommitPathMixin,
    RecoveryMixin,
    CoordinatorMixin,
    ProtocolRuntime,
):
    """A node of the SSS key-value store.

    The crash model (see :class:`ProtocolRuntime`): the multi-version store,
    the NLog, ``node_vc`` (persisted with the commit log, so a restarted
    node never re-proposes a local clock value it already handed out), the
    redo log (force-written before every yes-vote), the snapshot queues'
    reader entries with their index (they hold back replayed writers as
    before) and the nodes each was forwarded to (a Remove follows that
    chain), the record of removed readers (it keeps a replay from
    re-inserting their propagated entries) and the Decides that overtook
    their prepare (the reliable stream acks a Decide once stashed, so a
    crash must not lose it) are durable.  Locks follow the
    textbook participant model: only the redo-logged transactions' locks
    survive — they must keep blocking until the decision is re-learned,
    2PC's in-doubt window.  The rest is volatile, the writers'
    snapshot-queue entries and the commit queue (rebuilt from the redo log
    on restart) included.  The ``_externally_done`` cache is dropped
    *conservatively*: versions are re-gated until a fresh SubscribeExternal
    round-trip re-learns the writer's fate, trading post-restart latency for
    safety.
    """

    _WAITS = ("_ack_waits", "_ext_done_events", "_answer_gate_events")
    _VOLATILE = _WAITS + (
        "_read_prepared",
        "_revalidating",
        "_backoff_level",
        "_externally_done",
        "_done_local_watermark",
        "_applied_local_value",
        "_answer_gates",
        "_gates_by_reader",
        "_external_watchers",
        "_subscriptions_sent",
        "commit_queue",
    )
    _DURABLE = (
        "store",
        "nlog",
        "node_vc",
        "redo_log",
        "_reader_keys",
        "_forward_map",
        "_removed_readers",
        "_decided_early",
        "locks",
        "_up_since",
        "strict_visibility",
        "_read_waiters",
    )

    def __init__(
        self,
        sim: "Simulation",
        network: "Network",
        node_id: NodeId,
        placement: KeyPlacement,
        config: ClusterConfig,
        history: Optional["HistoryRecorder"] = None,
        strict_visibility: bool = False,
    ):
        super().__init__(sim, network, node_id, placement=placement, config=config, history=history)
        self.strict_visibility = strict_visibility
        n_nodes = config.n_nodes

        # Data plane.
        self.store = MultiVersionStore(node_id, sim=sim)
        self.locks = LockTable(sim, name=f"locks@{node_id}", owner=node_id)
        self.nlog = NLog(node_id, n_nodes, sim=sim)
        self.commit_queue = CommitQueue(node_id, sim=sim)
        # Read requests waiting for the installs inside their visibility
        # bound (Algorithm 6, line 5), woken by either structure's mutations.
        self._read_waiters = ThresholdWaiters(
            sim, self._installed_through, [self.nlog.signal, self.commit_queue.signal]
        )
        self.node_vc = VectorClock.zeros(n_nodes)

        # Participant state of in-flight 2PC rounds, one record per vote: a
        # write replica's goes to the durable redo log (it closes the
        # voted-then-crashed in-doubt window, see on_restart), a read-only
        # participant keeps only its read keys.
        self.redo_log = RedoLog()
        self._read_prepared: Dict[TransactionId, Tuple[object, ...]] = {}
        # Decisions that arrived before (or without) a matching Prepare
        # (durable).
        self._decided_early: Dict[TransactionId, Decide] = {}
        # When this incarnation of the node came up.  A Prepare sent before
        # that outlived a crash of this node (a buffering partition held
        # it), and its Decide may have been sent into the down window.
        self._up_since = 0.0

        # Remove-forwarding: reader transaction -> nodes we shipped its
        # snapshot-queue entry to (via ReadReturn propagated sets or Decide).
        self._forward_map: Dict[TransactionId, Set[NodeId]] = defaultdict(set)
        # Readers already removed; late propagated insertions are suppressed.
        self._removed_readers: Set[TransactionId] = set()
        # Local index: reader transaction -> keys whose squeue holds it.
        self._reader_keys: Dict[TransactionId, Set[object]] = defaultdict(set)
        # Readers whose coordinator is being asked whether they finished.
        self._revalidating: Set[TransactionId] = set()
        # Starvation back-off: per-key consecutive back-off count.
        self._backoff_level: Dict[object, int] = defaultdict(int)
        # Writers whose external commit this node has been notified of,
        # mapped to the coordinator's external-commit timestamp (None for
        # writers that finished without answering a client — abort or crash
        # teardown — which impose no real-time order).  Their versions may
        # be handed to clients without an external-commit dependency wait,
        # and the timestamp feeds the real-time staleness test of read-only
        # reads.  (Preloaded versions have writer None and need no
        # tracking.)  The map grows with the number of committed writers and
        # is deliberately never pruned: "not in the map" *means* pending, so
        # dropping an entry would silently re-gate old versions.  At
        # simulation scale (<=1e6 transactions per run) this is cheap;
        # GC-ing it would need a per-version done-bit instead.
        self._externally_done: Dict[TransactionId, Optional[float]] = {}
        # Largest node-local clock value among locally installed versions
        # whose writer is known externally committed, and the per-writer
        # local values feeding it (consumed on the Done notification).
        self._done_local_watermark: int = -1
        self._applied_local_value: Dict[TransactionId, int] = {}
        # Per still-pending writer, the event local transactions wait on for
        # the writer's ExternalDone notification.
        self._ext_done_events: Dict[TransactionId, object] = {}
        # Targets to notify when a transaction this node coordinates
        # externally commits (fed by SubscribeExternal).
        self._external_watchers: Dict[TransactionId, Set[NodeId]] = defaultdict(set)
        # Answer gates: readers that ambiguously *excluded* a writer this
        # node coordinates while the writer was confirmed in flight.  The
        # writer's client answer waits until every gating reader finishes or
        # restarts — the ordering a snapshot-queue entry would have enforced
        # had the writer not already passed its local pre-commit wait, which
        # is what keeps the exclusion externally consistent.
        self._answer_gates: Dict[TransactionId, Set[TransactionId]] = {}
        self._gates_by_reader: Dict[TransactionId, Set[TransactionId]] = {}
        self._answer_gate_events: Dict[TransactionId, object] = {}
        # Per still-pending writer, the coordinator targets this node already
        # forwarded subscriptions for (so one reader hammering a hot version
        # does not flood the coordinator); pruned when the writer's
        # ExternalDone arrives.
        self._subscriptions_sent: Dict[TransactionId, Set[NodeId]] = defaultdict(set)

        # Coordinator side (CoordinatorMixin): txn -> (external-commit
        # event, write replicas still to ack).  The transaction-id
        # generator, the coordinated-transaction map and the metrics
        # counters live in ProtocolRuntime.
        self._ack_waits: Dict[TransactionId, Tuple[object, Set[NodeId]]] = {}

        # Message handlers.
        self.register_handler(ReadRequest, self.on_read_request)
        self.register_handler(Prepare, self.on_prepare)
        self.register_handler(Decide, self.on_decide)
        self.register_handler(ExternalAck, self.on_external_ack)
        self.register_handler(ExternalDone, self.on_external_done)
        self.register_handler(SubscribeExternal, self.on_subscribe_external)
        self.register_handler(PrecommitQuery, self.on_precommit_query)
        self.register_handler(ExternalStatusQuery, self.on_external_status_query)
        self.register_handler(ReleaseGate, self.on_release_gate)
        self.register_handler(Remove, self.on_remove)

    def preload(self, keys, initial_value=0) -> None:
        """Install version zero of ``keys``, this node's replicas."""
        self.store.preload(keys, initial_value=initial_value, n_nodes=self.config.n_nodes)

    def queued_writer_count(self) -> int:
        """Number of update transactions currently held in local squeues."""
        return sum(len(squeue.writers()) for squeue in self.store.squeues().values())

    def stats(self) -> Dict[str, int]:
        stats = dict(self.counters)
        stats["nlog_length"] = len(self.nlog)
        stats["commit_queue_length"] = len(self.commit_queue)
        stats["messages_handled"] = self.messages_handled
        stats["lock_timeouts"] = self.locks.timeout_count
        return stats
