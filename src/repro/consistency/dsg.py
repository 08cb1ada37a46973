"""Direct Serialization Graph construction.

Given a recorded history, the DSG has one vertex per committed transaction
and the classic Adya dependency edges:

* ``wr`` (read-depends): Tj read a version written by Ti;
* ``ww`` (write-depends): Tj installed the version of a key immediately
  following Ti's version in the key's version order;
* ``rw`` (anti-depends): Tj installed the version of a key immediately
  following the one Ti read.

Version order
-------------
The per-key version order is recovered from the protocol-provided
``write_version_hints`` (SSS: the transaction version number ``xactVN``,
which is exactly the order the commit queues install versions in; the
2PC-baseline: the participant's post-apply version counters; ROCOCO: the
execution-order position).  When a protocol does not provide hints the
order falls back to external-commit time.  Beware that the fallback is
*not* generally correct even for lock-based protocols: two conflicting
writers are strictly serialized at the key's replica, but the one applied
second can answer its client first when its decide round spans fewer (or
faster) participants, so protocols should supply hints.

Real-time order
---------------
External consistency additionally requires the serialization not to
contradict the order in which transactions complete relative to clients.  Two
notions are supported:

* **Precedence** (the standard strict-serializability real-time order, used
  by :func:`repro.consistency.checkers.check_external_consistency`): Ti must
  precede Tj whenever Ti's client response happened before Tj *began*.  This
  is encoded without quadratically many edges by threading all begin and
  completion events on a single time-ordered chain of auxiliary nodes: a
  dependency path that travels backwards along the chain closes a cycle.
* **Completion order** (the stricter reading of the paper's informal
  definition, applied to the update-only sub-history of Statement 1 by
  :func:`repro.consistency.checkers.check_update_completion_order`): Ti must
  precede Tj whenever Ti's response precedes Tj's response by more than an
  observability tolerance (no external observer can order two responses that
  are closer together than the minimum client-to-client message latency).

A history is accepted iff the resulting directed graph is acyclic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.ids import TransactionId
from repro.consistency.history import CommittedTransaction


@dataclass(frozen=True)
class DependencyEdge:
    """One dependency edge of the DSG, annotated with its kind and key."""

    source: TransactionId
    target: TransactionId
    kind: str  # "wr", "ww", "rw"
    key: Optional[object] = None


# ----------------------------------------------------------------------
# Version order
# ----------------------------------------------------------------------
def install_order(
    transactions: Sequence[CommittedTransaction],
) -> Dict[object, List[CommittedTransaction]]:
    """Per-key version installation order (see module docstring)."""
    writers: Dict[object, List[CommittedTransaction]] = defaultdict(list)
    for txn in transactions:
        if not txn.is_update:
            continue
        for key in txn.writes:
            writers[key].append(txn)
    for key, txns in writers.items():
        if all(txn.version_hint(key) is not None for txn in txns):
            txns.sort(key=lambda txn: (txn.version_hint(key), txn.external_commit_time))
        else:
            txns.sort(key=lambda txn: txn.external_commit_time)
    return writers


def install_positions(
    writers_per_key: Dict[object, List[CommittedTransaction]],
) -> Dict[Tuple[object, TransactionId], int]:
    """``(key, writer id)`` to the writer's position in the key's version order."""
    return {
        (key, writer.txn_id): index
        for key, writers in writers_per_key.items()
        for index, writer in enumerate(writers)
    }


# ----------------------------------------------------------------------
# Dependency edges
# ----------------------------------------------------------------------
def _dependency_edges(
    transactions: Sequence[CommittedTransaction],
) -> Iterator[Tuple[TransactionId, TransactionId, str, object]]:
    """The wr / ww / rw edges as ``(source, target, kind, key)`` tuples."""
    committed = {txn.txn_id for txn in transactions}
    writers_per_key = install_order(transactions)
    position = install_positions(writers_per_key)

    # ww edges: consecutive writers of the same key.
    for key, writers in writers_per_key.items():
        for earlier, later in zip(writers, writers[1:]):
            yield earlier.txn_id, later.txn_id, "ww", key

    # wr and rw edges from each read observation.
    for txn in transactions:
        for read in txn.reads:
            writers = writers_per_key.get(read.key, [])
            if read.writer is not None and read.writer in committed:
                if read.writer != txn.txn_id:
                    yield read.writer, txn.txn_id, "wr", read.key
                observed_position = position.get((read.key, read.writer))
            elif read.writer is None:
                # Initial (preloaded) version: every writer overwrites it.
                observed_position = -1
            else:
                # Version written by a transaction outside the committed
                # history: a decided-commit whose coordinator crashed before
                # answering its client (the install is durable and reading
                # it is legal — the writer imposes no real-time order).  No
                # anti-dependency is derivable from the committed writers'
                # install order; treating it like the preloaded version
                # would fabricate an rw edge to the key's *first* writer.
                observed_position = None
            if observed_position is not None and writers:
                next_position = observed_position + 1
                if next_position < len(writers):
                    overwriter = writers[next_position]
                    if overwriter.txn_id != txn.txn_id:
                        yield txn.txn_id, overwriter.txn_id, "rw", read.key


def build_dependency_edges(
    transactions: Sequence[CommittedTransaction],
) -> List[DependencyEdge]:
    """Compute the wr / ww / rw edge list for ``transactions``."""
    return [DependencyEdge(*edge) for edge in _dependency_edges(transactions)]


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
class Dsg:
    """A directed multigraph on integer vertices with labelled edges.

    Vertex ``v`` carries ``labels[v]`` (a :class:`TransactionId`, or
    ``("rt", position)`` for a node of the real-time chain) and
    ``successors[v]`` lists its out-edges as ``(target, kind)`` in insertion
    order.  Parallel edges and self-loops are kept.  Everything is a list
    indexed by vertex, so building and searching never hash a label and never
    iterate a set: the search order, and with it the reported cycle, depends
    on the input order alone.
    """

    __slots__ = ("labels", "successors")

    def __init__(self) -> None:
        self.labels: List[object] = []
        self.successors: List[List[Tuple[int, str]]] = []

    def add_node(self, label: object) -> int:
        self.labels.append(label)
        self.successors.append([])
        return len(self.labels) - 1

    def add_edge(self, source: int, target: int, kind: str) -> None:
        self.successors[source].append((target, kind))


def _add_precedence_chain(graph: Dsg, transactions: Sequence[CommittedTransaction]) -> None:
    """Encode the real-time precedence order with O(n) auxiliary nodes.

    Events (transaction begins and completions) are sorted by time; at equal
    timestamps begins sort before completions so that a completion never
    precedes a begin at the same instant (overlap means no constraint), and
    history order breaks the remaining ties.  Each completion points into
    the chain, the chain points into each begin, and consecutive chain nodes
    are linked — so the graph contains a path from Ti's completion to Tj's
    begin iff Ti completed strictly before Tj began.  Vertex ``i`` of
    ``graph`` must be ``transactions[i]``.
    """
    BEGIN, COMPLETE = 0, 1
    events = []
    for vertex, txn in enumerate(transactions):
        events.append((txn.begin_time, BEGIN, vertex))
        events.append((txn.external_commit_time, COMPLETE, vertex))
    events.sort()

    previous_chain_node = None
    for position, (_time, kind, vertex) in enumerate(events):
        chain_node = graph.add_node(("rt", position))
        if previous_chain_node is not None:
            graph.add_edge(previous_chain_node, chain_node, "rt")
        if kind == COMPLETE:
            graph.add_edge(vertex, chain_node, "rt")
        else:
            graph.add_edge(chain_node, vertex, "rt")
        previous_chain_node = chain_node


def _add_completion_order_edges(
    graph: Dsg,
    transactions: Sequence[CommittedTransaction],
    tolerance_us: float,
) -> None:
    """Pairwise completion-order edges between related transactions.

    Two transactions are related when they touch a common key.  Vertex ``i``
    of ``graph`` must be ``transactions[i]``.
    """
    # Sorted by completion time, history order at equal times (vertices are
    # distinct, so the key sets are never compared).
    ordered = sorted(
        (txn.external_commit_time, vertex, {*txn.writes, *(read.key for read in txn.reads)})
        for vertex, txn in enumerate(transactions)
    )
    for i, (earlier_time, earlier, earlier_keys) in enumerate(ordered):
        for later_time, later, later_keys in ordered[i + 1 :]:
            if later_time - earlier_time <= tolerance_us:
                continue
            if not earlier_keys.isdisjoint(later_keys):
                graph.add_edge(earlier, later, "co")


def build_dsg(
    transactions: Sequence[CommittedTransaction],
    realtime: str = "precedence",
    completion_tolerance_us: float = 25.0,
) -> Dsg:
    """Build the DSG of ``transactions`` (vertex ``i`` is ``transactions[i]``).

    Parameters
    ----------
    transactions:
        Committed transactions of the history.
    realtime:
        ``"precedence"`` adds the strict-serializability real-time order,
        ``"completion"`` adds the stricter completion-order edges (with the
        observability tolerance), ``"none"`` adds only dependency edges
        (plain conflict serializability).
    completion_tolerance_us:
        Minimum response-time gap (in simulated microseconds) for a
        completion-order edge; only used when ``realtime == "completion"``.
    """
    graph = Dsg()
    vertex_of: Dict[TransactionId, int] = {}
    for txn in transactions:
        vertex_of[txn.txn_id] = graph.add_node(txn.txn_id)
    for source, target, kind, _key in _dependency_edges(transactions):
        graph.add_edge(vertex_of[source], vertex_of[target], kind)
    if realtime == "precedence":
        _add_precedence_chain(graph, transactions)
    elif realtime == "completion":
        _add_completion_order_edges(graph, transactions, completion_tolerance_us)
    elif realtime != "none":
        raise ValueError(f"unknown realtime mode {realtime!r}")
    return graph


def find_cycle(graph: Dsg) -> Optional[List[Tuple[object, object, str]]]:
    """Return one cycle as ``(source, target, kind)`` label triples, or ``None``.

    One iterative three-colour depth-first search, roots and out-edges taken
    in insertion order: white vertices are unseen, grey ones lie on the
    current path, black ones are finished and cannot reach a cycle.  An edge
    into a grey vertex closes a cycle, which is read off the path — every
    reported triple is an edge of the graph and consecutive triples share a
    vertex.  Each vertex is pushed once and each edge looked at once.

    Auxiliary real-time chain nodes may appear in the reported cycle; they are
    kept (labelled ``rt``) because they tell the reader that the cycle closes
    through the real-time order rather than through a data dependency.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    successors = graph.successors
    colour = [WHITE] * len(successors)
    for root in range(len(successors)):
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        path = [root]  # the grey vertices, root first
        kinds: List[str] = []  # kinds[i] labels the edge path[i] -> path[i + 1]
        pending = [iter(successors[root])]  # out-edges of path[i] not yet looked at
        while path:
            for target, kind in pending[-1]:
                if colour[target] == WHITE:
                    colour[target] = GREY
                    path.append(target)
                    kinds.append(kind)
                    pending.append(iter(successors[target]))
                    break
                if colour[target] == GREY:
                    start = path.index(target)
                    walk = path[start:] + [target]
                    walk_kinds = kinds[start:] + [kind]
                    labels = graph.labels
                    return [
                        (labels[walk[i]], labels[walk[i + 1]], walk_kinds[i])
                        for i in range(len(walk_kinds))
                    ]
            else:
                colour[path.pop()] = BLACK
                pending.pop()
                if kinds:
                    kinds.pop()
    return None
