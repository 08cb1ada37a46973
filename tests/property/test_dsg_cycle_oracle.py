"""The DSG cycle search against networkx as the oracle.

``repro.consistency.dsg`` searches its own integer-indexed multigraph;
networkx stays installed for tests only (the ``test`` extra) and answers the
same question here on the same graph, built the way ``dsg.py`` built it while
it still used networkx.  The reported cycle may differ from the one networkx
finds; it must be a cycle of the graph, and the same one whatever
``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.ids import TransactionId
from repro.consistency.checkers import (
    check_external_consistency,
    check_serializability,
    check_update_completion_order,
)
from repro.consistency.dsg import Dsg, _add_precedence_chain, find_cycle
from repro.consistency.history import CommittedTransaction, ReadObservation

nx = pytest.importorskip("networkx")

_STRESS_SCALE = int(os.environ.get("REPRO_STRESS_SCALE", "1"))

KINDS = ("wr", "ww", "rw", "co")


def _interval_txn(vertex: int, begin: float, length: float) -> CommittedTransaction:
    return CommittedTransaction(
        txn_id=TransactionId(0, vertex),
        coordinator=0,
        is_update=False,
        reads=(),
        writes=(),
        begin_time=begin,
        external_commit_time=begin + length,
    )


def _oracle_graph(transactions, edges, with_chain):
    """The networkx graph ``dsg.py`` used to build (labels as vertices)."""
    graph = nx.MultiDiGraph()
    for txn in transactions:
        graph.add_node(txn.txn_id)
    for source, target, kind in edges:
        graph.add_edge(transactions[source].txn_id, transactions[target].txn_id, kind=kind)
    if with_chain:
        events = []
        for txn in transactions:
            events.append((txn.begin_time, 0, txn.txn_id))
            events.append((txn.external_commit_time, 1, txn.txn_id))
        events.sort(key=lambda event: (event[0], event[1]))
        previous = None
        for index, (_time, kind, txn_id) in enumerate(events):
            chain_node = ("rt", index)
            if previous is not None:
                graph.add_edge(previous, chain_node, kind="rt")
            if kind == 1:
                graph.add_edge(txn_id, chain_node, kind="rt")
            else:
                graph.add_edge(chain_node, txn_id, kind="rt")
            previous = chain_node
    return graph


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    # Small integer times, so equal begins and completions are common.
    transactions = [
        _interval_txn(
            vertex,
            float(draw(st.integers(min_value=0, max_value=12))),
            float(draw(st.integers(min_value=0, max_value=6))),
        )
        for vertex in range(n)
    ]
    vertex = st.integers(min_value=0, max_value=n - 1)
    # Self-loops and parallel edges are drawn like any other edge.
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(KINDS)), max_size=3 * n))
    return transactions, edges, draw(st.booleans())


class TestCycleSearchAgainstNetworkx:
    @settings(max_examples=300 * _STRESS_SCALE, deadline=None)
    @given(multigraphs())
    def test_same_verdict_and_a_real_cycle(self, case):
        transactions, edges, with_chain = case
        graph = Dsg()
        for txn in transactions:
            graph.add_node(txn.txn_id)
        for source, target, kind in edges:
            graph.add_edge(source, target, kind)
        if with_chain:
            _add_precedence_chain(graph, transactions)
        oracle = _oracle_graph(transactions, edges, with_chain)

        cycle = find_cycle(graph)
        assert (cycle is None) == nx.is_directed_acyclic_graph(oracle)
        if cycle is None:
            return
        for source, target, kind in cycle:
            parallel = oracle.get_edge_data(source, target) or {}
            assert kind in {data["kind"] for data in parallel.values()}
        # A closed walk that repeats no vertex.
        sources = [source for source, _target, _kind in cycle]
        targets = [target for _source, target, _kind in cycle]
        assert targets == sources[1:] + sources[:1]
        assert len(set(sources)) == len(sources)


# ----------------------------------------------------------------------
# Byte-equal reports across hash seeds
# ----------------------------------------------------------------------
def _random_history(rng: random.Random):
    """A small history on string keys (their hashes move with PYTHONHASHSEED)
    with arbitrary read-from choices, so most of them are cyclic."""
    keys = [f"key-{index}" for index in range(4)]
    n = rng.randint(3, 10)
    ids = [TransactionId(rng.randrange(3), seq) for seq in range(n)]
    writers = {key: [None] for key in keys}
    written = []
    for txn_id in ids:
        writes = tuple(rng.sample(keys, rng.randint(0, 2)))
        written.append(writes)
        for key in writes:
            writers[key].append(txn_id)
    history = []
    for txn_id, writes in zip(ids, written):
        begin = float(rng.randint(0, 40))
        history.append(
            CommittedTransaction(
                txn_id=txn_id,
                coordinator=txn_id.node,
                is_update=bool(writes),
                reads=tuple(
                    ReadObservation(key=key, writer=rng.choice(writers[key]))
                    for key in rng.sample(keys, rng.randint(0, 3))
                ),
                writes=writes,
                begin_time=begin,
                external_commit_time=begin + rng.randint(0, 30),
            )
        )
    return history


def _cycle_report() -> str:
    rng = random.Random(2024)
    lines = []
    for _ in range(200):
        history = _random_history(rng)
        for check in (
            check_external_consistency,
            check_serializability,
            check_update_completion_order,
        ):
            lines.append(f"{check.__name__}: {check(history).violations}")
    return "\n".join(lines)


def _report_in_subprocess(hash_seed: str) -> str:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    snippet = (
        f"import sys; sys.path.insert(0, {os.path.join(root, 'src')!r}); "
        f"sys.path.insert(0, {os.path.join(root, 'tests', 'property')!r}); "
        "from test_dsg_cycle_oracle import _cycle_report; print(_cycle_report())"
    )
    output = subprocess.run(
        [sys.executable, "-c", snippet],
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return output.stdout


def test_reported_cycles_survive_hash_randomization():
    first = _report_in_subprocess("1")
    assert "cycle: " in first
    assert first == _report_in_subprocess("4242")
