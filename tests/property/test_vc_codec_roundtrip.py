"""VCCodec round-trips the commit clocks the compression ablation replays.

The transport charges every clock densely and never runs the codec; the
paper's metadata compression (Section III-A) is measured by the ``ablation``
row of ``benchmarks/figures.py``, which replays each node's NLog commit
clocks through :class:`VCCodec` as the wire would between two peers.  These
tests take the same clocks from a small SSS run and verify that

* ``encode``/``decode`` reconstructs every clock of every node's stream
  exactly (losslessness over real commit clocks, not just random
  sequences), and
* no encoding is larger than the dense clock, so the ablation's
  ``compression_ratio`` lies in ``(0, 1]`` for every node.

A hypothesis test extends the losslessness to adversarial random streams.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from repro.clocks.compression import VCCodec
from repro.clocks.vector_clock import VectorClock
from repro.common.config import ClusterConfig, WorkloadConfig
from repro.harness.runner import run_experiment

N_NODES = 4


@functools.cache
def nlog_streams():
    """Each node's NLog commit clocks, in log order, from a small SSS run."""
    config = ClusterConfig(
        n_nodes=N_NODES, n_keys=40, replication_degree=2, clients_per_node=2, seed=11
    )
    workload = WorkloadConfig(read_only_fraction=0.5, read_only_txn_keys=2)
    result = run_experiment(
        "sss", config, workload, duration_us=8_000.0, warmup_us=0.0, keep_cluster=True
    )
    return [[entry.vc for entry in node.nlog.entries()] for node in result.cluster.nodes]


def test_nlog_commit_clocks_round_trip_losslessly():
    total = 0
    for clocks in nlog_streams():
        encoder, decoder = VCCodec(N_NODES), VCCodec(N_NODES)
        for clock in clocks:
            decoded = decoder.decode("peer", encoder.encode("peer", clock))
            assert decoded == clock
            assert decoded.entries == clock.entries
            total += 1
    # The replay must exercise delta traffic, not just one dense shipment
    # per node.
    assert total > 100


def test_nlog_replay_never_exceeds_dense():
    dense = 1 + 8 * N_NODES
    kinds = set()
    for clocks in nlog_streams():
        codec = VCCodec(N_NODES)
        encoded = [codec.encode("peer", clock) for clock in clocks]
        kinds.update(kind for kind, _payload in encoded)
        assert all(VCCodec.encoded_size_bytes(encoding) <= dense for encoding in encoded)
        assert 0.0 < codec.compression_ratio(encoded) <= 1.0
    assert VCCodec.DELTA in kinds


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=width, max_size=width),
            min_size=1,
            max_size=30,
        )
    )
)
def test_random_streams_round_trip(entry_lists):
    width = len(entry_lists[0])
    encoder, decoder = VCCodec(width), VCCodec(width)
    for entries in entry_lists:
        clock = VectorClock(entries)
        decoded = decoder.decode("p", encoder.encode("p", clock))
        assert decoded == clock
