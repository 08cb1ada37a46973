"""Unit tests for transaction metadata, protocol messages and the node log GC."""

from __future__ import annotations

import pytest

from repro.clocks.vector_clock import VectorClock
from repro.common.config import ClusterConfig, WorkloadConfig
from repro.common.ids import TransactionId
from repro.core.messages import (
    Decide,
    ExternalAck,
    Prepare,
    ReadRequest,
    ReadReturn,
    Remove,
    Vote,
)
from repro.core.metadata import (
    PropagatedEntry,
    TransactionMeta,
    TransactionOutcome,
    TransactionPhase,
)
from repro.harness.runner import run_experiment
from repro.network.message import MessagePriority
from repro.protocols.registry import protocol_names


def make_meta(is_update=True, n_nodes=3):
    return TransactionMeta(
        txn_id=TransactionId(0, 1),
        coordinator=0,
        is_update=is_update,
        n_nodes=n_nodes,
    )


class TestTransactionMeta:
    def test_initial_state(self):
        meta = make_meta()
        assert meta.vc == VectorClock.zeros(3)
        assert meta.has_read == [False, False, False]
        assert meta.phase is TransactionPhase.EXECUTING
        assert not meta.committed and not meta.aborted

    def test_record_read_and_write(self):
        meta = make_meta()
        meta.record_read("x", 5, VectorClock([1, 0, 0]), TransactionId(1, 2), served_by=1)
        meta.record_write("y", 6)
        assert meta.read_keys() == ("x",)
        assert meta.write_keys() == ("y",)
        assert meta.read_set["x"].value == 5

    def test_last_read_of_key_wins(self):
        meta = make_meta()
        meta.record_read("x", 1, VectorClock([1, 0, 0]), None, served_by=0)
        meta.record_read("x", 2, VectorClock([2, 0, 0]), None, served_by=1)
        assert meta.read_set["x"].value == 2
        assert len(meta.read_set) == 1

    def test_merge_vc_and_has_read(self):
        meta = make_meta()
        meta.merge_vc(VectorClock([0, 5, 1]))
        meta.merge_vc(VectorClock([2, 3, 0]))
        assert meta.vc == VectorClock([2, 5, 1])
        meta.mark_has_read(2)
        assert meta.has_read == [False, False, True]

    def test_propagated_set_deduplicates(self):
        meta = make_meta()
        entry = PropagatedEntry(TransactionId(1, 1), 7)
        meta.add_propagated([entry, entry, PropagatedEntry(TransactionId(1, 1), 7)])
        assert len(meta.propagated_set) == 1

    def test_latency_helpers(self):
        meta = make_meta()
        meta.begin_time = 100.0
        assert meta.latency() is None
        meta.internal_commit_time = 160.0
        meta.external_commit_time = 200.0
        assert meta.latency() == pytest.approx(100.0)
        assert meta.internal_latency() == pytest.approx(60.0)
        assert meta.precommit_wait() == pytest.approx(40.0)

    def test_read_only_flag(self):
        assert make_meta(is_update=False).is_read_only
        assert not make_meta(is_update=True).is_read_only


class TestTransactionOutcome:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_finished_transactions_leave_only_outcome_records(self, protocol):
        config = ClusterConfig(
            n_nodes=3,
            n_keys=24,
            replication_degree=1 if protocol == "rococo" else 2,
            clients_per_node=2,
            seed=7,
        )
        result = run_experiment(
            protocol,
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=5_000,
            warmup_us=0,
            keep_cluster=True,
        )
        finished = (TransactionPhase.EXTERNALLY_COMMITTED, TransactionPhase.ABORTED)
        for node in result.cluster.local_nodes:
            # Only the transactions the clients still had open keep metadata.
            assert len(node.coordinated) <= config.clients_per_node
            assert all(meta.phase not in finished for meta in node.coordinated.values())
            assert len(node.outcomes) > 10
            for txn_id, outcome in node.outcomes.items():
                assert isinstance(outcome, TransactionOutcome)
                assert node.txn_state(txn_id) is outcome
                if protocol == "sss" and outcome.phase is TransactionPhase.EXTERNALLY_COMMITTED:
                    assert node._done_time_of(txn_id) == outcome.external_commit_time


class TestMessages:
    def test_priorities_match_design(self):
        vc = VectorClock.zeros(2)
        assert ReadRequest(txn_id=None, key="k", vc=vc).priority is MessagePriority.READ
        assert ReadReturn().priority is MessagePriority.READ
        assert Prepare(vc=vc).priority is MessagePriority.COMMIT
        assert Vote(vc=vc).priority is MessagePriority.COMMIT
        assert Decide(commit_vc=vc).priority is MessagePriority.CONTROL
        assert ExternalAck().priority is MessagePriority.CONTROL
        assert Remove().priority is MessagePriority.CONTROL

    def test_prepare_read_keys_property(self):
        vc = VectorClock([1, 2])
        prepare = Prepare(
            txn_id=TransactionId(0, 1),
            vc=vc,
            read_versions=(("a", vc), ("b", vc)),
            write_items=(("a", 5),),
        )
        assert prepare.read_keys == ("a", "b")

    def test_size_estimates_grow_with_payload(self):
        vc = VectorClock.zeros(8)
        small = Prepare(txn_id=None, vc=vc, read_versions=(), write_items=())
        large = Prepare(
            txn_id=None,
            vc=vc,
            read_versions=tuple((f"k{i}", vc) for i in range(10)),
            write_items=tuple((f"k{i}", i) for i in range(10)),
        )
        assert large.size_estimate() > small.size_estimate()

    def test_message_ids_unique(self):
        a, b = Remove(), Remove()
        assert a.msg_id != b.msg_id

    def test_decide_carries_propagated_entries(self):
        entry = PropagatedEntry(TransactionId(2, 3), 9)
        decide = Decide(
            txn_id=TransactionId(0, 1),
            commit_vc=VectorClock([1, 1]),
            outcome=True,
            propagated=(entry,),
        )
        assert decide.propagated[0].snapshot == 9
        assert decide.size_estimate() > Decide(
            txn_id=TransactionId(0, 1), commit_vc=VectorClock([1, 1]), outcome=True
        ).size_estimate()
