"""Unit tests of ROCOCO's durable piece log (storage/durable_log.py)."""

from __future__ import annotations

from repro.common.ids import TransactionId
from repro.storage.durable_log import PieceRedoLog


class TestPieceRedoLog:
    def test_dispatch_order_execute_lifecycle(self):
        log = PieceRedoLog()
        txn = TransactionId(0, 1)
        record = log.log_dispatch("k", txn, True, 7)
        assert record.order is None and not record.executed
        assert log.find("k", txn) is record
        assert len(log) == 1

        assert log.log_order("k", txn, 10.0) is record
        assert record.order == 10.0

        log.log_execution("k", txn, 10.0, reply=(7, 3, txn))
        assert record.executed
        assert record.reply == (7, 3, txn)
        assert log.frontier("k") == 10.0

    def test_dispatch_is_idempotent_for_resends(self):
        log = PieceRedoLog()
        txn = TransactionId(0, 2)
        first = log.log_dispatch("k", txn, True, 1)
        second = log.log_dispatch("k", txn, True, 999)
        assert second is first
        assert first.write_value == 1  # the original payload wins
        assert len(log) == 1

    def test_order_creates_record_when_dispatch_was_lost(self):
        log = PieceRedoLog()
        txn = TransactionId(1, 4)
        record = log.log_order("k", txn, 5.0, is_write=True, write_value=42)
        assert record.order == 5.0
        assert record.write_value == 42
        assert log.find("k", txn) is record

    def test_frontier_is_per_key_and_monotone(self):
        log = PieceRedoLog()
        assert log.frontier("k") == float("-inf")
        log.log_execution("k", TransactionId(0, 1), 10.0, reply=(None, 0, None))
        log.log_execution("k", TransactionId(0, 2), 4.0, reply=(None, 0, None))
        assert log.frontier("k") == 10.0  # lower order cannot regress it
        assert log.frontier("other") == float("-inf")

    def test_unexecuted_records_replay_order(self):
        log = PieceRedoLog()
        # key "a": two ordered pieces logged out of order, one unordered.
        log.log_order("a", TransactionId(0, 2), 20.0)
        log.log_order("a", TransactionId(0, 1), 10.0)
        log.log_dispatch("a", TransactionId(0, 3), False, None)
        # key "b": one executed (excluded) and one ordered piece.
        log.log_execution("b", TransactionId(1, 1), 1.0, reply=(None, 0, None))
        log.log_order("b", TransactionId(1, 2), 2.0)

        replay = log.unexecuted_records()
        assert [(r.key, r.txn_id) for r in replay] == [
            ("a", TransactionId(0, 1)),  # ordered pieces first, by order
            ("a", TransactionId(0, 2)),
            ("a", TransactionId(0, 3)),  # then unordered, by txn_id
            ("b", TransactionId(1, 2)),
        ]

    def test_discard_is_idempotent(self):
        log = PieceRedoLog()
        txn = TransactionId(0, 9)
        log.log_dispatch("k", txn, False, None)
        log.discard("k", txn)
        log.discard("k", txn)
        assert log.find("k", txn) is None
        assert len(log) == 0
