"""Unit tests of ROCOCO's durable piece table (storage/durable_log.py)."""

from __future__ import annotations

from repro.common.ids import TransactionId
from repro.storage.durable_log import PieceRedoLog


class TestPieceRedoLog:
    def test_pending_view_holds_the_unexecuted_pieces(self):
        log = PieceRedoLog()
        txn = TransactionId(0, 1)
        pending = log.pending("k")
        assert pending == {}
        record = log.log_dispatch("k", txn, True, 7)
        assert record.order is None
        assert pending == {txn: record}  # a live view, not a copy
        assert log.pending("k") is pending

        assert log.log_order("k", txn, 10.0) is record
        assert record.order == 10.0
        assert log.reply("k", txn) is None

    def test_execution_replaces_the_piece_by_its_reply(self):
        log = PieceRedoLog()
        txn = TransactionId(0, 1)
        record = log.log_order("k", txn, 10.0, is_write=True, write_value=7)
        log.log_execution(record, (0, 3, TransactionId(2, 5)))
        assert log.pending("k") == {}
        assert log.reply("k", txn) == (0, 3, TransactionId(2, 5))
        assert log.frontier("k") == 10.0
        # A re-sent dispatch of the executed piece does not bring it back.
        assert log.log_dispatch("k", txn, True, 7) is None
        assert log.pending("k") == {}

    def test_dispatch_is_idempotent_for_resends(self):
        log = PieceRedoLog()
        txn = TransactionId(0, 2)
        first = log.log_dispatch("k", txn, True, 1)
        second = log.log_dispatch("k", txn, True, 999)
        assert second is first
        assert first.write_value == 1  # the original payload wins
        assert len(log.pending("k")) == 1

    def test_order_creates_record_when_the_table_lacks_it(self):
        log = PieceRedoLog()
        txn = TransactionId(1, 4)
        record = log.log_order("k", txn, 5.0, is_write=True, write_value=42)
        assert record.order == 5.0
        assert record.write_value == 42
        assert log.pending("k")[txn] is record

    def test_frontier_is_per_key_and_monotone(self):
        log = PieceRedoLog()
        assert log.frontier("k") == float("-inf")
        for seq, order in ((1, 10.0), (2, 4.0)):
            record = log.log_order("k", TransactionId(0, seq), order)
            log.log_execution(record, (None, 0, None))
        assert log.frontier("k") == 10.0  # lower order cannot regress it
        assert log.frontier("other") == float("-inf")

    def test_replay_order(self):
        log = PieceRedoLog()
        # key "a": two ordered pieces logged out of order, one unordered.
        log.log_order("a", TransactionId(0, 2), 20.0)
        log.log_order("a", TransactionId(0, 1), 10.0)
        log.log_dispatch("a", TransactionId(0, 3), False, None)
        # key "b": one executed and one ordered piece.
        executed = log.log_order("b", TransactionId(1, 1), 1.0)
        log.log_execution(executed, (None, 0, None))
        log.log_order("b", TransactionId(1, 2), 2.0)

        replay = log.replay_order()
        assert [(r.key, r.txn_id) for r in replay] == [
            ("a", TransactionId(0, 1)),  # ordered pieces only, by order
            ("a", TransactionId(0, 2)),
            ("b", TransactionId(1, 2)),
        ]

    def test_withdraw_is_idempotent_and_spares_ordered_pieces(self):
        log = PieceRedoLog()
        txn, ordered = TransactionId(0, 9), TransactionId(0, 10)
        log.log_dispatch("k", txn, False, None)
        log.log_order("k", ordered, 3.0)
        assert log.withdraw("k", txn)
        assert not log.withdraw("k", txn)
        assert not log.withdraw("never-dispatched", txn)
        assert not log.withdraw("k", ordered)  # decided: it must execute
        assert list(log.pending("k")) == [ordered]
