"""Unit tests of the baseline durable logs (storage/durable_log.py)."""

from __future__ import annotations

from repro.common.ids import TransactionId
from repro.storage.durable_log import PieceRedoLog, PropagationLog


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


class TestPropagationLog:
    def test_seqno_is_durable_and_monotone(self):
        log = PropagationLog()
        assert log.seqno == 0
        assert log.next_seqno() == 1
        assert log.next_seqno() == 2
        assert log.seqno == 2

    def test_stream_seq_is_contiguous_per_destination(self):
        log = PropagationLog()
        txn = TransactionId(0, 1)
        a1 = log.append(1, txn, 0, 1, (("k", 5),))
        a2 = log.append(1, txn, 0, 2, (("k", 6),))
        b1 = log.append(2, txn, 0, 1, (("k", 5),))
        assert (a1.stream_seq, a2.stream_seq) == (1, 2)
        assert b1.stream_seq == 1  # destination 2 has its own stream

    def test_ack_drops_at_or_below_watermark(self):
        log = PropagationLog()
        txn = TransactionId(0, 1)
        for seq in range(3):
            log.append(1, txn, 0, seq + 1, ())
        log.ack(1, 2)
        assert [r.stream_seq for r in log.unacked(1)] == [3]
        assert log.acked_watermark(1) == 2

    def test_ack_watermark_is_monotone(self):
        log = PropagationLog()
        txn = TransactionId(0, 1)
        for seq in range(3):
            log.append(1, txn, 0, seq + 1, ())
        log.ack(1, 3)
        log.ack(1, 1)  # stale duplicate ack must not resurrect records
        assert log.acked_watermark(1) == 3
        assert not log.has_unacked()

    def test_destinations_with_unacked_sorted(self):
        log = PropagationLog()
        txn = TransactionId(0, 1)
        log.append(3, txn, 0, 1, ())
        log.append(1, txn, 0, 1, ())
        log.append(2, txn, 0, 1, ())
        log.ack(2, 1)
        assert log.destinations_with_unacked() == [1, 3]
        assert log.has_unacked()

