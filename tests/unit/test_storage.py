"""Unit tests for the per-node storage substrate.

Covers version chains, the multi-version store, snapshot queues, the lock
table, the NLog and the commit queue.
"""

from __future__ import annotations

import pytest

from repro.clocks.vector_clock import VectorClock
from repro.common.ids import TransactionId
from repro.storage.commit_queue import CommitQueue, CommitStatus
from repro.storage.locks import LockMode, LockTable
from repro.storage.mvstore import MultiVersionStore
from repro.storage.nlog import NLog, NLogEntry
from repro.storage.snapshot_queue import READ_KIND, WRITE_KIND, SnapshotQueue, SQueueEntry
from repro.storage.version import Version, VersionChain


def txn(seq: int, node: int = 0) -> TransactionId:
    return TransactionId(node, seq)


class TestVersionChain:
    def test_install_and_latest(self):
        chain = VersionChain(key="k")
        chain.install(Version(1, VectorClock([1, 0])))
        chain.install(Version(2, VectorClock([2, 0])))
        assert chain.latest.value == 2
        assert len(chain) == 2

    def test_latest_of_empty_chain_raises(self):
        with pytest.raises(KeyError):
            VersionChain(key="k").latest

    def test_newest_to_oldest_order(self):
        chain = VersionChain(key="k")
        for value in (1, 2, 3):
            chain.install(Version(value, VectorClock([value])))
        assert [v.value for v in chain.newest_to_oldest()] == [3, 2, 1]

    def test_find_newest_with_predicate(self):
        chain = VersionChain(key="k")
        for value in (1, 2, 3, 4):
            chain.install(Version(value, VectorClock([value])))
        found = chain.find_newest(lambda v: v.vc[0] <= 2)
        assert found.value == 2
        assert chain.find_newest(lambda v: v.vc[0] > 10) is None

    def test_max_length_truncates_oldest(self):
        chain = VersionChain(key="k", max_length=2)
        for value in range(5):
            chain.install(Version(value, VectorClock([value])))
        assert [v.value for v in chain] == [3, 4]

    def test_truncate_before_keeps_minimum(self):
        chain = VersionChain(key="k")
        for value in range(6):
            chain.install(Version(value, VectorClock([value])))
        dropped = chain.truncate_before(min_versions=2)
        assert dropped == 4
        assert [v.value for v in chain] == [4, 5]


class TestMultiVersionStore:
    def test_preload_installs_zero_version(self):
        store = MultiVersionStore(node_index=0)
        store.preload(["a", "b"], initial_value=7, n_nodes=3)
        assert store.latest("a").value == 7
        assert store.latest("b").vc == VectorClock.zeros(3)
        assert store.total_versions() == 2

    def test_preload_is_idempotent(self):
        store = MultiVersionStore(node_index=0)
        store.preload(["a"], n_nodes=2)
        store.preload(["a"], n_nodes=2)
        assert len(store.chain("a")) == 1

    def test_install_appends_version(self):
        store = MultiVersionStore(node_index=0)
        store.preload(["a"], n_nodes=2)
        store.install("a", 10, VectorClock([1, 0]), writer=txn(1))
        assert store.latest("a").value == 10
        assert store.latest("a").writer == txn(1)

    def test_squeue_created_lazily_and_cached(self):
        store = MultiVersionStore(node_index=0)
        queue = store.squeue("a")
        assert store.squeue("a") is queue
        assert store.total_queued_entries() == 0


class TestSnapshotQueue:
    def test_insert_orders_by_snapshot(self):
        queue = SnapshotQueue("k")
        queue.insert(SQueueEntry(txn(1), 9, READ_KIND))
        queue.insert(SQueueEntry(txn(2), 3, READ_KIND))
        queue.insert(SQueueEntry(txn(3), 6, READ_KIND))
        assert [entry.insertion_snapshot for entry in queue.readers()] == [3, 6, 9]

    def test_duplicate_insert_ignored(self):
        queue = SnapshotQueue("k")
        queue.insert(SQueueEntry(txn(1), 5, READ_KIND))
        queue.insert(SQueueEntry(txn(1), 7, READ_KIND))
        assert len(queue) == 1

    def test_readers_and_writers_split(self):
        queue = SnapshotQueue("k")
        queue.insert(SQueueEntry(txn(1), 5, READ_KIND))
        queue.insert(SQueueEntry(txn(2), 8, WRITE_KIND))
        assert len(queue.readers()) == 1
        assert len(queue.writers()) == 1
        assert txn(1) in queue and txn(2) in queue

    def test_remove_deletes_all_entries_of_txn(self):
        queue = SnapshotQueue("k")
        queue.insert(SQueueEntry(txn(1), 5, READ_KIND))
        queue.insert(SQueueEntry(txn(2), 8, WRITE_KIND))
        assert queue.remove(txn(1)) is True
        assert queue.remove(txn(1)) is False
        assert txn(1) not in queue

    def test_has_reader_below(self):
        queue = SnapshotQueue("k")
        queue.insert(SQueueEntry(txn(1), 5, READ_KIND))
        assert queue.has_reader_below(6)
        assert not queue.has_reader_below(5)
        assert not queue.has_reader_below(3)

    def test_has_entry_below_covers_writers_and_excludes_self(self):
        queue = SnapshotQueue("k")
        queue.insert(SQueueEntry(txn(1), 5, WRITE_KIND))
        queue.insert(SQueueEntry(txn(2), 8, WRITE_KIND))
        assert queue.has_entry_below(8, exclude_txn=txn(2))
        assert not queue.has_entry_below(8, exclude_txn=txn(1))
        assert not queue.has_entry_below(5, exclude_txn=txn(2))

    def test_writers_above(self):
        queue = SnapshotQueue("k")
        queue.insert(SQueueEntry(txn(1), 5, WRITE_KIND))
        queue.insert(SQueueEntry(txn(2), 9, WRITE_KIND))
        above = queue.writers_above(6)
        assert [entry.txn_id for entry in above] == [txn(2)]

    def test_signal_notified_on_mutation(self, sim):
        queue = SnapshotQueue("k", sim=sim)
        notified = []

        def waiter():
            yield sim.condition(lambda: len(queue) == 0 or True, queue.signal)
            notified.append(True)

        # Attach a condition that is already true so it fires immediately and
        # then verify notify on insert does not break anything.
        sim.process(waiter())
        queue.insert(SQueueEntry(txn(1), 5, READ_KIND))
        sim.run()
        assert notified == [True]

    def test_oldest_writer_age(self, sim):
        queue = SnapshotQueue("k", sim=sim)
        assert queue.oldest_writer_age(now=100.0) is None

        def proc():
            yield sim.timeout(10)
            queue.insert(SQueueEntry(txn(1), 5, WRITE_KIND))

        sim.process(proc())
        sim.run()
        assert queue.oldest_writer_age(now=35.0) == pytest.approx(25.0)

    def test_emptied_queue_holds_no_containers_but_keeps_its_signal(self, sim):
        queue = SnapshotQueue("k", sim=sim)
        signal = queue.signal
        queue.insert(SQueueEntry(txn(1), 5, READ_KIND))
        queue.insert(SQueueEntry(txn(1), 5, READ_KIND, only_for=txn(9)))
        queue.insert(SQueueEntry(txn(2), 8, WRITE_KIND))
        queue.remove(txn(1))
        queue.remove(txn(2))
        # Every empty side shares one set of never-mutated containers.
        untouched = SnapshotQueue("fresh")
        assert queue._readers is queue._writers is untouched._readers
        assert queue.signal is signal and len(queue) == 0
        queue.insert(SQueueEntry(txn(3), 2, WRITE_KIND))
        assert untouched.writers() == [] and [e.txn_id for e in queue.writers()] == [txn(3)]


class TestLockTable:
    def test_shared_locks_are_compatible(self, sim):
        table = LockTable(sim)
        assert table.try_acquire(txn(1), "k", LockMode.SHARED)
        assert table.try_acquire(txn(2), "k", LockMode.SHARED)
        assert len(table.holders("k")) == 2

    def test_exclusive_excludes_everyone(self, sim):
        table = LockTable(sim)
        assert table.try_acquire(txn(1), "k", LockMode.EXCLUSIVE)
        assert not table.try_acquire(txn(2), "k", LockMode.SHARED)
        assert not table.try_acquire(txn(2), "k", LockMode.EXCLUSIVE)

    def test_reentrant_acquisition(self, sim):
        table = LockTable(sim)
        assert table.try_acquire(txn(1), "k", LockMode.EXCLUSIVE)
        assert table.try_acquire(txn(1), "k", LockMode.SHARED)
        assert table.try_acquire(txn(1), "k", LockMode.EXCLUSIVE)

    def test_upgrade_allowed_only_for_sole_holder(self, sim):
        table = LockTable(sim)
        table.try_acquire(txn(1), "k", LockMode.SHARED)
        assert table.try_acquire(txn(1), "k", LockMode.EXCLUSIVE)
        table2 = LockTable(sim)
        table2.try_acquire(txn(1), "k", LockMode.SHARED)
        table2.try_acquire(txn(2), "k", LockMode.SHARED)
        assert not table2.try_acquire(txn(1), "k", LockMode.EXCLUSIVE)

    def test_release_wakes_waiter(self, sim):
        table = LockTable(sim)
        log = []

        def holder():
            ok = yield from table.acquire_all(txn(1), ["k"], timeout_us=1000)
            log.append(("holder", ok, sim.now))
            yield sim.timeout(40)
            table.release_all(txn(1))

        def waiter():
            yield sim.timeout(1)
            ok = yield from table.acquire_all(txn(2), ["k"], timeout_us=1000)
            log.append(("waiter", ok, sim.now))

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert ("holder", True, 0.0) in log
        assert ("waiter", True, 40.0) in log

    def test_acquire_all_times_out_and_releases_partial(self, sim):
        table = LockTable(sim)
        log = []

        def holder():
            yield from table.acquire_all(txn(1), ["b"], timeout_us=1000)
            yield sim.timeout(500)
            table.release_all(txn(1))

        def contender():
            yield sim.timeout(1)
            ok = yield from table.acquire_all(txn(2), ["a", "b"], timeout_us=50)
            log.append((ok, sim.now))

        sim.process(holder())
        sim.process(contender())
        sim.run()
        ok, when = log[0]
        assert ok is False
        assert when == pytest.approx(51.0, abs=1.0)
        # The partially acquired lock on "a" must have been released.
        assert table.holders("a") == {}
        assert table.timeout_count == 1

    def test_release_all_clears_everything(self, sim):
        table = LockTable(sim)
        table.try_acquire(txn(1), "a", LockMode.EXCLUSIVE)
        table.try_acquire(txn(1), "b", LockMode.SHARED)
        table.release_all(txn(1))
        assert table.locked_keys() == []

    def test_released_table_keeps_no_key_state(self, sim):
        """A key's lock state lives only while someone holds or waits for it."""
        table = LockTable(sim)

        def holder():
            yield from table.acquire_all(txn(1), ["a", "b"], timeout_us=1000)
            yield sim.timeout(100)
            table.release(txn(1), ["a", "b"])

        def granted():
            yield sim.timeout(1)
            yield from table.acquire_all(txn(2), ["a"], timeout_us=1000)
            table.release(txn(2), ["a"])

        def timed_out():
            yield sim.timeout(1)
            yield from table.acquire_all(txn(3), ["c", "b"], timeout_us=10)

        for process in (holder(), granted(), timed_out()):
            sim.process(process)
        sim.run()
        assert table.timeout_count == 1
        assert table._keys == {}
        assert not table.holds(txn(1), "a") and table.holders("a") == {}
        assert table._keys == {}


class TestNLog:
    def _entry(self, seq, vc, keys=("k",)):
        return NLogEntry(txn_id=txn(seq), vc=vc, write_keys=tuple(keys), commit_time=0.0)

    def test_append_updates_most_recent(self):
        nlog = NLog(node_index=0, n_nodes=2)
        nlog.append(self._entry(1, VectorClock([3, 1])))
        assert nlog.most_recent_vc == VectorClock([3, 1])
        assert nlog.local_value() == 3
        assert len(nlog) == 1

    def test_cumulative_max_across_entries(self):
        nlog = NLog(node_index=0, n_nodes=2)
        nlog.append(self._entry(1, VectorClock([3, 1])))
        nlog.append(self._entry(2, VectorClock([2, 5])))
        assert nlog.most_recent_vc == VectorClock([2, 5])
        assert nlog.cumulative_max_vc == VectorClock([3, 5])

    def test_retention_bounds_length_but_not_counters(self):
        nlog = NLog(node_index=0, n_nodes=1, retention=3)
        for seq in range(10):
            nlog.append(self._entry(seq, VectorClock([seq + 1])))
        assert len(nlog) == 3
        assert nlog.total_appended == 10
        assert nlog.cumulative_max_vc == VectorClock([10])

    def test_visible_max_summary_respects_read_bounds(self):
        nlog = NLog(node_index=0, n_nodes=2)
        nlog.append(self._entry(1, VectorClock([5, 7])))
        reader_vc = VectorClock([3, 2])
        result = nlog.visible_max_vc(reader_vc, read=VectorClock.selector([False, True]))
        assert result[0] == 5  # unread coordinate: cumulative max
        assert result[1] == 2  # read coordinate: capped by the reader's bound

    def test_visible_max_summary_stays_below_excluded_writers(self):
        nlog = NLog(node_index=0, n_nodes=2)
        nlog.append(self._entry(1, VectorClock([5, 1])))
        nlog.append(self._entry(2, VectorClock([8, 1])))
        reader_vc = VectorClock([5, 0])
        excluded = [VectorClock([8, 1])]
        read = VectorClock.selector([False, False])
        result = nlog.visible_max_vc(reader_vc, read=read, excluded=excluded)
        assert result[0] == 7

    def test_visible_max_strict_scans_entries(self):
        nlog = NLog(node_index=0, n_nodes=2)
        nlog.append(self._entry(1, VectorClock([5, 1])))
        nlog.append(self._entry(2, VectorClock([8, 9])))
        reader_vc = VectorClock([10, 1])
        read = VectorClock.selector([False, True])
        result = nlog.visible_max_vc(reader_vc, read=read, strict=True)
        # The second entry is invisible (vc[1]=9 > bound 1), so only the first counts.
        assert result == VectorClock([5, 1])

    def test_strict_mode_excludes_specific_clocks(self):
        nlog = NLog(node_index=0, n_nodes=1)
        nlog.append(self._entry(1, VectorClock([5])))
        nlog.append(self._entry(2, VectorClock([9])))
        result = nlog.visible_max_vc(
            VectorClock([3]),
            read=VectorClock.selector([False]),
            excluded=[VectorClock([9])],
            strict=True,
        )
        assert result == VectorClock([5])


class TestCommitQueue:
    def test_put_orders_by_local_entry(self):
        queue = CommitQueue(node_index=0)
        queue.put(txn(1), VectorClock([5, 0]))
        queue.put(txn(2), VectorClock([3, 0]))
        assert queue.head().txn_id == txn(2)

    def test_duplicate_put_rejected(self):
        queue = CommitQueue(node_index=0)
        queue.put(txn(1), VectorClock([5]))
        with pytest.raises(ValueError):
            queue.put(txn(1), VectorClock([6]))

    def test_update_marks_ready_and_reorders(self):
        queue = CommitQueue(node_index=0)
        queue.put(txn(1), VectorClock([5, 0]))
        queue.put(txn(2), VectorClock([6, 0]))
        queue.update(txn(2), VectorClock([4, 0]))
        head = queue.head()
        assert head.txn_id == txn(2)
        assert head.status is CommitStatus.READY
        assert queue.head_is_ready()

    def test_pending_head_blocks_ready_followers(self):
        queue = CommitQueue(node_index=0)
        queue.put(txn(1), VectorClock([2, 0]))
        queue.put(txn(2), VectorClock([5, 0]))
        queue.update(txn(2), VectorClock([5, 0]))
        assert not queue.head_is_ready()

    def test_update_unknown_txn_rejected(self):
        queue = CommitQueue(node_index=0)
        with pytest.raises(KeyError):
            queue.update(txn(9), VectorClock([1]))

    def test_remove(self):
        queue = CommitQueue(node_index=0)
        queue.put(txn(1), VectorClock([2]))
        assert queue.remove(txn(1)) is True
        assert queue.remove(txn(1)) is False
        assert queue.head() is None
