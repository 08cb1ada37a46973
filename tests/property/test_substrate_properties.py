"""Property-based tests (hypothesis) for the substrate data structures."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.clocks.compression import VCCodec
from repro.clocks.vector_clock import VectorClock
from repro.common.ids import TransactionId
from repro.replication.placement import KeyPlacement
from repro.sim.engine import Simulation
from repro.sim.events import ThresholdWaiters
from repro.storage.commit_queue import CommitQueue, CommitStatus
from repro.storage.nlog import NLog, NLogEntry
from repro.storage.snapshot_queue import READ_KIND, WRITE_KIND, SnapshotQueue, SQueueEntry
from repro.storage.version import Version, VersionChain

# Reusable strategies -------------------------------------------------------
entries = st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=8)


def clock_pairs(size: int = 5):
    entry = st.integers(min_value=0, max_value=100)
    clock = st.lists(entry, min_size=size, max_size=size).map(VectorClock)
    return st.tuples(clock, clock)


class TestVectorClockProperties:
    @given(entries)
    def test_merge_idempotent(self, values):
        clock = VectorClock(values)
        assert clock.merge(clock) == clock

    @given(clock_pairs())
    def test_merge_commutative_and_upper_bound(self, pair):
        a, b = pair
        merged = a.merge(b)
        assert merged == b.merge(a)
        assert a <= merged and b <= merged

    @given(clock_pairs(), st.integers(min_value=0, max_value=4))
    def test_increment_strictly_greater(self, pair, index):
        clock, _ = pair
        assert clock < clock.increment(index)

    @given(clock_pairs())
    def test_partial_order_antisymmetry(self, pair):
        a, b = pair
        if a <= b and b <= a:
            assert a == b

    @given(clock_pairs())
    def test_exactly_one_relation_holds(self, pair):
        a, b = pair
        relations = [a == b, a < b, b < a, a.concurrent_with(b)]
        assert sum(bool(r) for r in relations) == 1

    @given(st.lists(st.lists(st.integers(0, 50), min_size=3, max_size=3), min_size=1, max_size=10))
    def test_merge_associative_over_sequences(self, clock_lists):
        clocks = [VectorClock(values) for values in clock_lists]
        left = clocks[0]
        for clock in clocks[1:]:
            left = left.merge(clock)
        right = clocks[-1]
        for clock in reversed(clocks[:-1]):
            right = clock.merge(right)
        assert left == right


class TestCodecProperties:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=10_000), min_size=6, max_size=6),
            min_size=1,
            max_size=30,
        )
    )
    def test_encode_decode_roundtrip_sequence(self, clock_values):
        sender = VCCodec(size=6)
        receiver = VCCodec(size=6)
        for values in clock_values:
            clock = VectorClock(values)
            encoding = sender.encode("peer", clock)
            assert receiver.decode("peer", encoding) == clock


class TestPlacementProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=40, unique=True),
    )
    def test_replica_sets_valid(self, n_nodes, degree, keys):
        degree = min(degree, n_nodes)
        placement = KeyPlacement(n_nodes=n_nodes, replication_degree=degree, keys=keys)
        for key in keys:
            replicas = placement.replicas(key)
            assert len(replicas) == degree
            assert len(set(replicas)) == degree
            assert all(0 <= node < n_nodes for node in replicas)
            assert placement.primary(key) == replicas[0]

    @given(st.lists(st.integers(), min_size=1, max_size=50, unique=True))
    def test_every_key_is_local_somewhere(self, keys):
        placement = KeyPlacement(n_nodes=5, replication_degree=2, keys=keys)
        covered = set()
        for node in range(5):
            covered.update(placement.local_keys(node))
        assert covered == set(keys)


class TestSnapshotQueueProperties:
    ops = st.lists(
        st.tuples(
            st.sampled_from(["insert_r", "insert_w", "remove"]),
            st.integers(min_value=0, max_value=15),   # txn seq
            st.integers(min_value=0, max_value=100),  # snapshot
        ),
        max_size=60,
    )

    @given(ops)
    def test_queue_invariants_under_random_operations(self, operations):
        queue = SnapshotQueue("k")
        alive = set()
        for op, seq, snapshot in operations:
            txn = TransactionId(0, seq)
            if op == "insert_r":
                queue.insert(SQueueEntry(txn, snapshot, READ_KIND))
                alive.add(txn)
            elif op == "insert_w":
                queue.insert(SQueueEntry(txn, snapshot, WRITE_KIND))
                alive.add(txn)
            else:
                queue.remove(txn)
                alive.discard(txn)
            # Invariant 1: sub-queues stay sorted by insertion snapshot.
            reader_snapshots = [e.insertion_snapshot for e in queue.readers()]
            writer_snapshots = [e.insertion_snapshot for e in queue.writers()]
            assert reader_snapshots == sorted(reader_snapshots)
            assert writer_snapshots == sorted(writer_snapshots)
            # Invariant 2: at most one reader and one writer entry per txn.
            reader_ids = [e.txn_id for e in queue.readers()]
            writer_ids = [e.txn_id for e in queue.writers()]
            assert len(reader_ids) == len(set(reader_ids))
            assert len(writer_ids) == len(set(writer_ids))
            # Invariant 3: membership matches the alive set we maintain.
            for txn_id in alive:
                pass  # txn may or may not be present (removed txns never are)
        for op, seq, _snapshot in operations:
            if op == "remove":
                assert TransactionId(0, seq) not in queue or TransactionId(0, seq) in alive

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=50),
    )
    def test_has_reader_below_matches_definition(self, snapshots, bound):
        queue = SnapshotQueue("k")
        for index, snapshot in enumerate(snapshots):
            queue.insert(SQueueEntry(TransactionId(0, index), snapshot, READ_KIND))
        assert queue.has_reader_below(bound) == any(s < bound for s in snapshots)


class TestCommitQueueProperties:
    ops = st.lists(
        st.tuples(
            st.sampled_from(["put", "put", "update", "remove", "clear"]),
            st.integers(min_value=0, max_value=2),  # coordinator of the txn
            st.integers(min_value=0, max_value=5),  # txn seq
            st.integers(min_value=0, max_value=6),  # node-local clock entry: ties are common
        ),
        max_size=60,
    )

    @given(ops)
    def test_order_and_index_match_a_sorted_list(self, operations):
        """The bisect-kept order is the order a full sort gives, and ``find``
        answers what a scan of the entries answers, after every mutation."""
        queue = CommitQueue(node_index=1)
        model = {}  # txn id -> (local clock entry, status)
        for op, node, seq, local in operations:
            txn = TransactionId(node, seq)
            vc = VectorClock([9, local, 9])
            if op == "put" and txn not in model:
                queue.put(txn, vc)
                model[txn] = (local, CommitStatus.PENDING)
            elif op == "update" and txn in model:
                queue.update(txn, vc)
                model[txn] = (local, CommitStatus.READY)
            elif op == "remove":
                assert queue.remove(txn) == (txn in model)
                model.pop(txn, None)
            elif op == "clear":
                assert queue.clear() == len(model)
                model.clear()
            expected = sorted(model, key=lambda txn_id: (model[txn_id][0], txn_id))
            entries = queue.entries()
            assert [entry.txn_id for entry in entries] == expected
            assert [(entry.vc[1], entry.status) for entry in entries] == [
                model[txn_id] for txn_id in expected
            ]
            assert len(queue) == len(model)
            for node_id in range(3):
                for seq_id in range(6):
                    probe = TransactionId(node_id, seq_id)
                    scanned = next((e for e in entries if e.txn_id == probe), None)
                    assert queue.find(probe) is scanned
            head = queue.head()
            assert head is (entries[0] if entries else None)
            assert queue.min_pending_local() == (model[expected[0]][0] if expected else None)


class TestNLogProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=7), max_size=40),
        st.integers(min_value=1, max_value=5),
    )
    def test_find_matches_a_scan_of_the_retained_entries(self, seqs, retention):
        """Truncation past ``retention`` forgets exactly the dropped entries,
        also when an id is appended again before or after its first entry
        was dropped (the index then answers with the later entry)."""
        nlog = NLog(node_index=0, n_nodes=1, retention=retention)
        for position, seq in enumerate(seqs):
            nlog.append(
                NLogEntry(
                    txn_id=TransactionId(0, seq),
                    vc=VectorClock([position + 1]),
                    write_keys=(),
                    commit_time=float(position),
                )
            )
            retained = nlog.entries()
            assert len(retained) == min(position + 1, retention)
            for probe_seq in range(8):
                probe = TransactionId(0, probe_seq)
                scanned = next((e for e in reversed(retained) if e.txn_id == probe), None)
                assert nlog.find(probe) is scanned


class TestThresholdWaitersProperties:
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("wait"), st.integers(min_value=0, max_value=12)),
            st.tuples(st.just("level"), st.integers(min_value=0, max_value=3)),
            st.tuples(st.just("floor"), st.none() | st.integers(min_value=0, max_value=12)),
        ),
        max_size=40,
    )

    @staticmethod
    def _run(operations, grouped):
        """A log that rises and a queue head that comes and goes, each with
        its signal, and processes waiting for ``ready(target)`` — through one
        ThresholdWaiters, or through one Condition each."""
        sim = Simulation(seed=1)
        state = {"level": 0, "floor": None}
        log_signal, queue_signal = sim.signal("log"), sim.signal("queue")

        def ready(target):
            floor = state["floor"]
            return state["level"] >= target and not (floor is not None and floor <= target)

        waiters = ThresholdWaiters(sim, ready, [log_signal, queue_signal])
        woke = []

        def reader(index, target):
            if grouped:
                yield waiters.wait(target)
            else:
                yield sim.condition(lambda: ready(target), [log_signal, queue_signal])
            woke.append((index, target, sim.now))

        def driver():
            for index, (op, value) in enumerate(operations):
                yield sim.timeout(1)
                if op == "wait":
                    sim.process(reader(index, value))
                elif op == "level":
                    state["level"] += value
                    log_signal.notify()
                else:
                    state["floor"] = value
                    queue_signal.notify()

        sim.process(driver())
        sim.run()
        still_attached = len(log_signal._conditions) + len(queue_signal._conditions)
        return woke, sim.processed_events, still_attached

    @given(ops)
    def test_wakes_exactly_as_one_condition_per_waiter_does(self, operations):
        grouped, grouped_events, attached = self._run(operations, grouped=True)
        separate, separate_events, _ = self._run(operations, grouped=False)
        assert grouped == separate
        assert grouped_events == separate_events
        parked = sum(op == "wait" for op, _ in operations) - len(grouped)
        # Attached to both signals while anybody waits, to neither otherwise.
        assert attached == (2 if parked else 0)


class TestVersionChainProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=40))
    def test_walk_is_reverse_of_install_order(self, values):
        chain = VersionChain(key="k")
        for index, value in enumerate(values):
            chain.install(Version(value, VectorClock([index])))
        walked = [version.value for version in chain.newest_to_oldest()]
        assert walked == list(reversed(values))
        assert chain.latest.value == values[-1]
