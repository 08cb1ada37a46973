"""Unit tests for workload generation, key placement and configuration."""

from __future__ import annotations

import random

import pytest

from repro.common.config import ClusterConfig, NetworkConfig, TimeoutConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.ids import TransactionId, TxnIdGenerator
from repro.replication.placement import KeyPlacement, hash_placement
from repro.workload.distributions import (
    LocalityKeySelector,
    UniformKeySelector,
    ZipfianKeySelector,
    make_key_selector,
)
from repro.workload.profiles import WorkloadGenerator

KEYS = [f"key-{index}" for index in range(100)]


class TestIdentifiers:
    def test_transaction_ids_unique_and_ordered(self):
        generator = TxnIdGenerator(node=3)
        first, second = generator.next_id(), generator.next_id()
        assert first != second
        assert first < second
        assert first.node == 3

    def test_transaction_id_hashable(self):
        assert len({TransactionId(0, 1), TransactionId(0, 1), TransactionId(1, 1)}) == 2


class TestConfigValidation:
    def test_default_configs_valid(self):
        ClusterConfig().validate()
        WorkloadConfig().validate()

    def test_replication_degree_above_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_nodes=3, replication_degree=4).validate()

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_nodes=0).validate()

    def test_bad_read_only_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(read_only_fraction=1.5).validate()

    def test_bad_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(key_distribution="pareto").validate()

    def test_bad_locality_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(locality_fraction=-0.1).validate()

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(base_latency_us=-1).validate()

    def test_bad_backoff_window_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeoutConfig(backoff_initial_us=100, backoff_max_us=10).validate()


class TestPlacement:
    def test_replica_count_and_distinctness(self):
        placement = KeyPlacement(n_nodes=5, replication_degree=3, keys=KEYS)
        for key in KEYS:
            replicas = placement.replicas(key)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert all(0 <= node < 5 for node in replicas)

    def test_placement_is_deterministic(self):
        a = KeyPlacement(n_nodes=7, replication_degree=2)
        b = KeyPlacement(n_nodes=7, replication_degree=2)
        for key in KEYS:
            assert a.replicas(key) == b.replicas(key)

    def test_primary_is_first_replica(self):
        placement = KeyPlacement(n_nodes=4, replication_degree=2)
        assert placement.primary("k") == placement.replicas("k")[0]

    def test_replicas_of_union(self):
        placement = KeyPlacement(n_nodes=6, replication_degree=2)
        union = placement.replicas_of(["a", "b", "c"])
        expected = set()
        for key in ("a", "b", "c"):
            expected.update(placement.replicas(key))
        assert set(union) == expected
        assert list(union) == sorted(union)

    def test_local_keys_cover_every_replica(self):
        placement = KeyPlacement(n_nodes=4, replication_degree=2, keys=KEYS)
        for node in range(4):
            for key in placement.local_keys(node):
                assert placement.is_replica(node, key)

    def test_load_is_roughly_balanced(self):
        placement = KeyPlacement(n_nodes=5, replication_degree=2, keys=KEYS)
        loads = placement.load_per_node()
        assert sum(loads.values()) == len(KEYS) * 2
        assert placement.balance_ratio() < 2.5

    def test_invalid_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            KeyPlacement(n_nodes=2, replication_degree=3)

    def test_hash_placement_wraps_around(self):
        replicas = hash_placement("some-key", n_nodes=3, replication_degree=3)
        assert sorted(replicas) == [0, 1, 2]


class TestKeySelectors:
    def test_uniform_selects_distinct_keys(self):
        selector = UniformKeySelector(KEYS)
        rng = random.Random(1)
        chosen = selector.select(rng, 10)
        assert len(chosen) == len(set(chosen)) == 10
        assert all(key in KEYS for key in chosen)

    def test_uniform_rejects_oversized_request(self):
        selector = UniformKeySelector(KEYS[:3])
        with pytest.raises(ConfigurationError):
            selector.select(random.Random(1), 10)

    def test_zipfian_prefers_low_ranks(self):
        selector = ZipfianKeySelector(KEYS, theta=0.9)
        rng = random.Random(7)
        counts = {key: 0 for key in KEYS}
        for _ in range(3000):
            for key in selector.select(rng, 1):
                counts[key] += 1
        top_10 = sum(counts[key] for key in KEYS[:10])
        bottom_10 = sum(counts[key] for key in KEYS[-10:])
        assert top_10 > bottom_10 * 2

    def test_zipfian_invalid_theta(self):
        with pytest.raises(ConfigurationError):
            ZipfianKeySelector(KEYS, theta=1.5)

    def test_locality_selector_prefers_local_keys(self):
        local = KEYS[:10]
        selector = LocalityKeySelector(KEYS, local, locality_fraction=0.9)
        rng = random.Random(11)
        hits = 0
        for _ in range(1000):
            key = selector.select(rng, 1)[0]
            if key in local:
                hits += 1
        assert hits > 700

    def test_make_key_selector_dispatch(self):
        placement = KeyPlacement(n_nodes=3, replication_degree=2, keys=KEYS)
        assert isinstance(make_key_selector(WorkloadConfig(), KEYS), UniformKeySelector)
        assert isinstance(
            make_key_selector(WorkloadConfig(key_distribution="zipfian"), KEYS),
            ZipfianKeySelector,
        )
        assert isinstance(
            make_key_selector(WorkloadConfig(locality_fraction=0.5), KEYS, placement, node_id=1),
            LocalityKeySelector,
        )

    def test_make_key_selector_locality_requires_placement(self):
        with pytest.raises(ConfigurationError):
            make_key_selector(WorkloadConfig(locality_fraction=0.5), KEYS)

    def test_clients_share_the_cluster_key_tuple(self):
        # Every client owns a selector; none may copy the key space.
        keys = tuple(KEYS)
        placement = KeyPlacement(n_nodes=3, replication_degree=2, keys=keys)
        for workload in (
            WorkloadConfig(),
            WorkloadConfig(key_distribution="zipfian"),
            WorkloadConfig(locality_fraction=0.5),
        ):
            selectors = [make_key_selector(workload, keys, placement, node_id=1) for _ in range(2)]
            assert all(selector.keys is keys for selector in selectors)


class TestWorkloadGenerator:
    def test_read_only_fraction_respected(self):
        generator = WorkloadGenerator(
            WorkloadConfig(read_only_fraction=0.8), KEYS, random.Random(3)
        )
        specs = generator.specs(2000)
        read_only = sum(1 for spec in specs if spec.read_only)
        assert 0.74 <= read_only / len(specs) <= 0.86

    def test_update_profile_reads_and_writes_same_keys(self):
        generator = WorkloadGenerator(
            WorkloadConfig(read_only_fraction=0.0, update_txn_keys=2),
            KEYS,
            random.Random(5),
        )
        spec = generator.next_spec()
        assert not spec.read_only
        assert spec.read_keys == spec.write_keys
        assert len(spec.read_keys) == 2
        assert spec.size() == 2

    def test_read_only_profile_size(self):
        generator = WorkloadGenerator(
            WorkloadConfig(read_only_fraction=1.0, read_only_txn_keys=16),
            KEYS,
            random.Random(5),
        )
        spec = generator.next_spec()
        assert spec.read_only
        assert len(spec.read_keys) == 16
        assert spec.write_keys == ()

    def test_generator_counts_specs(self):
        generator = WorkloadGenerator(WorkloadConfig(), KEYS, random.Random(1))
        generator.specs(10)
        assert generator.generated == 10

    def test_same_seed_same_specs(self):
        a = WorkloadGenerator(WorkloadConfig(), KEYS, random.Random(9)).specs(50)
        b = WorkloadGenerator(WorkloadConfig(), KEYS, random.Random(9)).specs(50)
        assert a == b
