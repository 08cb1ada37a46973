"""Integration tests for the experiment harness and fault handling."""

from __future__ import annotations

from pathlib import Path

import pytest

from benchmarks.figures import FIGURES, expand
from repro.common.config import ClusterConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.core.cluster import SSSCluster
from repro.harness.cluster import PROTOCOLS, build_cluster
from repro.harness.runner import run_experiment
from repro.harness.sweep import find_saturation_throughput


def small_config(**overrides):
    defaults = dict(n_nodes=3, n_keys=60, replication_degree=2, clients_per_node=2, seed=7)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestRunner:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_run_experiment_produces_metrics(self, protocol):
        config = small_config(replication_degree=1 if protocol == "rococo" else 2)
        result = run_experiment(
            protocol,
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=20_000,
            warmup_us=5_000,
        )
        metrics = result.metrics
        assert metrics.committed > 0
        assert metrics.throughput_ktps > 0
        assert metrics.latency.count == metrics.committed
        assert 0.0 <= metrics.abort_rate < 1.0

    def test_warmup_excluded_from_measurements(self):
        config = small_config()
        workload = WorkloadConfig(read_only_fraction=0.5)
        with_warmup = run_experiment("sss", config, workload, duration_us=30_000, warmup_us=15_000)
        without_warmup = run_experiment("sss", config, workload, duration_us=30_000, warmup_us=0)
        assert with_warmup.metrics.committed < without_warmup.metrics.committed

    def test_find_saturation_picks_best_client_count(self):
        config = small_config()
        best = find_saturation_throughput(
            "sss",
            config,
            WorkloadConfig(read_only_fraction=0.5),
            client_counts=(1, 4),
            duration_us=15_000,
            warmup_us=0,
        )
        assert best.config.clients_per_node in (1, 4)
        assert "saturation_clients_per_node" in best.metrics.extra

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            build_cluster("spanner", config=small_config())

    def test_build_cluster_types(self):
        for name, cluster_class in PROTOCOLS.items():
            cluster = build_cluster(
                name,
                config=small_config(replication_degree=1 if name == "rococo" else 2),
            )
            assert isinstance(cluster, cluster_class)
            assert cluster.history is None  # history off by default for benchmarks

    def test_think_time_lowers_throughput(self):
        config = small_config()
        busy = run_experiment(
            "sss",
            config,
            WorkloadConfig(read_only_fraction=0.5, think_time_us=0.0),
            duration_us=20_000,
            warmup_us=0,
        )
        idle = run_experiment(
            "sss",
            config,
            WorkloadConfig(read_only_fraction=0.5, think_time_us=2_000.0),
            duration_us=20_000,
            warmup_us=0,
        )
        assert idle.metrics.committed < busy.metrics.committed


class TestFigureTable:
    """``benchmarks/figures.py``: the one statement of the paper's figures."""

    def test_every_section_v_figure_has_a_row(self):
        assert set(FIGURES) == {
            "fig3",
            "fig4a",
            "fig4b",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "ablation",
        }

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_every_row_builds_valid_configs(self, name):
        figure = FIGURES[name]
        points = expand(figure)
        assert len(points) == (
            len(figure.read_only_fractions) * len(figure.protocols) * len(figure.axis_values())
        )
        assert len({point.label for point in points}) == len(points)
        for point in points:
            assert point.protocol in PROTOCOLS
            point.config.validate()
            point.workload.validate()

    def test_fig3_has_the_paper_structure(self):
        fig3 = FIGURES["fig3"]
        assert fig3.protocols == ("sss", "2pc", "walter")
        assert fig3.replication_degree == 2
        assert fig3.read_only_fractions == (0.2, 0.5, 0.8)
        assert fig3.axis == "n_nodes"
        assert {point.config.replication_degree for point in expand(fig3)} == {2}

    @pytest.mark.parametrize("name", ["fig4b", "fig5"])
    def test_latency_rows_sweep_clients_on_one_node_count(self, name):
        figure = FIGURES[name]
        assert figure.axis == "clients_per_node"
        points = expand(figure)
        assert len({point.config.n_nodes for point in points}) == 1
        assert sorted({point.config.clients_per_node for point in points}) == list(figure.values)

    def test_fig8_widens_read_only_transactions_without_replication(self):
        points = expand(FIGURES["fig8"])
        assert sorted({point.workload.read_only_txn_keys for point in points}) == [2, 4, 8, 16]
        assert {point.config.replication_degree for point in points} == {1}
        assert {point.workload.read_only_fraction for point in points} == {0.8}

    def test_claim_names_are_unique_and_carry_their_paper_sentence(self):
        claims = [claim for figure in FIGURES.values() for claim in figure.claims]
        names = [claim.name for claim in claims]
        assert len(set(names)) == len(names)
        for figure in FIGURES.values():
            assert figure.claims, f"{figure.name} makes no claim"
            for claim in figure.claims:
                assert claim.name.startswith(f"{figure.name}."), claim.name
                assert claim.paper.strip(), f"{claim.name} has no paper sentence"
                assert callable(claim.holds)

    def test_docs_list_every_claim_and_write_up_every_finding(self):
        text = (Path(__file__).resolve().parents[2] / "docs" / "BENCHMARKS.md").read_text()
        findings = text.partition("### Findings")[2]
        for figure in FIGURES.values():
            for claim in figure.claims:
                assert f"`{claim.name}`" in text, f"{claim.name} is not in docs/BENCHMARKS.md"
                if claim.finding:
                    assert "docs/BENCHMARKS.md" in claim.finding
                    assert f"`{claim.name}`" in findings, f"{claim.name}: no write-up"


class TestFaultTolerance:
    def test_crash_of_uninvolved_node_does_not_block_transactions(self):
        config = ClusterConfig(
            n_nodes=4, n_keys=40, replication_degree=1, clients_per_node=1, seed=19
        )
        cluster = SSSCluster(config, record_history=True)
        # Crash a node and run transactions that never touch its keys.
        crashed = 3
        cluster.network.crash(crashed)
        safe_keys = [
            key
            for key in cluster.keys
            if crashed not in cluster.placement.replicas(key)
        ][:4]
        outcomes = []

        def client(session, key):
            session.begin(read_only=False)
            value = yield from session.read(key)
            session.write(key, value + 1)
            ok = yield from session.commit()
            outcomes.append(ok)

        for index, key in enumerate(safe_keys):
            cluster.spawn(client(cluster.session(index % 3), key))
        cluster.run(until=200_000)
        assert outcomes and all(outcomes)

    def test_transactions_touching_crashed_node_abort_by_timeout(self):
        config = ClusterConfig(
            n_nodes=3, n_keys=30, replication_degree=1, clients_per_node=1, seed=20
        )
        cluster = SSSCluster(config, record_history=True)
        crashed = 2
        cluster.network.crash(crashed)
        key = next(key for key in cluster.keys if cluster.placement.primary(key) == crashed)
        outcomes = []

        def client(session):
            session.begin(read_only=False)
            session.write(key, 1)
            ok = yield from session.commit()
            outcomes.append(ok)

        cluster.spawn(client(cluster.session(0)))
        cluster.run(until=500_000)
        assert outcomes == [False]
