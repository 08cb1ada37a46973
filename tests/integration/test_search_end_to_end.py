"""End-to-end scenario search: scoring, campaign, planted bug, replay.

The expensive guarantees live here:

* **Scoring determinism** — the same genome scores to the identical signal
  vector in a fresh process under a different ``PYTHONHASHSEED``; without
  this, corpus decisions and repro bundles would be unstable.
* **Committed SSS-stall corpus genomes** — the post-restart stall they
  were committed for (ROADMAP, fixed in PR 19 by the fault-aware vote
  round) no longer reproduces: they score clean, a campaign seeded with
  one finds nothing, and they stay in the corpus as regression seeds — a
  relapse would be a *new* ``sss:stall`` fingerprint, no longer triaged.
* **Crash-forever exemption** — a Walter replica that never restarts
  cannot converge with its peers, so the scorer drops Walter's
  replica-convergence check for plans with a crash that has no ``for=``;
  a crash that restarts and still diverges is a finding.
* **Planted-regression discovery** — with the PR-6 coordinator-crash
  teardown guard reverted (test-only env flag), a fixed-seed campaign
  rediscovers the historical Walter ``TransactionStateError`` crash from
  scratch, minimizes it, and the bundle replays.  This is the pipeline
  test (mutate → minimize → bundle → replay) now that no committed genome
  fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.session import PLANTED_REGRESSION_ENV
from repro.harness.runner import run_experiment
from repro.protocols.stream import ReliableChannel
from repro.search.corpus import Corpus
from repro.search.driver import SearchSettings, run_search
from repro.search.genome import ScenarioGenome
from repro.search.replay import replay_bundle
from repro.search.scoring import score_genome

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_CORPUS = REPO_ROOT / "benchmarks" / "search_corpus"

STALL_GENOME = ScenarioGenome(
    protocol="sss",
    n_nodes=3,
    n_keys=120,
    replication_degree=2,
    clients_per_node=3,
    seed=1,
    duration_us=30_000.0,
    drain_us=30_000.0,
    fault_specs=("crash node=1 at=3750 for=2250",),
).normalize()


class TestScoringDeterminism:
    def test_same_genome_same_signal_across_processes(self):
        """Signal vectors must not depend on process state or hash seed."""
        local = score_genome(STALL_GENOME)
        script = (
            "import json, sys\n"
            "from repro.search.genome import ScenarioGenome\n"
            "from repro.search.scoring import score_genome\n"
            "genome = ScenarioGenome.from_json(sys.stdin.read())\n"
            "print(json.dumps(score_genome(genome).as_dict(), sort_keys=True))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop(PLANTED_REGRESSION_ENV, None)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=STALL_GENOME.to_json(),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        remote = json.loads(completed.stdout)
        assert remote == local.as_dict()

    def test_repeated_scoring_is_identical(self):
        first = score_genome(STALL_GENOME)
        second = score_genome(STALL_GENOME)
        assert first.as_dict() == second.as_dict()


class TestKnownStall:
    def test_committed_corpus_genome_reproduces_the_stall(self):
        """Inverted in PR 19: the committed stall genomes no longer stall."""
        corpus_genomes = Corpus.load_genomes(COMMITTED_CORPUS)
        stall_seeds = [
            genome
            for genome in corpus_genomes
            if "crash node=1 at=3750 for=2250" in genome.fault_specs
        ]
        assert len(stall_seeds) >= 2, "SSS-stall genomes missing from committed corpus"
        for genome in stall_seeds:
            outcome = score_genome(genome)
            assert outcome.failures == (), outcome.failure_detail
            signal = outcome.signal
            assert signal["stalled_clients"] == 0
            assert signal["quiescence_leaked_writers"] == 0
            assert signal["quiescence_commit_queue"] == 0
            # The stall was a ~44 ms commit gap and a ~50 ms p99 against a
            # 10.5 ms threshold; a lost prepare now costs the rest of the
            # down window, re-sent on the participant's Rejoin.
            assert signal["p99_us"] < signal["stall_threshold_us"]
            assert signal["max_commit_gap_us"] < signal["stall_threshold_us"]

    def test_campaign_seeded_with_stall_genome_emits_replayable_bundle(self, tmp_path):
        """Inverted in PR 19: seeded with the stall genome, a campaign finds nothing."""
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        genome_path = corpus_dir / "stall.genome.json"
        genome_path.write_text(STALL_GENOME.to_json() + "\n")
        out_dir = tmp_path / "out"
        settings = SearchSettings(
            protocols=("sss",),
            budget_runs=0,  # seed phase only: the committed genome WAS the finding
            search_seed=1,
            corpus_dirs=(corpus_dir,),
            out_dir=out_dir,
            minimize_budget=25,
        )
        summary = run_search(settings)
        assert summary.seed_runs >= 1
        assert [finding.fingerprint for finding in summary.findings] == []
        assert not list(out_dir.glob("bundle-*.json"))
        assert (out_dir / "search-summary.json").is_file()
        # exit 2 = NOT REPRODUCED, what CI's search-smoke now requires of it
        assert replay_bundle(genome_path, out=open(os.devnull, "w")) == 2


class TestStallRule:
    def test_silence_after_an_open_loop_plan_ends_is_no_stall(self):
        """Commit gaps are measured while load is offered: up to the last
        traffic phase's ``until``, so the 16 ms of silence after this plan
        ends is no stall."""
        genome = ScenarioGenome(
            protocol="2pc",
            n_nodes=3,
            n_keys=120,
            replication_degree=2,
            clients_per_node=3,
            seed=1,
            duration_us=20_000.0,
            drain_us=30_000.0,
            traffic_specs=("poisson rate=3000 tps until=4000us",),
        ).normalize()
        outcome = score_genome(genome)
        assert outcome.failures == (), outcome.failure_detail
        assert outcome.signal["committed"] > 0
        assert outcome.signal["max_commit_gap_us"] < 4_000.0

    def test_a_plan_that_offers_nothing_is_no_stall(self):
        """Nothing committed is a stall only if something was offered: this
        plan draws no arrival."""
        genome = ScenarioGenome(
            protocol="2pc",
            n_nodes=2,
            n_keys=4,
            replication_degree=2,
            clients_per_node=1,
            seed=363418,
            duration_us=5_000.0,
            update_txn_keys=3,
            read_only_txn_keys=3,
            traffic_specs=("poisson rate=500 until=4661.2",),
        ).normalize()
        outcome = score_genome(genome)
        assert outcome.signal["offered"] == 0 and outcome.signal["committed"] == 0
        assert outcome.failures == (), outcome.failure_detail


def _walter_genome(crash_spec: str) -> ScenarioGenome:
    return ScenarioGenome(
        protocol="walter",
        n_nodes=3,
        n_keys=120,
        replication_degree=2,
        clients_per_node=3,
        seed=1,
        duration_us=30_000.0,
        drain_us=30_000.0,
        fault_specs=(crash_spec,),
    ).normalize()


class TestCrashForeverExemption:
    def test_crash_forever_scores_no_walter_consistency(self):
        genome = _walter_genome("crash node=1 at=3750")
        result = run_experiment(
            "walter",
            genome.cluster_config(),
            genome.workload_config(),
            duration_us=genome.duration_us,
            warmup_us=0.0,
            record_history=True,
            keep_cluster=True,
            drain_us=genome.drain_us,
        )
        checks = {check.name: check for check in result.cluster.check_contract()}
        assert not checks["walter-replica-convergence"].ok  # the dead replica lags
        assert checks["committed-reads"].ok
        outcome = score_genome(genome)
        assert "consistency" not in outcome.failures
        assert outcome.signal["consistency_violations"] == 0

    def test_crash_that_restarts_and_diverges_still_fails(self, monkeypatch):
        genome = _walter_genome("crash node=1 at=3750 for=2250")
        assert score_genome(genome).failures == ()
        # Lose what propagation sent into the down window for good.
        monkeypatch.setattr(ReliableChannel, "_resend", lambda self, peers, cutoff: None)
        outcome = score_genome(genome)
        assert "consistency" in outcome.failures
        assert all(
            detail.startswith("walter-replica-convergence") for detail in outcome.failure_detail
        )


class TestPlantedRegression:
    @pytest.fixture
    def planted(self, monkeypatch):
        monkeypatch.setenv(PLANTED_REGRESSION_ENV, "1")

    def test_searcher_rediscovers_reverted_crash_guard(self, planted, tmp_path, monkeypatch):
        """Fixed-seed campaign finds the historical Walter crash and minimizes it.

        The budget here is a few dozen runs (well under the 5-minute CI
        box); the campaign must produce the ``walter:exception:
        TransactionStateError`` fingerprint, write a bundle, the bundle must
        replay while the regression is planted — and stop reproducing the
        moment the guard is restored.
        """
        out_dir = tmp_path / "out"
        settings = SearchSettings(
            protocols=("walter",),
            # Whether a crash lands inside a local read hangs on the runs'
            # exact timing, which any change to fault-mode traffic moves;
            # this seed's campaign first reaches one on its 28th mutant.
            budget_runs=30,
            search_seed=5,
            out_dir=out_dir,
            minimize_budget=20,
        )
        summary = run_search(settings)
        target = "walter:exception:TransactionStateError"
        fingerprints = {finding.fingerprint for finding in summary.findings}
        assert target in fingerprints, (
            f"searcher missed the planted regression; found {sorted(fingerprints)}"
        )
        finding = next(f for f in summary.findings if f.fingerprint == target)
        # minimization produced a strictly-no-larger scenario that still fails
        assert finding.minimized.n_keys <= finding.genome.n_keys
        assert finding.minimized.duration_us <= finding.genome.duration_us
        assert finding.bundle_path is not None
        bundle = json.loads(finding.bundle_path.read_text())
        assert bundle["category"] == "exception:TransactionStateError"
        assert replay_bundle(finding.bundle_path, out=open(os.devnull, "w")) == 0
        # ... and with the fix back in place the bundle reports NOT REPRODUCED
        monkeypatch.delenv(PLANTED_REGRESSION_ENV)
        assert replay_bundle(finding.bundle_path, out=open(os.devnull, "w")) == 2


class TestCampaignDeterminism:
    def test_same_settings_same_findings_and_corpus(self, tmp_path):
        results = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            settings = SearchSettings(
                protocols=("rococo",),
                budget_runs=6,
                search_seed=11,
                out_dir=out_dir,
                minimize_budget=10,
                save_corpus=out_dir / "corpus",
            )
            summary = run_search(settings)
            corpus_files = sorted(
                path.name for path in (out_dir / "corpus").glob("*.genome.json")
            )
            corpus_bytes = [
                (out_dir / "corpus" / name).read_text() for name in corpus_files
            ]
            results.append(
                (
                    summary.runs,
                    [finding.fingerprint for finding in summary.findings],
                    corpus_files,
                    corpus_bytes,
                    (out_dir / "search-summary.json").read_text(),
                )
            )
        assert results[0] == results[1]
