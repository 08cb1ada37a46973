"""The trace plane end to end: passivity, metrics plumbing, the diagnosis.

Three contracts:

* **Passivity / zero overhead** — the recorder never schedules events and
  never draws from the RNG registry, so enabling tracing cannot perturb
  the simulation: fail-free histories with tracing *on* still match the
  committed golden fingerprints (``tests/golden/history_hashes.json``),
  which simultaneously proves the tracing-off path unchanged (the goldens
  predate the trace plane).
* **Plumbing** — ``run_experiment(trace=...)`` populates
  ``ExperimentMetrics.extra`` with the critical-path histograms, the
  metrics properties expose them, the export path writes schema-valid
  Chrome trace JSON, and ``replay --trace`` produces the same artifact
  for a bundle run.
* **The stall diagnosis, flipped** — PR 10's traced run of the committed
  SSS post-restart stall genomes named ``wait.ambiguous_guard`` (the crash
  guard timer waited out against a silent restarted participant) as the
  dominant critical-path span of every stalled transaction, and these
  tests were written to fail when that stopped being true.  It stopped:
  the fault-aware ``vote_round`` re-drives the round the instant the
  restarted participant's ``Rejoin`` arrives, so the same genomes now score
  clean and the slowest commits are one ``rpc.prepare`` round with
  ``args.rejoined`` — the artifact under ``docs/traces/`` (see its README)
  was re-captured to say so.  The test ids are the parent's.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.common.config import ClusterConfig, WorkloadConfig
from repro.harness.runner import run_experiment
from repro.search.genome import ScenarioGenome
from repro.search.replay import replay_bundle
from repro.search.scoring import score_genome
from repro.trace import TraceSpec, analyze_trace
from repro.trace.schema import validate_trace

from test_golden_histories import GOLDEN_POINTS, history_fingerprint, load_golden

REPO_ROOT = Path(__file__).resolve().parents[2]
STALL_GENOME_PATHS = sorted(
    (REPO_ROOT / "benchmarks" / "search_corpus").glob("sss-restart-stall-seed*.genome.json")
)
COMMITTED_TRACE = REPO_ROOT / "docs" / "traces" / "sss-restart-stall-seed1.trace.json"
REMOVE_CHAIN_TRACE = REPO_ROOT / "docs" / "traces" / "sss-remove-chain-seed62.trace.json"


class TestPassivity:
    @pytest.mark.parametrize(
        "protocol,seed,replication_degree",
        GOLDEN_POINTS[:4],
        ids=[f"{p}/seed={s}" for p, s, _ in GOLDEN_POINTS[:4]],
    )
    def test_tracing_on_preserves_golden_histories(self, protocol, seed, replication_degree):
        """Same run as the golden suite, but with full tracing enabled."""
        config = ClusterConfig(
            n_nodes=3,
            n_keys=24,
            replication_degree=replication_degree,
            clients_per_node=2,
            seed=seed,
        )
        result = run_experiment(
            protocol,
            config,
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=15_000,
            warmup_us=0,
            record_history=True,
            keep_cluster=True,
            trace=TraceSpec(),
        )
        golden = load_golden()
        key = f"{protocol}/seed={seed}/rf={replication_degree}"
        assert history_fingerprint(result.cluster.history) == golden["fingerprints"][key], (
            "enabling tracing changed the fail-free history — the recorder "
            "must be passive (no events scheduled, no RNG draws)"
        )
        assert result.trace is not None and result.metrics.traced_txns > 0


class TestPlumbing:
    def _traced_run(self, tmp_path=None, **trace_kwargs):
        spec = TraceSpec(**trace_kwargs)
        return run_experiment(
            "sss",
            ClusterConfig(n_nodes=3, n_keys=32, clients_per_node=2, seed=3),
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=6_000,
            warmup_us=0,
            trace=spec,
        )

    def test_metrics_carry_the_attribution_histograms(self):
        result = self._traced_run()
        metrics = result.metrics
        assert metrics.traced_txns == metrics.extra["trace.txns"] > 0
        assert metrics.trace_critical_path_us  # at least one bucket
        assert sum(metrics.trace_dominant.values()) == metrics.traced_txns
        assert all(key.startswith("trace.") is False for key in metrics.trace_dominant)

    def test_disabled_tracing_adds_nothing(self):
        result = run_experiment(
            "sss",
            ClusterConfig(n_nodes=3, n_keys=32, clients_per_node=2, seed=3),
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=6_000,
            warmup_us=0,
        )
        assert result.trace is None
        assert result.metrics.traced_txns == 0
        assert not any(key.startswith("trace.") for key in result.metrics.extra)

    def test_export_path_writes_schema_valid_json(self, tmp_path):
        out = tmp_path / "run.trace.json"
        result = run_experiment(
            "sss",
            ClusterConfig(n_nodes=3, n_keys=32, clients_per_node=2, seed=3),
            WorkloadConfig(read_only_fraction=0.5),
            duration_us=6_000,
            warmup_us=0,
            trace=str(out),
        )
        assert result.trace is not None and out.is_file()
        assert validate_trace(json.loads(out.read_text())) == []

    def test_replay_trace_flag_writes_the_artifact(self, tmp_path):
        genome = ScenarioGenome(
            protocol="sss",
            n_nodes=3,
            n_keys=32,
            clients_per_node=2,
            seed=3,
            duration_us=5_000.0,
            drain_us=5_000.0,
        ).normalize()
        genome_path = tmp_path / "small.genome.json"
        genome_path.write_text(genome.to_json() + "\n")
        out = tmp_path / "small.trace.json"
        code = replay_bundle(genome_path, out=open(os.devnull, "w"), trace_path=out)
        assert code in (0, 2)  # a clean run "does not reproduce" — still traced
        assert validate_trace(json.loads(out.read_text())) == []


class TestStallDiagnosis:
    def test_stall_genome_guard_timeout_dominates(self):
        """The committed diagnosis, inverted: no guard timeout dominates anything.

        Until PR 19 this asserted that every stalled transaction of the
        committed SSS-stall genome had ``wait.ambiguous_guard`` as its
        dominant critical-path span — the prepare fan-out swallowed by the
        node-1 crash, resolved only by idling out the coarse crash-guard
        deadline (the ROADMAP defect).  The round is re-driven now, so on
        the same two genomes: the run is clean, nothing is slower than the
        stall threshold, no transaction's critical path is dominated by a
        guard timeout, and the rounds that lost a prepare to the down
        window say on their ``rpc.prepare`` span that node 1's ``Rejoin``
        re-drove them — to node 1 only, with no silent wave.
        """
        assert len(STALL_GENOME_PATHS) == 2
        for path in STALL_GENOME_PATHS:
            genome = ScenarioGenome.from_dict(json.loads(path.read_text()))
            outcome = score_genome(genome, trace=TraceSpec())
            assert outcome.failures == (), f"{path.name}: {outcome.failure_detail}"
            signal = outcome.signal
            assert signal["stalled_clients"] == 0
            assert signal["quiescence_leaked_writers"] == 0
            assert signal["quiescence_commit_queue"] == 0
            threshold = signal["stall_threshold_us"]
            assert signal["p99_us"] < threshold

            assert outcome.trace is not None
            paths = analyze_trace(outcome.trace)
            assert paths
            for txn_path in paths:
                name, _micros = txn_path.dominant
                assert name != "wait.ambiguous_guard", f"{path.name}: {txn_path.txn}"
                if txn_path.outcome == "commit":
                    assert txn_path.duration < threshold, f"{path.name}: {txn_path.txn}"
            redriven = [
                event
                for events in outcome.trace.txns.values()
                for event in events
                if event.name == "rpc.prepare" and event.args
            ]
            assert redriven, f"{path.name}: no prepare round needed a re-send"
            for event in redriven:
                assert event.args == {"rejoined": ["1"]}  # no silent wave, none gave up

    def test_committed_artifact_matches_the_diagnosis(self):
        """The checked-in trace still says what the README claims it says."""
        document = json.loads(COMMITTED_TRACE.read_text())
        assert validate_trace(document) == []
        events = document["traceEvents"]
        assert not [event for event in events if event.get("name") == "wait.ambiguous_guard"]
        down = next(e for e in events if e.get("name") == "node.down" and e["ph"] == "b")
        up = next(e for e in events if e.get("name") == "node.down" and e["ph"] == "e")
        rejoins = [
            event
            for event in events
            if event.get("name") == "msg.send" and event["args"].get("msg") == "Rejoin"
        ]
        assert sorted(event["args"]["peer"] for event in rejoins) == [0, 2]
        assert all(event["ts"] == up["ts"] for event in rejoins)
        redriven = [
            event
            for event in events
            if event.get("name") == "rpc.prepare" and event["ph"] == "b" and event.get("args")
        ]
        assert redriven, "committed trace lost its re-driven rpc.prepare rounds"
        for span in redriven:
            assert span["args"] == {"rejoined": ["1"]}
            # Sent into (or just before) the down window, swallowed there.
            assert span["ts"] < up["ts"]
        roots = [
            event
            for event in events
            if event["ph"] == "X" and event.get("args", {}).get("dominant") == "rpc.prepare"
        ]
        assert len(roots) == len(redriven)
        hops_us = 200.0  # a handful of message hops at the default latency
        window_us = up["ts"] - down["ts"]
        for root in roots:
            assert root["args"]["outcome"] == "commit"
            # The re-send follows node 1's Rejoin, not a 5 ms fallback timer:
            # the round and the whole transaction end a few hops after t=6000us.
            assert root["args"]["dominant_us"] < window_us + hops_us
            assert root["ts"] + root["dur"] < up["ts"] + hops_us

    def test_remove_chain_artifact_matches_the_readme(self):
        """The seed-62 trace: a reader torn down mid-read is removed at the
        replica of its in-flight key, and the gate its lost reply carried is
        released by the writer's re-driven wait at the reader's restart.
        The trace is of the chain alone (docs/traces/README.md)."""
        document = json.loads(REMOVE_CHAIN_TRACE.read_text())
        assert validate_trace(document) == []
        events = document["traceEvents"]
        roots = {
            event["name"]: event["args"]
            for event in events
            if event["ph"] == "X" and "dominant" in event.get("args", {})
        }
        assert sorted(roots) == ["T0.65", "T1.70", "T2.52", "T3.53"]
        assert roots["T1.70"]["outcome"] == "torn-down"
        assert all(roots[txn]["outcome"] == "commit" for txn in ("T0.65", "T2.52", "T3.53"))
        down = next(e for e in events if e.get("name") == "node.down" and e["ph"] == "b")
        up = next(e for e in events if e.get("name") == "node.down" and e["ph"] == "e")

        def of_reader(name, msg):
            wanted = {"txn": "T1.70", "msg": msg}
            return [
                event
                for event in events
                if event.get("name") == name and wanted.items() <= event["args"].items()
            ]

        (lost_reply,) = of_reader("msg.dropped", "ReadReturn")
        assert down["ts"] < lost_reply["ts"] < up["ts"]
        (remove,) = [event for event in of_reader("msg.send", "Envelope") if event["ts"] >= up["ts"]]
        assert remove["ts"] == up["ts"] and remove["args"]["peer"] == 0  # key-1's replica
        gate = [event for event in events if event.get("name") == "wait.answer_gate"]
        begin, end = sorted(event["ts"] for event in gate)
        assert begin < down["ts"] + 5_000.0 < up["ts"] < end < up["ts"] + 200.0
        # One query re-validates T1.70: dropped while node 1 is down, re-sent
        # once at its Rejoin by its own re-drive, not again by the woken wave.
        (lost_query,) = of_reader("msg.dropped", "ExternalStatusQuery")
        (resent_query,) = of_reader("msg.send", "ExternalStatusQuery")
        assert down["ts"] < lost_query["ts"] < up["ts"] < resent_query["ts"] < end
