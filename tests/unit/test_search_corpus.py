"""Corpus retention rules and on-disk round-trip."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.harness.scenario import ScenarioOutcome
from repro.search.corpus import Corpus, dump_genome, load_corpus_dirs, load_known_findings
from repro.search.genome import ScenarioGenome

G1 = ScenarioGenome(protocol="sss", seed=1).normalize()
G2 = ScenarioGenome(protocol="sss", seed=2).normalize()
G3 = ScenarioGenome(protocol="walter", seed=1).normalize()


def outcome(atoms, **signal):
    return ScenarioOutcome(signal=dict(signal), coverage=tuple(sorted(atoms)))


class TestRetention:
    def test_first_genome_always_admitted(self):
        corpus = Corpus()
        assert corpus.consider(G1, outcome({"proto:sss"})) == "new-coverage"
        assert len(corpus) == 1

    def test_duplicate_genome_rejected(self):
        corpus = Corpus()
        corpus.consider(G1, outcome({"proto:sss"}))
        assert corpus.consider(G1, outcome({"proto:sss", "fault:crash"})) is None
        assert len(corpus) == 1

    def test_new_atom_admits(self):
        corpus = Corpus()
        corpus.consider(G1, outcome({"proto:sss"}))
        assert corpus.consider(G2, outcome({"proto:sss", "fault:crash"})) == "new-coverage"

    def test_same_coverage_same_score_rejected(self):
        corpus = Corpus()
        corpus.consider(G1, outcome({"proto:sss"}))
        assert corpus.consider(G2, outcome({"proto:sss"})) is None

    def test_raised_signal_admits(self):
        corpus = Corpus()
        corpus.consider(G1, outcome({"proto:sss"}))
        better = outcome({"proto:sss"}, stalled_clients=2.0)
        assert corpus.consider(G2, better) == "raised-signal"
        # and the high-water mark moved: an equal score no longer admits
        assert corpus.consider(G3, better) is None

    def test_covered_atoms_union(self):
        corpus = Corpus()
        corpus.consider(G1, outcome({"proto:sss", "fault:none"}))
        corpus.consider(G3, outcome({"proto:walter"}))
        assert corpus.covered_atoms() == ("fault:none", "proto:sss", "proto:walter")


class TestDisk:
    def test_save_load_round_trip(self, tmp_path):
        corpus = Corpus()
        corpus.consider(G1, outcome({"proto:sss"}))
        corpus.consider(G3, outcome({"proto:walter"}))
        written = corpus.save(tmp_path / "corpus")
        assert len(written) == 2
        loaded = Corpus.load_genomes(tmp_path / "corpus")
        assert sorted(g.key() for g in loaded) == sorted((G1.key(), G3.key()))

    def test_load_skips_unparseable_files(self, tmp_path, capsys):
        directory = tmp_path / "corpus"
        directory.mkdir()
        dump_genome(G1, directory / "good.genome.json")
        (directory / "bad.genome.json").write_text('{"protocol": "nope"}')
        (directory / "junk.genome.json").write_text("not json")
        loaded = Corpus.load_genomes(directory)
        assert [g.key() for g in loaded] == [G1.key()]
        assert "skipping" in capsys.readouterr().err

    def test_load_corpus_dirs_dedupes(self, tmp_path):
        for name in ("a", "b"):
            dump_genome(G1, tmp_path / name / "g.genome.json")
        dump_genome(G2, tmp_path / "b" / "h.genome.json")
        loaded = load_corpus_dirs([tmp_path / "a", tmp_path / "b"])
        assert sorted(g.key() for g in loaded) == sorted((G1.key(), G2.key()))

    def test_missing_directory_is_empty(self, tmp_path):
        assert Corpus.load_genomes(tmp_path / "absent") == []


class TestKnownFindings:
    def test_loads_fingerprint_list(self, tmp_path):
        path = tmp_path / "known.json"
        path.write_text(json.dumps(["sss:stall", "2pc:stall"]))
        assert load_known_findings(path) == ("sss:stall", "2pc:stall")

    def test_missing_file_is_empty(self, tmp_path):
        assert load_known_findings(tmp_path / "absent.json") == ()
        assert load_known_findings(None) == ()

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "known.json"
        path.write_text('{"sss:stall": true}')
        with pytest.raises(ConfigurationError):
            load_known_findings(path)

    def test_committed_known_findings_file_is_valid(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / (
            "benchmarks/search_corpus/known_findings.json"
        )
        fingerprints = load_known_findings(path)
        assert "2pc:stall" in fingerprints
        # The SSS post-restart stall was fixed, not triaged (PR 19): a
        # relapse must be a new finding.
        assert not [fingerprint for fingerprint in fingerprints if fingerprint.startswith("sss:")]


def test_committed_corpus_genomes_load():
    from pathlib import Path

    directory = Path(__file__).resolve().parents[2] / "benchmarks/search_corpus"
    genomes = Corpus.load_genomes(directory)
    assert len(genomes) >= 10
    protocols = {genome.protocol for genome in genomes}
    assert protocols == {"sss", "2pc", "rococo", "walter"}
    for genome in genomes:
        genome.validate()
