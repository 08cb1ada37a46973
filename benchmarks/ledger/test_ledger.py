"""Self-test of the ledger, on one ``--smoke`` run (about half a minute).

Run explicitly: ``PYTHONPATH=src python -m pytest -q benchmarks/ledger``;
the tier-1 ``testpaths`` do not include it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.ledger import compare
from benchmarks.ledger.measure import spans_nest
from benchmarks.ledger.spec import END_TO_END, LAYERS, PER_LAYER, REPO_ROOT, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_ledger(*args: str, cwd: str = REPO_ROOT) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    done = run_ledger("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out) as handle:
        return {"document": json.load(handle), "stdout": done.stdout, "dir": out.parent}


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_document_matches_its_schema(smoke):
    document = smoke["document"]
    assert document["schema"] == "benchmarks.ledger/1"
    assert document["comparable"] is False and document["correct"] is True
    assert isinstance(document["seed"], int) and document["repeats"] == 1
    assert set(document["provenance"]) >= {"python", "platform", "nproc", "network", "service"}
    assert set(document["workloads"]) == set(WORKLOADS)
    for record in document["workloads"].values():
        end_to_end = record["end_to_end"]
        assert set(end_to_end["end_to_end"]) == {metric.name for metric in END_TO_END}
        for entry in end_to_end["end_to_end"].values():
            assert set(entry) == {"value", "q1", "q3", "samples"}
            assert all(isinstance(entry[key], float) for key in ("value", "q1", "q3"))
        assert len(end_to_end["digests"]) == len(end_to_end["config_seeds"]) == 1
        assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in end_to_end["digests"])
        assert end_to_end["attempted"] >= end_to_end["committed"] >= 1
        assert all(isinstance(ok, bool) for ok in end_to_end["checks"].values())
        assert all(isinstance(value, float) for value in record["layers"]["metrics"].values())
    assert all(isinstance(value, float) for value in document["satellites"]["metrics"].values())


def test_every_registered_metric_is_emitted_and_printed(smoke):
    document = smoke["document"]
    registered = {metric.name for metric in PER_LAYER}
    for record in document["workloads"].values():
        emitted = set(record["layers"]["metrics"]) | set(document["satellites"]["metrics"])
        assert emitted == registered
    for metric in END_TO_END + PER_LAYER:
        assert re.search(
            rf"^\s+{re.escape(metric.name)}\s.*{re.escape(metric.unit)}",
            smoke["stdout"],
            re.MULTILINE,
        ), metric.name


def test_benchmark_json_agrees_with_the_registry(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark_json["paths"] == ["benchmarks/ledger"]
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values()
    ]
    assert benchmark_json["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert benchmark_json["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_benchmark_json_is_inside_the_contract(benchmark_json):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_json[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark_json["workloads"])
    for entry in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    assert all(0 < entry["bound"] <= 0.25 for entry in benchmark_json["end_to_end"])
    setup = [e for e in benchmark_json["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert setup[0]["bound"] == max(e["bound"] for e in benchmark_json["end_to_end"])
    assert isinstance(benchmark_json["run_seconds"], int)
    assert 1 <= benchmark_json["run_seconds"] <= 60
    runs = 4 + 22 * len(benchmark_json["workloads"])
    assert runs * 2.2 * benchmark_json["run_seconds"] < 3420
    assert len(json.dumps(benchmark_json)) < 64 * 1024


def test_layer_self_times_sum_to_the_profiled_total(smoke):
    for record in smoke["document"]["workloads"].values():
        profile = record["layers"]["profile"]
        assert set(profile["share"]) == set(LAYERS)
        assert abs(profile["layer_sum_s"] - profile["total_s"]) <= 0.01 * profile["total_s"]
        assert profile["named_share"] >= 0.99


def test_spans_nest_and_every_parent_resolves(smoke):
    for workload in WORKLOADS:
        with open(smoke["dir"] / f"ledger-{workload}.spans.json") as handle:
            spans = json.load(handle)["spans"]
        assert {span["run"] for span in spans} == {
            f"{workload}/sss/{kind}" for kind in ("plain", "profiled", "traced")
        }
        assert {"ledger.child", "harness.build_cluster", "sim.event_loop"} <= {
            span["name"] for span in spans
        }
        assert spans_nest(spans)
        orphan = dict(spans[1], parent=999)
        assert not spans_nest(spans + [orphan])


def test_compare_of_a_file_with_itself_is_all_within(smoke):
    lines, worse = compare.compare(smoke["document"], smoke["document"])
    rows = [line for line in lines if line.startswith("  ")]
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert not worse and all(row.endswith(" within") for row in rows)
    assert all("digests identical" in line for line in lines if line.endswith("identical"))


def test_compare_flags_a_regression_and_a_noisy_row(smoke):
    slower = json.loads(json.dumps(smoke["document"]))
    entry = slower["workloads"]["mixed-6n"]["end_to_end"]["end_to_end"]["host_txn_per_s"]
    for key in ("value", "q1", "q3"):
        entry[key] *= 0.5
    lines, worse = compare.compare(smoke["document"], slower)
    assert worse == ["mixed-6n:host_txn_per_s"]
    noisy = json.loads(json.dumps(smoke["document"]))
    entry = noisy["workloads"]["mixed-6n"]["end_to_end"]["end_to_end"]["setup_s"]
    entry["q3"] = entry["value"] * 2
    lines, worse = compare.compare(smoke["document"], noisy)
    assert not worse and sum(line.endswith(" unresolved") for line in lines) == 1


def test_single_workload_run_ends_with_the_contract_line():
    done = run_ledger("--workload", "crash-3n", "--seed", "5", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] >= 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric.name: metric.unit for metric in END_TO_END
    }


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(REPO_ROOT, "benchmarks", "ledger"),
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_ledger(
        "--workload", "mixed-6n", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path)
    )
    assert done.returncode not in (0, None)
    assert "correct" not in done.stdout
