"""Unit tests for the streaming quantile sketch.

Pins the three properties the harness relies on (see
``repro/harness/sketch.py``): the relative-error guarantee across sample
distributions, exact (associative, commutative) mergeability, and
determinism — including across processes with different
``PYTHONHASHSEED`` values, since the sketch must not inherit any
hash-ordering dependence.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import pytest

from repro.harness.metrics import LatencySummary
from repro.harness.sketch import QuantileSketch

EPS = 0.01
QUANTILES = (0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0)


def exact_quantile(samples, fraction):
    """The ceil-rank rule used by LatencySummary.from_samples."""
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def distributions(seed=7, n=20_000):
    rng = random.Random(seed)
    yield "uniform", [rng.uniform(5.0, 5_000.0) for _ in range(n)]
    yield "exponential", [rng.expovariate(1.0 / 250.0) + 1.0 for _ in range(n)]
    yield "lognormal", [rng.lognormvariate(5.0, 1.5) for _ in range(n)]
    # Bimodal: fast local commits plus a slow remote tail, the shape real
    # latency profiles take under partial locality.
    yield (
        "bimodal",
        [rng.gauss(120.0, 10.0) for _ in range(n // 2)]
        + [rng.gauss(2_400.0, 150.0) for _ in range(n - n // 2)],
    )


class TestAccuracy:
    @pytest.mark.parametrize("name,samples", list(distributions()))
    def test_relative_error_bound_across_distributions(self, name, samples):
        sketch = QuantileSketch(relative_error=EPS)
        sketch.extend(samples)
        for q in QUANTILES:
            exact = exact_quantile(samples, q)
            approx = sketch.quantile(q)
            assert approx == pytest.approx(exact, rel=EPS * 1.01), (name, q)

    def test_min_max_mean_are_exact(self):
        samples = [3.5, 9.0, 27.1, 81.9]
        sketch = QuantileSketch()
        sketch.extend(samples)
        assert sketch.min == min(samples)
        assert sketch.max == max(samples)
        assert sketch.mean == pytest.approx(sum(samples) / len(samples))
        assert sketch.count == len(samples)

    def test_quantiles_clamped_to_observed_range(self):
        sketch = QuantileSketch()
        sketch.extend([100.0] * 50)
        assert sketch.quantile(0.0) == 100.0
        assert sketch.quantile(1.0) == 100.0

    def test_underflow_values_collapse_to_one_bucket(self):
        sketch = QuantileSketch()
        sketch.extend([0.0, 1e-6, 5e-4])
        sketch.add(10.0)
        assert sketch.count == 4
        assert len(sketch.buckets) == 2  # underflow + one real bucket
        assert sketch.quantile(0.5) == 0.0  # max(min, 0.0)
        assert sketch.quantile(1.0) == 10.0

    def test_empty_sketch_reads_as_zero(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0

    def test_bounded_bucket_count_over_huge_range(self):
        sketch = QuantileSketch()
        value = 0.1
        while value < 1e7:  # 0.1us .. 10s
            sketch.add(value)
            value *= 1.5
        assert len(sketch.buckets) < 1_000

    def test_matches_latency_summary_rank_rule(self):
        rng = random.Random(13)
        samples = [rng.uniform(10.0, 900.0) for _ in range(5_001)]
        summary = LatencySummary.from_samples(samples)
        sketch = QuantileSketch()
        sketch.extend(samples)
        assert sketch.quantile(0.50) == pytest.approx(summary.p50_us, rel=EPS * 1.01)
        assert sketch.quantile(0.99) == pytest.approx(summary.p99_us, rel=EPS * 1.01)


class TestMerge:
    def test_merge_is_associative_and_commutative(self):
        rng = random.Random(29)
        parts = [[rng.lognormvariate(4.0, 1.0) for _ in range(500)] for _ in range(3)]
        sketches = []
        for part in parts:
            sketch = QuantileSketch()
            sketch.extend(part)
            sketches.append(sketch)
        a, b, c = sketches

        def merged(*parts):
            sketch = QuantileSketch()
            for part in parts:
                sketch.merge(part)
            return sketch

        left = merged(merged(a, b), c)
        right = merged(a, merged(b, c))
        reversed_ = merged(c, b, a)
        assert left.to_dict() == right.to_dict() == reversed_.to_dict()

        # Merging equals sketching the concatenated sample, bit for bit.
        whole = QuantileSketch()
        whole.extend(parts[0] + parts[1] + parts[2])
        assert left.to_dict()["buckets"] == whole.to_dict()["buckets"]
        assert left.count == whole.count

    def test_merge_rejects_mismatched_relative_error(self):
        coarse = QuantileSketch(relative_error=0.05)
        fine = QuantileSketch(relative_error=0.01)
        with pytest.raises(ValueError):
            fine.merge(coarse)

    def test_merge_empty_is_identity(self):
        sketch = QuantileSketch()
        sketch.extend([1.0, 2.0, 3.0])
        before = sketch.to_dict()
        sketch.merge(QuantileSketch())
        assert sketch.to_dict() == before
        # An empty sketch that absorbs only empty sketches stays empty.
        empty = QuantileSketch()
        empty.merge(QuantileSketch())
        assert empty.count == 0
        assert empty.to_dict() == QuantileSketch().to_dict()


DIGEST_SCRIPT = """
import json, random
from repro.harness.sketch import QuantileSketch

rng = random.Random(99)
sketch = QuantileSketch()
sketch.extend(rng.lognormvariate(5.0, 1.2) for _ in range(4000))
print(json.dumps(sketch.to_dict(), sort_keys=True))
"""


class TestDeterminism:
    def test_insertion_order_independent(self):
        rng = random.Random(31)
        samples = [rng.uniform(1.0, 1_000.0) for _ in range(2_000)]
        forward, backward, shuffled = QuantileSketch(), QuantileSketch(), QuantileSketch()
        forward.extend(samples)
        backward.extend(reversed(samples))
        mixed = list(samples)
        rng.shuffle(mixed)
        shuffled.extend(mixed)

        def shape(sketch):
            # ``total`` is a float sum and may differ in the last ulp with
            # insertion order; the quantile-bearing state must not.
            data = sketch.to_dict()
            data.pop("total")
            return data

        assert shape(forward) == shape(backward) == shape(shuffled)
        assert backward.total == pytest.approx(forward.total)
        assert shuffled.total == pytest.approx(forward.total)
        for q in QUANTILES:
            assert forward.quantile(q) == backward.quantile(q) == shuffled.quantile(q)

    def test_identical_across_processes_and_hash_seeds(self):
        digests = []
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            result = subprocess.run(
                [sys.executable, "-c", DIGEST_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.append(result.stdout.strip())
        assert digests[0] == digests[1] == digests[2]
