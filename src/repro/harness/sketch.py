"""Deterministic, mergeable quantile sketches for streaming metrics.

The streaming harness cannot keep one float per transaction — a
million-transaction run would spend more memory on latency lists than on
the simulation itself.  :class:`QuantileSketch` replaces the raw sample
list with a t-digest-style summary: a bounded set of buckets from which
any quantile can be read back with a *guaranteed relative error*.

Unlike an actual t-digest (whose centroids depend on insertion order and
compression timing), the buckets here are **fixed geometric intervals**
(the DDSketch construction): value ``v`` lands in bucket
``ceil(log(v) / log(gamma))`` with ``gamma = (1 + eps) / (1 - eps)``, so
every value in a bucket is within relative error ``eps`` of the bucket's
midpoint.  That choice buys three properties the harness pins with tests:

* **Determinism** — the sketch of a sample is a pure function of its
  values (no randomness, no insertion-order dependence, no dict-ordering
  dependence: bucket keys are ints and are sorted before any read).
* **Exact mergeability** — merging is per-bucket integer addition, so
  merging per-node sketches is associative and commutative and yields
  *bit-identical* counts (and therefore bit-identical quantiles) no
  matter how the merge tree is shaped.
* **Bounded memory** — latencies spanning ``[0.1us, 10s]`` fit in at most
  ``log(1e8) / log(gamma)`` buckets (~920 at the default 1% error), a few
  tens of kilobytes regardless of how many samples were added.

Quantiles use the same rank rule as
:meth:`repro.harness.metrics.LatencySummary.from_samples`
(``ceil(q * n)``-th smallest), so exact and sketched summaries are
comparable one-to-one; the pinned tolerance lives in
``tests/unit/test_sketch.py``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List


class QuantileSketch:
    """Log-bucketed quantile sketch with relative-error guarantee.

    Parameters
    ----------
    relative_error:
        Maximum relative error of :meth:`quantile` answers (default 1%).
        All sketches that are merged together must share this value.
    """

    #: Values at or below this (microseconds) collapse into one underflow
    #: bucket; smaller latencies are below the simulation's resolution.
    MIN_VALUE = 1e-3

    __slots__ = ("relative_error", "_log_gamma", "count", "total", "min", "max", "buckets")

    def __init__(self, relative_error: float = 0.01):
        if not 0.0 < relative_error < 1.0:
            raise ValueError(f"relative_error must be in (0, 1), got {relative_error}")
        self.relative_error = relative_error
        self._log_gamma = math.log((1.0 + relative_error) / (1.0 - relative_error))
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if count <= 0:
            return
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.MIN_VALUE:
            index = -(2**30)  # dedicated underflow bucket
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + count

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (exact: per-bucket addition)."""
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge sketches with different relative_error "
                f"({self.relative_error} vs {other.relative_error})"
            )
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Value at quantile ``fraction``, within ``relative_error``.

        Uses the ``ceil(fraction * n)``-th-smallest rank rule of
        :meth:`~repro.harness.metrics.LatencySummary.from_samples`.
        """
        if self.count == 0:
            return 0.0
        rank = min(self.count, max(1, math.ceil(fraction * self.count)))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                if index == -(2**30):
                    return max(self.min, 0.0)
                # Bucket i holds (gamma^(i-1), gamma^i]; the midpoint
                # 2 * gamma^i / (gamma + 1) is within relative_error of
                # every value in the bucket.
                gamma = math.exp(self._log_gamma)
                estimate = 2.0 * math.exp(index * self._log_gamma) / (gamma + 1.0)
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts add up)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (bucket keys sorted for stable output)."""
        return {
            "relative_error": self.relative_error,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": [[index, self.buckets[index]] for index in sorted(self.buckets)],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QuantileSketch n={self.count} buckets={len(self.buckets)} "
            f"eps={self.relative_error}>"
        )


__all__: List[str] = ["QuantileSketch"]
