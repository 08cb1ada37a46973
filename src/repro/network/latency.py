"""Latency models for the simulated interconnect.

The paper's test-bed delivers a message in around 20 microseconds when the
network is not saturated.  The default model used by experiments is
:class:`UniformLatency` centred at that value; :class:`LogNormalLatency` is
provided for studying tail-latency sensitivity, and :class:`ConstantLatency`
for fully deterministic unit tests.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod


class LatencyModel(ABC):
    """Samples one-way message latencies in microseconds."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Return one latency sample (>= 0)."""

    @abstractmethod
    def mean(self) -> float:
        """Return the model's mean latency, used for sizing timeouts."""

    def min_latency(self) -> float:
        """Infimum of :meth:`sample` — the parallel engine's safe lookahead.

        A conservative node-sharded simulation may only advance a shard to
        ``t + min_latency`` before exchanging cross-shard messages, so a
        model whose infimum is 0 (e.g. :class:`LogNormalLatency`) cannot be
        used with ``engine="parallel"``.
        """
        return 0.0


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` microseconds."""

    def __init__(self, value: float = 20.0):
        if value < 0:
            raise ValueError("latency must be >= 0")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def min_latency(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantLatency({self.value})"


class UniformLatency(LatencyModel):
    """Latency uniformly distributed in ``[base - jitter, base + jitter]``."""

    def __init__(self, base: float = 20.0, jitter: float = 4.0):
        if base < 0 or jitter < 0 or jitter > base:
            raise ValueError("require 0 <= jitter <= base")
        self.base = base
        self.jitter = jitter
        # rng.uniform(lo, hi) is ``lo + (hi - lo) * rng.random()``; with the
        # bounds computed once a sample is one call instead of three.
        self._lo = base - jitter
        self._span = (base + jitter) - self._lo

    def sample(self, rng: random.Random) -> float:
        return self._lo + self._span * rng.random()

    def mean(self) -> float:
        return self.base

    def min_latency(self) -> float:
        return self.base - self.jitter

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformLatency(base={self.base}, jitter={self.jitter})"


class LogNormalLatency(LatencyModel):
    """Latency with a lognormal tail, parameterised by median and sigma."""

    def __init__(self, median: float = 20.0, sigma: float = 0.3):
        if median <= 0 or sigma < 0:
            raise ValueError("require median > 0 and sigma >= 0")
        self.median = median
        self.sigma = sigma
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self._mu, self.sigma)

    def mean(self) -> float:
        return math.exp(self._mu + self.sigma**2 / 2.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogNormalLatency(median={self.median}, sigma={self.sigma})"
