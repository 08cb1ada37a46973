"""Key-popularity distributions and locality-biased selection.

Three selectors are provided:

* :class:`UniformKeySelector` — every key equally likely (the paper's default
  "transactions select accessed objects randomly with uniform distribution").
* :class:`ZipfianKeySelector` — skewed popularity with parameter ``theta``
  (standard YCSB zipfian; not used by the paper's figures but useful for
  contention studies and ablations).
* :class:`LocalityKeySelector` — with probability ``locality_fraction`` the
  key is drawn from the keys replicated on the client's local node, otherwise
  from the full key space (the Figure 7 configuration: 50 % locality).

Every client owns a selector, so selectors hold the key space as a tuple:
``tuple()`` of the cluster's key tuple is that tuple itself, so all clients
share one sequence instead of copying it per client.
"""

from __future__ import annotations

import bisect
import math
import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from repro.common.config import WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.replication.placement import KeyPlacement


class KeySelector(ABC):
    """Samples distinct keys for one transaction."""

    @abstractmethod
    def select(self, rng: random.Random, count: int) -> List[object]:
        """Return ``count`` distinct keys."""

    def _distinct(self, rng: random.Random, count: int, draw) -> List[object]:
        """Draw distinct keys using ``draw()`` with a resampling loop."""
        chosen: List[object] = []
        seen = set()
        attempts = 0
        while len(chosen) < count and attempts < count * 50:
            key = draw()
            attempts += 1
            if key not in seen:
                seen.add(key)
                chosen.append(key)
        if len(chosen) < count:
            raise ConfigurationError(f"could not draw {count} distinct keys (key space too small?)")
        return chosen


class UniformKeySelector(KeySelector):
    """Uniformly random keys over the whole key space."""

    def __init__(self, keys: Sequence[object]):
        if not keys:
            raise ConfigurationError("key space must not be empty")
        self.keys = tuple(keys)

    def select(self, rng: random.Random, count: int) -> List[object]:
        if count > len(self.keys):
            raise ConfigurationError(f"cannot select {count} distinct keys from {len(self.keys)}")
        return self._distinct(rng, count, lambda: rng.choice(self.keys))


class ZipfianKeySelector(KeySelector):
    """Zipfian-popularity keys (YCSB-style, rank 1 most popular)."""

    def __init__(self, keys: Sequence[object], theta: float = 0.7):
        if not keys:
            raise ConfigurationError("key space must not be empty")
        if not 0.0 <= theta < 1.0:
            raise ConfigurationError("zipfian theta must be in [0, 1)")
        self.keys = tuple(keys)
        self.theta = theta
        # Cumulative distribution over ranks.
        weights = [1.0 / math.pow(rank, theta) for rank in range(1, len(keys) + 1)]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        self._cumulative = cumulative

    def select(self, rng: random.Random, count: int) -> List[object]:
        if count > len(self.keys):
            raise ConfigurationError(f"cannot select {count} distinct keys from {len(self.keys)}")

        def draw():
            rank = bisect.bisect_left(self._cumulative, rng.random())
            return self.keys[min(rank, len(self.keys) - 1)]

        return self._distinct(rng, count, draw)


class LocalityKeySelector(KeySelector):
    """Mix of node-local keys and uniform global keys (Figure 7)."""

    def __init__(
        self,
        keys: Sequence[object],
        local_keys: Sequence[object],
        locality_fraction: float,
    ):
        if not keys:
            raise ConfigurationError("key space must not be empty")
        if not 0.0 <= locality_fraction <= 1.0:
            raise ConfigurationError("locality_fraction must be in [0, 1]")
        self.keys = tuple(keys)
        self.local_keys = tuple(local_keys) if local_keys else self.keys
        self.locality_fraction = locality_fraction

    def select(self, rng: random.Random, count: int) -> List[object]:
        def draw():
            if rng.random() < self.locality_fraction:
                return rng.choice(self.local_keys)
            return rng.choice(self.keys)

        return self._distinct(rng, count, draw)


def make_key_selector(
    workload: WorkloadConfig,
    keys: Sequence[object],
    placement: Optional[KeyPlacement] = None,
    node_id: Optional[int] = None,
) -> KeySelector:
    """Build the selector matching ``workload`` for a client on ``node_id``."""
    if workload.locality_fraction > 0.0:
        if placement is None or node_id is None:
            raise ConfigurationError("locality-biased workloads need a placement and a node id")
        return LocalityKeySelector(
            keys=keys,
            local_keys=placement.local_keys(node_id),
            locality_fraction=workload.locality_fraction,
        )
    if workload.key_distribution == "zipfian":
        return ZipfianKeySelector(keys, theta=workload.zipf_theta)
    return UniformKeySelector(keys)
