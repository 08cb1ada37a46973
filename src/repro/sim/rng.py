"""Deterministic named random streams.

Every source of randomness in a simulated cluster (network jitter, workload
key selection per client, latency sampling per channel) pulls from its own
named stream derived from the root seed.  Independent streams guarantee that
adding a new consumer of randomness does not perturb the values observed by
existing consumers, which keeps experiments comparable across code changes
and makes failures reproducible from ``(seed, stream name)``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 1):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it if needed.

        The stream's seed is derived by hashing ``(root_seed, name)`` so that
        streams are independent of the order in which they are first
        requested.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.root_seed}:{name}".encode()).digest()
            seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(seed)
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RngRegistry seed={self.root_seed} streams={len(self._streams)}>"
