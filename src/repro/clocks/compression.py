"""Wire compression of vector clocks.

Section III-A of the paper notes that shipping full vector clocks on every
message "might appear as a barrier to achieve high performance.  To alleviate
these costs we adopt metadata compression."  The codec below implements the
standard trick for that setting: the two peers of a channel remember the last
clock exchanged and only the entries that changed are shipped as
``(index, value)`` deltas, falling back to the dense representation when a
majority of entries changed.

The transport does not run it: wire-size accounting charges every clock
densely (``8 * width``, see :meth:`repro.network.message.Message.size_estimate`),
because a per-channel codec holds a reference clock per destination and per
clock field — O(n²) live clocks — and saved only 7–13 % of clock bytes from
16 servers up.  Compression is measured offline instead, by the ``ablation``
row of ``benchmarks/figures.py``, which replays each node's NLog commit
clocks through :meth:`VCCodec.encode` and reports :meth:`compression_ratio`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.clocks.vector_clock import VectorClock

DenseEncoding = Tuple[str, Tuple[int, ...]]
DeltaEncoding = Tuple[str, Tuple[Tuple[int, int], ...]]
Encoding = Union[DenseEncoding, DeltaEncoding]


class VCCodec:
    """Delta codec for fixed-width vector clocks exchanged with a set of peers.

    The peer key is typically the remote node identifier.  Encoding and
    decoding must observe the same sequence of clocks per peer (which holds
    for FIFO channels).
    """

    DENSE = "dense"
    DELTA = "delta"

    __slots__ = ("size", "_last_sent", "_last_received")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self._last_sent: Dict[object, VectorClock] = {}
        self._last_received: Dict[object, VectorClock] = {}

    def encode(self, peer: object, clock: VectorClock) -> Encoding:
        """Encode ``clock`` for transmission to ``peer``."""
        if clock.size != self.size:
            raise ValueError(f"clock size {clock.size} != codec size {self.size}")
        reference = self._last_sent.get(peer)
        self._last_sent[peer] = clock
        if reference is None:
            return (self.DENSE, clock.entries)
        reference_entries = reference.entries
        clock_entries = clock.entries
        # A delta entry costs roughly twice a dense entry (index + value), so
        # the delta form only wins below half the width; bail out of the diff
        # scan as soon as the delta form can no longer win.
        budget = (clock.size - 1) // 2
        deltas: List[Tuple[int, int]] = []
        for index, previous in enumerate(reference_entries):
            value = clock_entries[index]
            if value != previous:
                if len(deltas) >= budget:
                    return (self.DENSE, clock_entries)
                deltas.append((index, value))
        return (self.DELTA, tuple(deltas))

    def decode(self, peer: object, encoding: Encoding) -> VectorClock:
        """Decode an encoding received from ``peer``."""
        kind, payload = encoding
        if kind == self.DENSE:
            clock = VectorClock(payload)
        elif kind == self.DELTA:
            reference = self._last_received.get(peer)
            if reference is None:
                raise ValueError(f"delta encoding from unknown peer {peer!r} (no reference clock)")
            if not payload:
                clock = reference
            else:
                entries = list(reference.entries)
                for index, value in payload:
                    entries[index] = int(value)
                clock = VectorClock(entries)
        else:
            raise ValueError(f"unknown encoding kind {kind!r}")
        if clock.size != self.size:
            raise ValueError("decoded clock has wrong size")
        self._last_received[peer] = clock
        return clock

    @staticmethod
    def encoded_size_bytes(encoding: Encoding) -> int:
        """Approximate wire size of an encoding (8 bytes per integer)."""
        kind, payload = encoding
        if kind == VCCodec.DENSE:
            return 1 + 8 * len(payload)
        return 1 + 16 * len(payload)

    def compression_ratio(self, history: List[Encoding]) -> Optional[float]:
        """Ratio of encoded size to dense size over ``history`` (for reports)."""
        if not history:
            return None
        dense = len(history) * (1 + 8 * self.size)
        encoded = sum(self.encoded_size_bytes(encoding) for encoding in history)
        return encoded / dense
