"""Roll a ``cProfile`` run up by ``src/repro/`` package.

Self time of a function under ``repro/<package>/`` goes to that package.
Builtins, standard-library, third-party and generated code have no package
of their own: their self time goes to the layers that called them, in
proportion to the time ``cProfile`` measured on each caller edge, followed
upwards through other such frames.  Call counts use the same walk weighted
by calls, so that ``calls_in`` is made of counts only and repeats exactly.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from benchmarks.ledger.spec import LAYERS, SRC_DIR

_NAMED = frozenset(LAYERS) - {"other"}
_PROGRAM = os.path.join(SRC_DIR, "repro") + os.sep

# Index of the call count and of the self time in a pstats caller edge
# ``(nc, cc, tt, ct)``.
_CALLS, _TIME = 0, 2
# Sweeps over the foreign frames; each one resolves one more level of
# foreign-calls-foreign nesting (networkx's dispatch wrappers go ~8 deep).
# What still circulates in a recursion after them is spread over the layers
# already found, in proportion.
_SWEEPS = 24


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` for code outside ``repro``."""
    if not filename.startswith(_PROGRAM):
        return None
    package = filename[len(_PROGRAM) :].split(os.sep, 1)[0]
    return package if package in _NAMED else "other"


def layer_shares(stats: Dict[tuple, tuple], weight: int) -> Dict[tuple, Dict[str, float]]:
    """Layer shares of every profiled function, foreign frames by caller edge weight."""
    shares: Dict[tuple, Dict[str, float]] = {}
    foreign = []
    for function in stats:
        layer = layer_of(function[0])
        if layer is None:
            foreign.append(function)
            shares[function] = {}
        else:
            shares[function] = {layer: 1.0}
    for _ in range(_SWEEPS):
        for function in foreign:
            callers = stats[function][4]
            total = sum(edge[weight] for edge in callers.values())
            if total <= 0:
                continue
            mixed: Dict[str, float] = {}
            for caller, edge in callers.items():
                for layer, share in shares.get(caller, {}).items():
                    mixed[layer] = mixed.get(layer, 0.0) + share * edge[weight] / total
            shares[function] = mixed
    for function in foreign:
        resolved = sum(shares[function].values())
        if resolved <= 0:
            # No caller at all: the profiler's own frames and the like.
            shares[function] = {"other": 1.0}
        else:
            shares[function] = {
                layer: share / resolved for layer, share in shares[function].items()
            }
    return shares


def rollup(stats: Dict[tuple, tuple]) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """``(self seconds by layer, calls entering each layer, profiled seconds)``.

    ``stats`` is ``pstats.Stats(profile).stats``: function ->
    ``(cc, nc, tt, ct, callers)`` with ``callers[caller] = (nc, cc, tt, ct)``.
    """
    by_time = layer_shares(stats, _TIME)
    by_calls = layer_shares(stats, _CALLS)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls_in = {layer: 0.0 for layer in LAYERS}
    total_s = 0.0
    for function, (_, _, own_s, _, callers) in stats.items():
        total_s += own_s
        for layer, share in by_time[function].items():
            self_s[layer] += own_s * share
        layer = layer_of(function[0])
        if layer is None:
            continue
        for caller, edge in callers.items():
            for caller_layer, share in by_calls.get(caller, {}).items():
                if caller_layer != layer:
                    calls_in[layer] += edge[_CALLS] * share
    return self_s, calls_in, total_s
