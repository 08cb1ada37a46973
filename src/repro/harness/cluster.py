"""Harness-side view of the protocol registry.

The registry itself lives in :mod:`repro.protocols.registry` — one
name -> cluster-factory map shared by the harness, the benchmarks and the
examples.  This module names it under the harness's historical names.
"""

from __future__ import annotations

from repro.protocols.registry import REGISTRY, build_cluster

PROTOCOLS = REGISTRY
"""Protocol name -> cluster facade class (``repro.protocols.registry.REGISTRY``)."""

__all__ = ["PROTOCOLS", "build_cluster"]
