"""Vector clocks and metadata compression.

Vector clocks are the causality-tracking backbone of SSS (and of the Walter
baseline).  :class:`~repro.clocks.vector_clock.VectorClock` implements the
entry-wise algebra used throughout the paper's pseudo-code (entry-wise max,
``<=`` / ``<`` comparison, per-entry increment), and
:mod:`repro.clocks.compression` implements the delta-based wire compression
the paper mentions as the mitigation for metadata overhead.  The transport
charges clocks densely and never runs the codec; the ``ablation`` row of
``benchmarks/figures.py`` is where Section III-A's compression is measured,
by replaying each node's NLog commit clocks through it.
"""
