"""Vector clocks and metadata compression.

Vector clocks are the causality-tracking backbone of SSS (and of the Walter
baseline).  :class:`~repro.clocks.vector_clock.VectorClock` implements the
entry-wise algebra used throughout the paper's pseudo-code (entry-wise max,
``<=`` / ``<`` comparison, per-entry increment), and
:mod:`repro.clocks.compression` implements the delta-based wire compression
the paper mentions as the mitigation for metadata overhead.
"""
