"""The layered performance ledger (``python -m benchmarks.ledger``).

Four SSS workloads, end-to-end metrics in host time and in simulated time,
and the attribution of both to the ``src/repro/`` packages.  Every number
is taken from outside the program, through its public entry points; see
``README.md`` in this directory for the definitions.
"""
