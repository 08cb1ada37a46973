"""Shared utilities: errors, configuration, identifiers and seeding.

The :mod:`repro.common` package contains small building blocks used by every
other subsystem of the reproduction: the exception hierarchy, configuration
dataclasses describing a cluster and a workload, and identifier helpers.
"""
