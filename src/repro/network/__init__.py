"""Simulated message-passing network substrate.

The paper's system model is a set of nodes communicating through reliable
asynchronous channels, with no bound on message delay and no shared clock.
Its implementation additionally uses "multiple network queues, each for a
different message type … so we can assign priorities to different messages".

This package reproduces that substrate on top of :mod:`repro.sim`:

* :class:`~repro.network.message.Message` — base class for protocol messages
  carrying a priority class.
* :mod:`repro.network.latency` — pluggable latency models (constant, uniform
  jitter, lognormal tail).
* :class:`~repro.network.transport.Network` — the cluster interconnect with
  per-node outgoing-link congestion and crash handling.
* :class:`~repro.network.node.NetworkedNode` — base class for protocol nodes:
  prioritized inbound queues, a CPU dispatcher charging per-message service
  time, handler registration, and RPC-style request/response helpers.
"""
