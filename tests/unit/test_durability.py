"""Every protocol node declares its crash model, and ``crash()`` derives it.

Each node class names what a crash loses (``_WAITS`` / ``_VOLATILE``) and
what it keeps (``_DURABLE``); :meth:`ProtocolRuntime.crash` fails the
waiting events, empties the volatile containers and leaves the durable
state alone.  These tests fail when a node gains an attribute its class
does not classify — the next wrong entry shows up here, not as a cycle a
seed sweep happens to find — and when a crash touches durable state.
"""

from __future__ import annotations

import functools

import pytest

from repro.common.config import ClusterConfig, FaultPlan, WorkloadConfig
from repro.harness.runner import run_experiment
from repro.network.transport import Network
from repro.protocols.runtime import ProtocolRuntime
from repro.sim.engine import Simulation

PROTOCOLS = ("sss", "2pc", "walter", "rococo")
# A node crashes mid-run: the run stops with rounds, votes and waits in flight.
CRASHED = 1


@functools.cache
def _cluster(protocol):
    """A short fault-mode run cut off mid-flight (the plan's crash is past the
    end; it only arms fault mode)."""
    return run_experiment(
        protocol,
        ClusterConfig(
            n_nodes=3,
            n_keys=12,
            replication_degree=1 if protocol == "rococo" else 2,
            clients_per_node=4,
            seed=3,
            faults=FaultPlan.parse(["crash node=1 at=1s for=1ms"]),
        ),
        WorkloadConfig(read_only_fraction=0.5),
        duration_us=6_000,
        warmup_us=0,
        drain_us=0,
        keep_cluster=True,
    ).cluster


@functools.cache
def _runtime_names(protocol):
    """The attributes the runtime and network layers own, which they reset
    themselves (a bare runtime node on a fresh engine has exactly those)."""
    cluster = _cluster(protocol)
    sim = Simulation(seed=1)
    bare = ProtocolRuntime(sim, Network(sim), 0, cluster.placement, cluster.config)
    return frozenset(vars(bare))


def _size(value):
    return len(value) if hasattr(value, "__len__") else None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_attribute_is_classified_once(protocol):
    node_class = type(_cluster(protocol).nodes[0])
    durable, volatile = set(node_class._DURABLE), set(node_class._VOLATILE)
    assert set(node_class._WAITS) <= volatile
    assert not durable & volatile, f"declared both ways: {sorted(durable & volatile)}"
    assert not (durable | volatile) & _runtime_names(protocol)
    for node in _cluster(protocol).nodes:
        own = set(vars(node)) - _runtime_names(protocol)
        assert own - durable - volatile == set(), f"{node_class.__name__}: unclassified"
        assert durable | volatile <= own, f"{node_class.__name__}: declared, never set"


@functools.cache
def _crash(protocol):
    """Crash one node of the run; returns it with what it held just before."""
    node = _cluster(protocol).nodes[CRASHED]
    durable = {name: (getattr(node, name), _size(getattr(node, name))) for name in node._DURABLE}
    volatile = {name: _size(getattr(node, name)) for name in node._VOLATILE}
    waiting = [
        entry[0] if isinstance(entry, tuple) else entry
        for name in node._WAITS
        for entry in getattr(node, name).values()
    ]
    node.crash()
    return node, durable, volatile, waiting


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_empties_volatile_and_keeps_durable(protocol):
    node, durable, _volatile, waiting = _crash(protocol)
    for name in node._VOLATILE:
        size = _size(getattr(node, name))
        assert size in (None, 0), f"{name} kept {size} entries across the crash"
    for name, (value, size) in durable.items():
        assert getattr(node, name) is value, f"the crash replaced durable {name}"
        assert _size(value) == size, f"the crash changed durable {name}"
    assert all(event.triggered and not event.ok for event in waiting)


def test_the_crashes_had_state_to_drop_and_keep():
    # Not vacuous: the SSS node crashed with events waiting, volatile
    # entries and redo-logged votes, and every node held durable data.
    node, durable, volatile, waiting = _crash("sss")
    assert waiting and sum(size or 0 for size in volatile.values()) > len(waiting)
    assert durable["redo_log"][1] > 0
    for protocol in PROTOCOLS:
        _node, durable, _volatile, _waiting = _crash(protocol)
        assert any(size for _value, size in durable.values())
