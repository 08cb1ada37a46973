"""The public SSS cluster facade.

:class:`SSSCluster` is the SSS instantiation of the shared
:class:`~repro.protocols.cluster.ProtocolCluster` facade: the simulation
engine, the network, one :class:`~repro.core.node.SSSNode` per node, the key
placement, an optional history recorder and the fault plane, exposing
``session`` / ``spawn`` / ``run`` / ``check_consistency``.  The baselines
instantiate the very same facade, which lets the harness treat every
protocol uniformly through :data:`~repro.protocols.registry.REGISTRY`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.common.config import ClusterConfig
from repro.core.node import SSSNode
from repro.protocols.cluster import ProtocolCluster

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.history import HistoryRecorder


class SSSCluster(ProtocolCluster):
    """A simulated SSS key-value store deployment."""

    node_class = SSSNode
    protocol_name = "sss"

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        keys: Optional[Sequence[object]] = None,
        record_history: Union[bool, str, HistoryRecorder] = True,
        strict_visibility: bool = False,
        initial_value=0,
        **kwargs,
    ):
        super().__init__(
            config=config,
            keys=keys,
            record_history=record_history,
            initial_value=initial_value,
            strict_visibility=strict_visibility,
            **kwargs,
        )

    def node(self, node_id: int) -> SSSNode:
        return self.nodes[node_id]

