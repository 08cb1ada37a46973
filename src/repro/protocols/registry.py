"""The single protocol registry.

Every protocol in the repository is built by its experiment name
(``"sss"``, ``"2pc"``, ``"walter"``, ``"rococo"``) through
:func:`build_cluster`; the harness, the benchmarks and the examples all go
through it, so there is exactly one name -> cluster-facade mapping in the
codebase.  The registry names the module defining each facade and imports
it on first lookup, so building one protocol imports none of the others.
"""

from __future__ import annotations

from collections.abc import Mapping
from importlib import import_module
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.history import HistoryRecorder

#: Protocol name -> (module, cluster facade class name).
_CLUSTERS = {
    "sss": ("repro.core.cluster", "SSSCluster"),
    "2pc": ("repro.baselines.twopc", "TwoPCCluster"),
    "walter": ("repro.baselines.walter", "WalterCluster"),
    "rococo": ("repro.baselines.rococo", "RococoCluster"),
}


class _Registry(Mapping):
    """Protocol name -> cluster facade class, its module imported on lookup."""

    def __getitem__(self, name: str) -> type:
        module, cluster_class = _CLUSTERS[name]
        return getattr(import_module(module), cluster_class)

    def __iter__(self):
        return iter(_CLUSTERS)

    def __len__(self) -> int:
        return len(_CLUSTERS)


REGISTRY = _Registry()
"""Protocol name -> cluster facade class (one registry for the whole repo)."""


def protocol_names() -> List[str]:
    """Sorted names of every registered protocol."""
    return sorted(REGISTRY)


def build_cluster(
    protocol: str,
    config: Optional[ClusterConfig] = None,
    keys: Optional[Sequence[object]] = None,
    record_history: Union[bool, str, HistoryRecorder] = False,
    **kwargs,
):
    """Instantiate the cluster facade for ``protocol``.

    History recording defaults to *off* for benchmark runs (it retains every
    committed transaction, which is useful for correctness checks but not for
    throughput measurements); tests and examples pass
    ``record_history=True``, and ``"windowed"`` or a recorder instance
    select the other history planes (see
    :class:`~repro.protocols.cluster.ProtocolCluster`).
    """
    if protocol not in _CLUSTERS:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; expected one of {protocol_names()}"
        )
    return REGISTRY[protocol](config=config, keys=keys, record_history=record_history, **kwargs)
