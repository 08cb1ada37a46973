"""Reproduction of *SSS: Scalable Key-Value Store with External Consistent
and Abort-free Read-only Transactions* (ICDCS 2019).

The top-level package names the entry points most users need, imported on
first use:

* :class:`~repro.core.cluster.SSSCluster` — build a simulated SSS deployment
  and run transactions against it.
* :class:`~repro.common.config.ClusterConfig` — its configuration.

Packages import nothing when they are imported: a run loads the modules of
the planes it uses and no others.  See ``README.md`` for a quickstart.
"""

from importlib import import_module

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict):
    """A module ``__getattr__`` (PEP 562) resolving ``exports`` on first use.

    ``exports`` maps each package-level name to the submodule defining it;
    a package assigns the result to its own ``__getattr__``.
    """

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(module), name)

    return __getattr__


_EXPORTS = {
    "ClusterConfig": "repro.common.config",
    "SSSCluster": "repro.core.cluster",
}
__all__ = ["__version__", *_EXPORTS]
__getattr__ = lazy_exports(__name__, _EXPORTS)
