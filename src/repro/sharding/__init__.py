"""Sharded federations: routing, fan-out, exact merge, tenant budgets.

The gateway-facing entry point is :class:`ShardedFederation`, which
duck-types the single-federation query surface over a set of shard
backends (:class:`LocalShard` in-process, :class:`ProcessShard` forked
worker processes).  See docs/SHARDING.md for the routing and merge-exactness
story.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "errors": (
        "ShardError",
        "ShardUnavailable",
        "TenantRateLimited",
    ),
    "federation": ("ShardedFederation",),
    "router": ("ALL_SHARDS", "ShardRouter", "TenantPolicy", "shard_index"),
    "shards": ("LocalShard", "ProcessShard"),
    "topology": (
        "ShardTopology",
        "build_topology",
        "exact_config",
        "local_shards",
        "process_shards",
        "sharded_federation",
        "single_federation",
        "topology_workload",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
