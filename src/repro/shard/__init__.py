"""Sharded multi-coordinator execution (DESIGN.md §14).

Partitions the coordinator itself: the cluster's Morton-contiguous
node blocks are split into N *shard domains*, each run by its own
:class:`~repro.shard.coordinator.ShardSimulator` (the full two-level
JAWS scheduling loop over its slice of the cluster), composed by the
deterministic virtual-time control plane in
:mod:`repro.shard.control` — lease-based ownership with epoch fencing,
seeded shard-crash failover, and cluster-consistent barrier recovery
(:mod:`repro.shard.recovery`).

:func:`repro.cluster.run_cluster` is the entry point: a
:class:`~repro.config.ShardConfig` with ``n_shards > 1`` routes it
here, and ``n_shards=1`` runs the single-coordinator cluster.
"""

from repro.shard.control import ClusterControlPlane, shard_fault_seed
from repro.shard.coordinator import ShardSimulator
from repro.shard.messages import ShardMessage
from repro.shard.recovery import latest_manifest, resume_cluster
from repro.shard.topology import OwnershipTable, ShardTopology

__all__ = [
    "ClusterControlPlane",
    "OwnershipTable",
    "ShardMessage",
    "ShardSimulator",
    "ShardTopology",
    "latest_manifest",
    "resume_cluster",
    "shard_fault_seed",
]
