"""Multi-node cluster substrate (paper Fig. 7): spatial partitioning of
atoms across nodes, each running its own scheduler instance.
:func:`run_cluster` is the one entry point for any node and
coordinator count."""

from repro.cluster.cluster import ClusterResult, run_cluster
from repro.cluster.partition import MortonRangePartitioner

__all__ = ["MortonRangePartitioner", "run_cluster", "ClusterResult"]
