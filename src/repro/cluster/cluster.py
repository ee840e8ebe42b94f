"""Cluster-level simulation: one scheduler instance per node.

:func:`run_cluster` is the one way to replay a trace on a cluster.
Queries fan out to the nodes owning their atoms; a query completes when
every node has finished its share (the engine tracks the global
outstanding count), and an ordered job's next query arrives only after
the global completion plus think time — so a slow node gates the whole
job, just as in the real cluster.

Boundary stencils: a node evaluating interpolation sub-queries near its
partition edge reads the neighboring region through its *own* disk and
cache — modeling the replicated boundary data the production cluster
keeps so interpolation never blocks on a remote node (§III-A's halo
idea, lifted to the partition level).

With ``shards.n_shards > 1`` the coordinator itself is split: the
node blocks run as shard domains under the control plane of
:mod:`repro.shard` (DESIGN.md §14).  With one coordinator the run is
a single :class:`~repro.engine.simulator.Simulator` over all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.config import EngineConfig, SchedulerConfig, ShardConfig
from repro.engine.results import RunResult
from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.cluster.partition import MortonRangePartitioner
from repro.workload.trace import Trace

if TYPE_CHECKING:
    from repro.parallel.supervisor import SupervisorConfig

__all__ = ["ClusterResult", "run_cluster"]


@dataclass(frozen=True)
class ClusterResult:
    """Cluster run outcome: the merged engine result, the control
    plane's accounting (``shard_stats``; all cross-shard counters are
    zero with one coordinator) and per-node load-balance diagnostics
    indexed by global node id."""

    result: RunResult
    shard_stats: Dict[str, Any]
    node_atoms_executed: List[int]
    node_busy_seconds: List[float]

    @property
    def load_imbalance(self) -> float:
        """max/mean busy time across nodes (1.0 = perfectly balanced)."""
        busy = self.node_busy_seconds
        mean = sum(busy) / len(busy) if busy else 0.0
        return max(busy) / mean if mean > 0 else 0.0


def _refuse_unmodeled(engine: EngineConfig, shards: ShardConfig) -> None:
    """Raise :class:`ConfigurationError` for the combinations of engine
    and shard plan that no code path models."""
    if shards.sharded:
        if engine.overload.enabled:
            raise ConfigurationError(
                "overload admission control is not modeled under sharded "
                "execution; run with n_shards=1 or drop the overload config"
            )
        if engine.sanitize:
            raise ConfigurationError(
                "the runtime sanitizer audits a single coordinator's invariants; "
                "sharded runs are audited by the cross-shard conservation "
                "counters instead — disable sanitize or run with n_shards=1"
            )
        if engine.checkpoint.enabled:
            raise ConfigurationError(
                "sharded runs checkpoint through cluster barriers: set "
                "ShardConfig.checkpoint_dir/barrier_every_events instead of "
                "engine.checkpoint"
            )
    elif shards.checkpoint_dir is not None:
        raise ConfigurationError(
            "cluster barriers (checkpoint_dir, barrier_every_events, "
            "halt_after_barrier) belong to the sharded control plane; with "
            "n_shards=1 use engine.checkpoint and the coordinator-crash fault"
        )


def run_cluster(
    trace: Trace,
    scheduler: str,
    n_nodes: int = 1,
    *,
    engine: Optional[EngineConfig] = None,
    config: Optional[SchedulerConfig] = None,
    shards: Optional[ShardConfig] = None,
    jobs: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
) -> ClusterResult:
    """Replay ``trace`` on an ``n_nodes`` cluster of ``scheduler``
    instances with Morton-range spatial partitioning.

    ``engine.faults.replication`` gives each atom that many ring-wise
    owners, the failover targets when its primary is down.  ``shards``
    (default: one coordinator) splits the coordinator into
    ``shards.n_shards`` lease-fenced shards; ``jobs > 1`` then fans
    their superstep windows out over the supervised process pool
    (bit-identical to the serial path).  Raises
    :class:`~repro.errors.ConfigurationError` for combinations the
    chosen shape does not model.
    """
    engine = engine or EngineConfig()
    shards = shards or ShardConfig()
    _refuse_unmodeled(engine, shards)
    partitioner = MortonRangePartitioner(
        trace.spec, n_nodes, replication=engine.faults.replication
    )
    # Deferred: the shard stack costs tens of milliseconds of imports,
    # which importers of this module (the process pool) should not pay.
    from repro.shard.control import ClusterControlPlane
    from repro.shard.topology import ShardTopology

    topology = ShardTopology(n_nodes=n_nodes, n_shards=shards.n_shards)
    if shards.sharded:
        return ClusterControlPlane.build(
            trace,
            scheduler,
            engine,
            config,
            topology,
            shards,
            partitioner,
            jobs=jobs,
            supervisor=supervisor,
        ).run()
    schedulers = [make_scheduler(scheduler, trace, engine, config) for _ in range(n_nodes)]
    sim = Simulator(
        trace,
        schedulers,
        engine,
        node_of=partitioner.node_of,
        replicas_of=partitioner.replicas_of,
    )
    result = sim.run()
    nodes = sim.owned_nodes
    return ClusterResult(
        result=result,
        shard_stats={
            "n_shards": 1,
            "topology_digest": topology.digest(),
            "shard_crashes": 0,
            "epoch_bumps": 0,
            "stale_retries": 0,
            "messages_delivered": 0,
            "conservation": {},
        },
        node_atoms_executed=[n.executor.stats.atoms_executed for n in nodes],
        node_busy_seconds=[n.executor.stats.busy_seconds for n in nodes],
    )
