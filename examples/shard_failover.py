#!/usr/bin/env python
"""Sharded execution: lease failover and cluster-consistent recovery (§14).

Runs one workload four ways and proves the sharded machinery keeps its
promises:

1. single-coordinator reference (``n_shards=1`` runs the plain
   cluster engine);
2. two coordinator shards, fault-free;
3. two shards with shard 1 crashing mid-run — shard 0 adopts its
   Morton ranges at a bumped lease epoch and every query still
   completes, conserved exactly;
4. the same crashed run halted at a cluster barrier and resumed from
   the composed recovery point, bit-identical to the uninterrupted
   run.

Run:  python examples/shard_failover.py
"""

import tempfile
from pathlib import Path

from repro import (
    CacheConfig,
    CoordinatorCrash,
    CostModel,
    DatasetSpec,
    EngineConfig,
    WorkloadParams,
    generate_trace,
)
from repro.cluster import run_cluster
from repro.config import ShardConfig
from repro.shard import resume_cluster

N_NODES = 4
SCHEDULER = "jaws2"


def build_inputs():
    spec = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)
    trace = generate_trace(spec, WorkloadParams(n_jobs=20, span=150.0, seed=7))
    engine = EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5), cache=CacheConfig(capacity_atoms=32)
    )
    return trace, engine


def describe(tag, out):
    stats = out.shard_stats
    print(
        f"{tag:<28} shards={stats['n_shards']} completed={out.result.n_queries} "
        f"makespan={out.result.makespan:.3f}s crashes={stats['shard_crashes']} "
        f"epoch_bumps={stats['epoch_bumps']} stale_retries={stats['stale_retries']}"
    )


def main():
    trace, engine = build_inputs()

    single = run_cluster(
        trace, SCHEDULER, N_NODES, shards=ShardConfig(n_shards=1), engine=engine
    )
    describe("single coordinator", single)

    sharded = run_cluster(
        trace, SCHEDULER, N_NODES, shards=ShardConfig(n_shards=2), engine=engine
    )
    describe("2 shards, fault-free", sharded)

    crashed = run_cluster(
        trace,
        SCHEDULER,
        N_NODES,
        shards=ShardConfig(n_shards=2, crashes=((1, 40.0),)),
        engine=engine,
    )
    describe("2 shards, shard 1 dies", crashed)
    assert crashed.result.n_queries == trace.n_queries, "failover lost queries"
    c = crashed.shard_stats["conservation"]
    assert c["created"] == c["applied"] + c["residual_cancelled"]
    print(
        f"  conservation: created={c['created']} == applied={c['applied']} "
        f"+ residual_cancelled={c['residual_cancelled']}  ✓ nothing lost"
    )
    print(f"  ownership after failover: operators={crashed.shard_stats['operators']}")

    with tempfile.TemporaryDirectory(prefix="repro-shard-ck-") as ckdir:
        try:
            run_cluster(
                trace,
                SCHEDULER,
                N_NODES,
                shards=ShardConfig(
                    n_shards=2,
                    crashes=((1, 40.0),),
                    checkpoint_dir=ckdir,
                    barrier_every_events=500,
                    halt_after_barrier=3,
                ),
                engine=engine,
            )
            raise SystemExit("expected the halt to fire")
        except CoordinatorCrash:
            manifests = sorted(Path(ckdir).glob("cluster-*.manifest"))
            print(f"halted after barrier 3: {len(manifests)} cluster manifest(s)")

        resumed = resume_cluster(ckdir).run()
        describe("resumed from barrier", resumed)

    same = (
        resumed.result.n_queries == crashed.result.n_queries
        and resumed.result.makespan == crashed.result.makespan
        and list(resumed.result.response_times) == list(crashed.result.response_times)
    )
    assert same, "resumed run diverged from the uninterrupted crashed run"
    print("resume is bit-identical to the uninterrupted run  ✓")


if __name__ == "__main__":
    main()
