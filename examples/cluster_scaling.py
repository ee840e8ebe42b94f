#!/usr/bin/env python
"""Multi-node cluster simulation (paper Fig. 7 architecture).

Atoms are spatially partitioned across nodes as contiguous Morton
ranges; every node runs its own JAWS instance with a private cache and
disk.  A query fans out to the nodes owning its atoms and completes
when all of them finish, so ordered jobs are gated by their slowest
node — exactly the deployment the Turbulence cluster runs.

Run:  python examples/cluster_scaling.py
"""

from repro import DatasetSpec, EngineConfig, WorkloadParams, generate_trace
from repro.cluster import run_cluster


def main() -> None:
    spec = DatasetSpec.small(n_timesteps=16, atoms_per_axis=8)
    trace = generate_trace(
        spec, WorkloadParams(n_jobs=130, span=2200.0, think_time_mean=2.0, seed=5)
    ).rescale(12.0)
    engine = EngineConfig()
    print(f"workload: {trace.n_jobs} jobs / {trace.n_queries} queries\n")

    print(f"{'nodes':>5} {'qps':>8} {'mean rt':>9} {'imbalance':>10}  per-node atoms executed")
    base = None
    for n_nodes in (1, 2, 4, 8):
        out = run_cluster(trace, "jaws2", n_nodes, engine=engine)
        base = base or out.result.throughput_qps
        print(
            f"{n_nodes:5d} {out.result.throughput_qps:8.3f} "
            f"{out.result.mean_response_time:8.1f}s {out.load_imbalance:10.2f}  "
            f"{out.node_atoms_executed}"
        )
    print(
        "\nThroughput scales with nodes until per-node load imbalance and"
        "\ncross-node query fan-out (a query waits for its slowest node)"
        "\nlimit the gain — the aggregate-throughput argument of §I."
    )


if __name__ == "__main__":
    main()
