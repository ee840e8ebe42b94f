#!/usr/bin/env python
"""Degraded-mode cluster execution: faults, failover, deadlines.

A 4-node JAWS cluster replays the same workload three ways:

1. clean — no faults (the baseline every other run is judged against);
2. faulty disks + a mid-trace node crash, with replication 2 so the
   crashed node's work fails over to its ring neighbor;
3. the same faults plus a per-query deadline, so overdue queries are
   cancelled and the tail of their ordered jobs aborted.

Every fault is drawn from a seeded stream: rerunning this script gives
identical numbers (the determinism property `tests/test_faults.py`
pins).

Run:  python examples/fault_tolerance.py
"""

from repro import DatasetSpec, EngineConfig, FaultConfig, WorkloadParams, generate_trace
from repro.cluster import run_cluster

N_NODES = 4


def show(label: str, result) -> None:
    print(
        f"{label:>10}: {result.n_queries:4d} done  "
        f"qps={result.throughput_qps:6.3f}  "
        f"avail={result.availability:6.3f}  "
        f"retries={result.retries:4d}  failovers={result.failovers:4d}  "
        f"timeouts={result.timeouts:3d}  aborted_jobs={result.aborted_jobs:2d}"
    )


def main() -> None:
    spec = DatasetSpec.small(n_timesteps=16, atoms_per_axis=8)
    trace = generate_trace(
        spec, WorkloadParams(n_jobs=80, span=1500.0, think_time_mean=2.0, seed=5)
    ).rescale(8.0)
    print(f"workload: {trace.n_jobs} jobs / {trace.n_queries} queries on {N_NODES} nodes\n")

    clean = run_cluster(trace, "jaws2", N_NODES).result
    show("clean", clean)

    # 5% of disk reads fail transiently (retried with exponential
    # backoff in virtual time); node 1 crashes mid-trace and recovers.
    faults = FaultConfig(
        seed=11,
        transient_fault_rate=0.05,
        replication=2,
        node_crashes=((1, 40.0, 160.0),),
    )
    faulty = run_cluster(trace, "jaws2", N_NODES, engine=EngineConfig(faults=faults)).result
    show("faulty", faulty)

    # Same faults plus a deadline: queries not done within the budget
    # are cancelled everywhere and their ordered jobs aborted.
    deadline = faults.with_(query_deadline=30.0)
    bounded = run_cluster(trace, "jaws2", N_NODES, engine=EngineConfig(faults=deadline)).result
    show("deadline", bounded)

    slowdown = clean.throughput_qps / faulty.throughput_qps if faulty.throughput_qps else 0.0
    print(
        f"\nFaults cost {100 * (1 - 1 / slowdown):.1f}% throughput "
        f"(retry/backoff time + failover locality loss), yet availability "
        f"stays {faulty.availability:.3f} — every query still completes "
        f"because replicas cover the crashed node."
    )
    print(
        f"With a {deadline.query_deadline:.0f}s deadline, "
        f"{bounded.timeouts} quer{'y' if bounded.timeouts == 1 else 'ies'} "
        f"timed out and {bounded.aborted_jobs} ordered job(s) aborted; "
        f"availability {bounded.availability:.3f}."
    )

    # Throughput vs disk-fault rate: batching amortizes retry penalties
    # across co-scheduled sub-queries, so JAWS degrades more gracefully
    # than share-nothing execution.
    print(f"\n{'fault rate':>10} {'jaws2 qps':>10} {'noshare qps':>12}")
    for rate in (0.0, 0.02, 0.05, 0.10):
        sweep = EngineConfig(faults=FaultConfig(seed=11, transient_fault_rate=rate))
        jaws = run_cluster(trace, "jaws2", N_NODES, engine=sweep).result
        noshare = run_cluster(trace, "noshare", N_NODES, engine=sweep).result
        print(f"{rate:>10.2f} {jaws.throughput_qps:>10.3f} {noshare.throughput_qps:>12.3f}")


if __name__ == "__main__":
    main()
