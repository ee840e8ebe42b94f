#!/usr/bin/env python
"""Quickstart: generate a Turbulence-style workload and compare JAWS
against the NoShare and LifeRaft baselines.

Run:  python examples/quickstart.py
"""

from repro import DatasetSpec, EngineConfig, WorkloadParams, generate_trace, run_trace

def main() -> None:
    # A laptop-scale dataset: 16 stored time steps of an 8x8x8 atom grid
    # (the production cluster stores 1024 steps of 16x16x16 atoms).
    spec = DatasetSpec.small(n_timesteps=16, atoms_per_axis=8)

    # A bursty mix of particle-tracking jobs, batched statistics jobs
    # and one-off queries, rescaled 8x to saturate the server (the
    # calibrated figure-grade workload lives in repro.experiments.common).
    params = WorkloadParams(
        n_jobs=120,
        span=2200.0,
        think_time_mean=2.0,
        frac_tracking=0.25,
        hotspot_sigma=80.0,
        seed=42,
    )
    trace = generate_trace(spec, params).rescale(8.0)
    print(
        f"workload: {trace.n_jobs} jobs, {trace.n_queries} queries, "
        f"{trace.n_positions:,} positions over {trace.span:.0f}s"
    )

    engine = EngineConfig()
    print(f"\n{'scheduler':<12} {'qps':>7} {'mean rt':>9} {'disk reads':>11} {'cache hit':>10}")
    results = {}
    for name in ("noshare", "liferaft2", "jaws2"):
        result = results[name] = run_trace(trace, name, engine)
        print(
            f"{name:<12} {result.throughput_qps:7.3f} "
            f"{result.mean_response_time:8.1f}s {result.disk['reads']:11,} "
            f"{result.cache_hit_ratio:10.2f}"
        )
    speedup = results["jaws2"].throughput_qps / results["noshare"].throughput_qps
    print(
        f"\nJAWS speedup over NoShare: "
        f"{speedup:.2f}x  (paper: ~2.6x at high contention)"
    )


if __name__ == "__main__":
    main()
