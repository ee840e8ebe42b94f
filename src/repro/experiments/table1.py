"""Table I: performance and overhead of the caching algorithms.

Paper (2 GB cache under the full JAWS stack):

=======  =========  ===========  ============
policy   cache hit  seconds/qry  overhead/qry
=======  =========  ===========  ============
LRU-K    47 %       1.62         (not meas.)
SLRU     49 %       1.56         < 1 ms
URC      54 %       1.39         7 ms
=======  =========  ===========  ============

We measure hit ratio and simulated seconds-per-query from the engine.
The overhead column is restated as a deterministic count: atoms whose
eviction rank the policy recomputed, per completed query
(:attr:`~repro.cache.base.CachePolicy.rank_updates`).  URC re-ranks
every resident atom on each refresh, SLRU only one run's accessed atoms
per run boundary; LRU-K keeps no separate ranking and, as in the paper,
reports none.
"""

from __future__ import annotations

import dataclasses

from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.experiments.common import (
    STANDARD_SPEEDUP,
    ExperimentScale,
    standard_engine,
    standard_trace,
    sweep_supervisor,
)
from repro.experiments.report import render_table
from repro.parallel import RunSpec, map_many

POLICIES = ("lruk", "slru", "urc")

PAPER = {
    "lruk": {"cache_hit": 0.47, "sec_per_qry": 1.62, "overhead_ms": None},
    "slru": {"cache_hit": 0.49, "sec_per_qry": 1.56, "overhead_ms": 1.0},
    "urc": {"cache_hit": 0.54, "sec_per_qry": 1.39, "overhead_ms": 7.0},
}


def _policy_row(spec: RunSpec) -> dict:
    """Worker: replay one policy's spec and fold it into a table row."""
    sim = Simulator(
        spec.trace, [make_scheduler(spec.scheduler, spec.trace, spec.engine)], spec.engine
    )
    result = sim.run()
    updates = sim.nodes[0].cache.policy.rank_updates
    return {
        "cache_hit": result.cache_hit_ratio,
        "sec_per_qry": result.seconds_per_query,
        # None when the policy ranks nothing (LRU-K): printed as "-".
        "rank_updates_per_qry": updates / result.n_queries if updates else None,
        "throughput_qps": result.throughput_qps,
    }


def run(
    scale: ExperimentScale = ExperimentScale.SMALL,
    speedup: float = STANDARD_SPEEDUP,
    seed: int = 7,
    jobs: int = 1,
) -> dict:
    """JAWS₂ with each replacement policy on the standard trace."""
    trace = standard_trace(scale, speedup=speedup, seed=seed)
    engine = standard_engine()
    specs = [
        RunSpec(
            trace,
            "jaws2",
            dataclasses.replace(
                engine, cache=dataclasses.replace(engine.cache, policy=policy)
            ),
            label=f"table1:{policy}",
        )
        for policy in POLICIES
    ]
    rows = map_many(_policy_row, specs, jobs=jobs, supervisor=sweep_supervisor())
    return {"rows": dict(zip(POLICIES, rows)), "paper": PAPER}


def render(data: dict) -> str:
    rows = []
    for policy, v in data["rows"].items():
        p = data["paper"][policy]
        rows.append(
            (
                policy.upper(),
                v["cache_hit"],
                p["cache_hit"],
                v["sec_per_qry"],
                p["sec_per_qry"],
                v["rank_updates_per_qry"] if v["rank_updates_per_qry"] is not None else "-",
                p["overhead_ms"] if p["overhead_ms"] is not None else "-",
            )
        )
    return render_table(
        ["policy", "hit", "hit(paper)", "s/qry", "s/qry(paper)", "rank_upd/qry", "ovh_ms(paper)"],
        rows,
        title="Table I — cache replacement algorithms under JAWS2",
    )


if __name__ == "__main__":
    print(render(run()))
