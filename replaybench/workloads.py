"""The four replay workloads: trace construction and engine set-up.

Every workload replays the same trace: the standard SMALL workload
(``standard_spec()``, ``standard_params(SMALL, 7)``, speedup 8) cut to
the deterministic one-third slice ``repro bench --quick`` uses
(30 jobs over 550 s), then translated through the periodic domain by
a whole number of atoms per axis that the benchmark seed selects.  The
translation keeps the load fixed -- same queries, positions and
sub-query counts -- while moving every atom id, Morton path and cache
key, so a seed changes the inputs without changing how much work they
are.  README.md gives the reasons for both choices.

This module imports nothing from ``repro`` at import time: workers
import it before starting the set-up clock.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

__all__ = ["WORKLOADS", "Workload", "build_simulator", "build_trace"]

#: Generation seed of the base trace (the repo's standard seed).
BASE_SEED = 7
#: ``repro bench --quick``'s slice of the SMALL workload.
SLICE_JOBS = 30
SLICE_SPAN = 550.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why each exists).

    ``nonzero_spans`` are the ledger spans a traced replay must call at
    least once on this workload; a traced run that records zero calls
    for one of them fails its correctness check.
    """

    name: str
    scheduler: str
    policy: str
    durable: bool
    nonzero_spans: tuple[str, ...]


_COMMON_SPANS = (
    "engine.loop",
    "engine.executor.execute",
    "storage.buffer.access",
    "cache.choose_victim",
    "storage.disk.read_atom",
    "workload.preprocess_query",
    "core.next_batch",
    "core.on_query_arrival",
    "core.on_job_submitted",
)
_GATING_SPANS = ("core.merge.align_jobs", "core.gating.admit_edge")
_RECOVERY_SPANS = ("recovery.log_event", "recovery.maybe_snapshot")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("jaws2-lruk", "jaws2", "lruk", False, _COMMON_SPANS + _GATING_SPANS),
        Workload("liferaft2-lruk", "liferaft2", "lruk", False, _COMMON_SPANS),
        Workload("noshare-lruk", "noshare", "lruk", False, _COMMON_SPANS),
        Workload(
            "jaws2-urc-durable",
            "jaws2",
            "urc",
            True,
            _COMMON_SPANS + _GATING_SPANS + _RECOVERY_SPANS,
        ),
    )
}


def atom_shift(seed: int, atoms_per_axis: int) -> tuple[int, int, int]:
    """The per-axis translation, in atoms, that ``seed`` selects.

    Seeds index a fixed shuffle of every possible translation, so
    ``atoms_per_axis ** 3`` consecutive seeds all give distinct inputs.
    """
    import numpy as np

    n = atoms_per_axis**3
    index = int(np.random.default_rng(0).permutation(n)[seed % n])
    x, rest = divmod(index, atoms_per_axis**2)
    y, z = divmod(rest, atoms_per_axis)
    return (x, y, z)


def build_trace(seed: int) -> Any:
    """Generate the base trace and translate it by ``seed``'s shift."""
    import numpy as np

    from repro.experiments.common import (
        STANDARD_SPEEDUP,
        ExperimentScale,
        standard_params,
        standard_spec,
    )
    from repro.workload.cache import cached_generate_trace
    from repro.workload.job import Job
    from repro.workload.query import Query
    from repro.workload.trace import Trace

    spec = standard_spec()
    params = dataclasses.replace(
        standard_params(ExperimentScale.SMALL, BASE_SEED),
        n_jobs=SLICE_JOBS,
        span=SLICE_SPAN,
    )
    base = cached_generate_trace(spec, params, speedup=STANDARD_SPEEDUP)
    shift = np.array(atom_shift(seed, spec.grid_side // spec.atom_side), dtype=np.float64)
    offset = shift * spec.atom_side
    jobs = [
        Job(
            job.job_id,
            job.kind,
            job.user_id,
            job.submit_time,
            job.think_time,
            [
                Query(
                    q.query_id,
                    q.job_id,
                    q.seq,
                    q.user_id,
                    q.op,
                    q.timestep,
                    np.mod(q.positions + offset, spec.grid_side),
                )
                for q in job.queries
            ],
            job.client_class,
        )
        for job in base.jobs
    ]
    return Trace(spec, jobs)


def engine_config(workload: Workload, checkpoint_dir: Optional[str]) -> Any:
    """The standard engine, with the workload's cache policy and, for
    the durable workload, checkpointing plus transient disk faults."""
    from repro.config import CheckpointConfig, FaultConfig
    from repro.experiments.common import standard_engine

    engine = standard_engine()
    engine = engine.with_(cache=dataclasses.replace(engine.cache, policy=workload.policy))
    if workload.durable:
        if checkpoint_dir is None:
            raise ValueError(f"{workload.name} needs a checkpoint directory")
        engine = engine.with_(
            faults=FaultConfig(transient_fault_rate=0.05, seed=3),
            checkpoint=CheckpointConfig(directory=checkpoint_dir, every_events=250),
        )
    return engine


def build_simulator(workload: Workload, trace: Any, checkpoint_dir: Optional[str]) -> Any:
    """A fresh single-node exact-engine simulator for one replay."""
    from repro.engine.runner import make_scheduler
    from repro.engine.simulator import Simulator

    engine = engine_config(workload, checkpoint_dir)
    return Simulator(trace, [make_scheduler(workload.scheduler, trace, engine)], engine)
