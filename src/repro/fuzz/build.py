"""Scenario generation and materialization.

:func:`build_scenario` draws a randomized :class:`ScenarioSpec` from a
single seed — which job classes are in the mix, which stressors are
layered on, every stressor's parameters.  All randomness flows through
one ``random.Random(f"{seed}:scenario")`` stream (jawslint D007
enforces the seeding), so the same seed always builds the same spec.

:func:`materialize` turns a spec into concrete engine inputs: the
merged workload trace (base mix + adversarial waves + flash crowd) and
the :class:`~repro.config.EngineConfig` (``sanitize=True`` always —
every fuzz run sweeps the full runtime invariant set after every
event).  Coordinator-crash materialization is deferred to the runner,
which owns the checkpoint directory lifecycle.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import (
    CacheConfig,
    CostModel,
    EngineConfig,
    FaultConfig,
    OverloadConfig,
    ShardConfig,
)
from repro.engine.runner import SCHEDULER_NAMES
from repro.fuzz.spec import ScenarioEntry, ScenarioSpec
from repro.grid.dataset import DatasetSpec
from repro.workload.generator import (
    FlashCrowdParams,
    WorkloadParams,
    generate_trace,
    inject_flash_crowd,
)
from repro.workload.job import Job, JobKind
from repro.workload.query import Query
from repro.workload.trace import Trace

__all__ = ["MaterializedScenario", "build_scenario", "materialize"]


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------
_CLASS_NAMES = ("tracking", "batched", "oneoff")

#: Inclusion probability per optional stressor kind (build order fixed).
_STRESSOR_PROB = (
    ("flash_crowd", 0.40),
    ("regime_shift", 0.30),
    ("morton_hostile", 0.30),
    ("quota_starvation", 0.25),
    ("gating_deadlock", 0.25),
    ("disk_faults", 0.45),
    ("node_crash", 0.30),
    ("coordinator_crash", 0.35),
    ("overload", 0.45),
    ("shard_crash_storm", 0.30),
    ("ownership_churn", 0.20),
)


def build_scenario(seed: int, quick: bool = False) -> ScenarioSpec:
    """Compose one randomized adversarial scenario from ``seed``.

    ``quick`` bounds the workload so a scenario runs in well under a
    second (the CI ``fuzz-smoke`` budget); the full mode draws larger
    traces and longer spans for nightly campaigns.
    """
    rng = random.Random(f"{seed}:scenario")
    scheduler = rng.choice(SCHEDULER_NAMES)
    if quick:
        n_jobs = rng.randrange(8, 15)
        span = float(rng.randrange(60, 121))
        n_timesteps = 6
    else:
        n_jobs = rng.randrange(12, 31)
        span = float(rng.randrange(90, 301))
        n_timesteps = rng.choice((6, 8, 10))

    entries: List[ScenarioEntry] = []
    # At least one base job class is always present.
    included = [name for name in _CLASS_NAMES if rng.random() < 0.6]
    if not included:
        included = [rng.choice(_CLASS_NAMES)]
    for name in included:
        entries.append(ScenarioEntry("query_class", {"name": name}))

    picked = {kind for kind, prob in _STRESSOR_PROB if rng.random() < prob}
    # Deterministic parameter draws happen in fixed kind order so that
    # adding/removing one stressor never perturbs another's parameters.
    if "flash_crowd" in picked:
        entries.append(
            ScenarioEntry(
                "flash_crowd",
                {
                    "factor": round(rng.uniform(3.0, 12.0), 3),
                    "start_frac": round(rng.uniform(0.05, 0.6), 3),
                    "duration_frac": round(rng.uniform(0.05, 0.2), 3),
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    if "regime_shift" in picked:
        entries.append(
            ScenarioEntry(
                "regime_shift",
                {
                    "at_frac": round(rng.uniform(0.3, 0.7), 3),
                    "n_jobs": rng.randrange(4, max(5, n_jobs // 2 + 1)),
                    "frac_tracking": round(rng.uniform(0.0, 0.8), 3),
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    if "morton_hostile" in picked:
        entries.append(
            ScenarioEntry(
                "morton_hostile",
                {
                    "n_jobs": rng.randrange(3, 9),
                    "stride_atoms": rng.choice((1, 2, 3)),
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    if "quota_starvation" in picked:
        entries.append(
            ScenarioEntry(
                "quota_starvation",
                {
                    "n_jobs": rng.randrange(4, 13),
                    "n_users": rng.randrange(1, 3),
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    if "gating_deadlock" in picked:
        entries.append(
            ScenarioEntry(
                "gating_deadlock",
                {
                    "n_campaigns": rng.randrange(2, 5),
                    "length": rng.randrange(2, max(3, n_timesteps)),
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    if "disk_faults" in picked:
        entries.append(
            ScenarioEntry(
                "disk_faults",
                {
                    "transient_rate": round(rng.uniform(0.01, 0.15), 4),
                    "loss_rate": round(rng.uniform(0.0, 0.02), 4),
                    "slow_rate": round(rng.uniform(0.0, 0.1), 4),
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    if "node_crash" in picked:
        down = round(rng.uniform(0.1, 0.6), 3)
        entries.append(
            ScenarioEntry(
                "node_crash",
                {"down_frac": down, "up_frac": round(down + rng.uniform(0.05, 0.3), 3)},
            )
        )
    if "coordinator_crash" in picked:
        lo = round(rng.uniform(0.05, 0.8), 3)
        entries.append(
            ScenarioEntry(
                "coordinator_crash",
                {
                    # Windows may intentionally reach past the
                    # guaranteed event floor: the injector clamps them
                    # (the satellite-1 fix this fuzzer regression-tests).
                    # The crash point itself is drawn from the fault
                    # config's dedicated seeded stream, so no extra seed
                    # lives here.
                    "window_lo_frac": lo,
                    "window_hi_frac": round(lo + rng.uniform(0.1, 0.8), 3),
                },
            )
        )
    if "overload" in picked:
        entries.append(
            ScenarioEntry(
                "overload",
                {
                    "max_queue_depth": rng.randrange(8, 41),
                    "client_rate": round(rng.uniform(0.5, 4.0), 3),
                    "client_burst": float(rng.randrange(1, 6)),
                    "shed_policy": rng.choice(("reject-newest", "low-density", "deadline")),
                    "t_b": round(rng.uniform(0.05, 0.5), 3),
                },
            )
        )
        if rng.random() < 0.5:
            # Adversarial client: only meaningful with admission control.
            entries.append(
                ScenarioEntry("retry_gaming", {"max_resubmits": rng.randrange(1, 9)})
            )
    if "shard_crash_storm" in picked:
        n_shards = rng.choice((2, 4))
        lo = round(rng.uniform(0.1, 0.5), 3)
        entries.append(
            ScenarioEntry(
                "shard_crash_storm",
                {
                    "n_shards": n_shards,
                    "n_crashes": rng.randrange(1, n_shards),
                    "window_lo_frac": lo,
                    "window_hi_frac": round(lo + rng.uniform(0.1, 0.4), 3),
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    if "ownership_churn" in picked:
        # Staggered explicit crashes: successive operators die, so the
        # same range is re-adopted under successive epoch bumps.
        entries.append(
            ScenarioEntry(
                "ownership_churn",
                {
                    "n_shards": 4,
                    "n_crashes": rng.randrange(2, 4),
                    "start_frac": round(rng.uniform(0.1, 0.4), 3),
                    "spacing_frac": round(rng.uniform(0.05, 0.2), 3),
                },
            )
        )
    return ScenarioSpec(
        seed=seed,
        scheduler=scheduler,
        n_jobs=n_jobs,
        span=span,
        n_timesteps=n_timesteps,
        atoms_per_axis=4,
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MaterializedScenario:
    """Concrete engine inputs derived from one spec.

    ``crash_window`` is the resolved (lo, hi) event window when the
    spec carries a ``coordinator_crash`` entry; the runner arms it on a
    copy of ``engine`` together with a temporary checkpoint directory
    (the crash point is drawn inside the injector from the fault
    config's dedicated seeded stream).

    ``shards`` is the resolved sharded-replay plan when the spec
    carries a ``shard_crash_storm`` or ``ownership_churn`` entry
    (churn wins when both are present — its staggered schedule
    subsumes the storm); ``planned_shard_crashes`` is how many shard
    crashes that plan arms, so the shard stage can require every one
    of them to actually fire.  The runner replays the trace under this
    plan with overload admission and the single-coordinator sanitizer
    stripped (a sharded ``run_cluster`` models neither) and audits the
    cross-shard conservation counters instead.
    """

    trace: Trace
    engine: EngineConfig
    crash_window: Optional[Tuple[int, int]] = None
    retry_gaming: Optional[ScenarioEntry] = None
    shards: Optional[ShardConfig] = None
    planned_shard_crashes: int = 0


def _id_ceilings(jobs: List[Job]) -> Tuple[int, int, int]:
    next_job = max((j.job_id for j in jobs), default=-1) + 1
    next_query = max((q.query_id for j in jobs for q in j.queries), default=-1) + 1
    next_user = max((j.user_id for j in jobs), default=-1) + 1
    return next_job, next_query, next_user


def _renumber(
    wave: List[Job], next_job: int, next_query: int, user_offset: int
) -> Tuple[List[Job], int, int]:
    """Renumber a generated wave to continue past existing id maxima.

    User ids are offset (not renumbered) so a wave designed around few
    users — e.g. a quota-starvation probe — keeps its user structure.
    """
    out: List[Job] = []
    for job in wave:
        queries = [
            dataclasses.replace(
                q, query_id=next_query + i, job_id=next_job, user_id=job.user_id + user_offset
            )
            for i, q in enumerate(job.queries)
        ]
        next_query += len(queries)
        out.append(
            dataclasses.replace(
                job, job_id=next_job, user_id=job.user_id + user_offset, queries=queries
            )
        )
        next_job += 1
    return out, next_job, next_query


def _shift_times(jobs: List[Job], offset: float) -> List[Job]:
    return [
        dataclasses.replace(job, submit_time=job.submit_time + offset) for job in jobs
    ]


def _morton_hostile_jobs(
    spec: DatasetSpec, entry: ScenarioEntry, span: float
) -> List[Job]:
    """One-off interp queries striding atom boundaries: consecutive
    positions land in different atoms along one axis, defeating Morton
    locality in the batch picker and maximizing stencil boundary
    crossings."""
    rng = np.random.default_rng(int(entry.get("seed", 0)))
    n_jobs = int(entry.get("n_jobs", 4))
    stride = max(1, int(entry.get("stride_atoms", 1))) * spec.atom_side
    jobs: List[Job] = []
    submit_times = np.sort(rng.uniform(0.0, span, n_jobs))
    for i in range(n_jobs):
        n_pos = 12
        base = float(rng.uniform(0, spec.grid_side))
        # Positions sit just past atom faces so wide stencils read both
        # neighbors; x strides a (possibly prime) multiple of atom_side.
        xs = np.mod(base + stride * np.arange(n_pos) + 1.0, spec.grid_side)
        yz = np.full((n_pos, 2), float(rng.uniform(0, spec.grid_side)))
        positions = np.column_stack([xs, yz])
        query = Query(
            query_id=i,
            job_id=i,
            seq=0,
            user_id=0,
            op="interp",
            timestep=int(rng.integers(0, spec.n_timesteps)),
            positions=positions,
        )
        jobs.append(
            Job(
                job_id=i,
                kind=JobKind.ORDERED,
                user_id=0,
                submit_time=float(submit_times[i]),
                think_time=0.0,
                queries=[query],
            )
        )
    return jobs


def _shard_plan(spec: ScenarioSpec) -> Tuple[Optional[ShardConfig], int]:
    """Resolve the sharded-replay plan: ``(config, planned crashes)``.

    ``ownership_churn`` builds an explicit staggered schedule where the
    shard that just adopted a range is the next to die, so the same
    Morton ranges fail over through successive epoch bumps;
    ``shard_crash_storm`` arms the seeded crash-window draw instead.
    Crash counts clamp to ``n_shards - 1`` (at least one survivor), so
    shrinker-halved shard counts always stay materializable.
    """
    churn = spec.first("ownership_churn")
    if churn is not None:
        n_shards = max(2, int(churn.get("n_shards", 4)))
        n_crashes = min(max(1, int(churn.get("n_crashes", 2))), n_shards - 1)
        start = max(0.0, float(churn.get("start_frac", 0.2))) * spec.span
        spacing = max(1.0, float(churn.get("spacing_frac", 0.1)) * spec.span)
        # Victims ascend from shard 1: shard 1 dies and shard 2 adopts
        # its ranges, then shard 2 dies and shard 3 adopts both — every
        # earlier victim's ranges churn again on each later crash.
        crashes = tuple(
            (1 + i, round(start + i * spacing, 6)) for i in range(n_crashes)
        )
        return ShardConfig(n_shards=n_shards, crashes=crashes), n_crashes
    storm = spec.first("shard_crash_storm")
    if storm is not None:
        n_shards = max(2, int(storm.get("n_shards", 2)))
        n_crashes = min(max(1, int(storm.get("n_crashes", 1))), n_shards - 1)
        lo = max(0.0, float(storm.get("window_lo_frac", 0.2))) * spec.span
        hi = max(lo + 1.0, float(storm.get("window_hi_frac", 0.6)) * spec.span)
        plan = ShardConfig(
            n_shards=n_shards,
            crash_window=(lo, hi),
            n_window_crashes=n_crashes,
            seed=int(storm.get("seed", spec.seed)),
        )
        return plan, n_crashes
    return None, 0


def _base_params(spec: ScenarioSpec) -> WorkloadParams:
    classes = {e.get("name") for e in spec.entries_of("query_class")}
    frac_tracking = 0.3 if "tracking" in classes else 0.0
    frac_batched = 0.45 if "batched" in classes else 0.0
    if "oneoff" not in classes:
        # No one-off share: split the remainder between the present
        # classes (fractions must stay <= 1 combined).
        if frac_tracking and frac_batched:
            frac_tracking, frac_batched = 0.4, 0.6
        elif frac_tracking:
            frac_tracking = 1.0
        elif frac_batched:
            frac_batched = 1.0
    return WorkloadParams(
        n_jobs=spec.n_jobs,
        span=spec.span,
        frac_tracking=frac_tracking,
        frac_batched=frac_batched,
        burstiness=0.6,
        n_users=8,
        seed=spec.seed,
    )


def materialize(spec: ScenarioSpec) -> MaterializedScenario:
    """Turn a spec into a merged trace + engine configuration."""
    dataset = DatasetSpec.small(
        n_timesteps=spec.n_timesteps, atoms_per_axis=spec.atoms_per_axis
    )
    trace = generate_trace(dataset, _base_params(spec))
    jobs = list(trace.jobs)

    for entry in spec.entries:
        wave: List[Job] = []
        user_offset = 0
        next_job, next_query, next_user = _id_ceilings(jobs)
        if entry.kind == "regime_shift":
            at = float(entry.get("at_frac", 0.5)) * spec.span
            params = WorkloadParams(
                n_jobs=int(entry.get("n_jobs", 6)),
                span=max(spec.span - at, 1.0),
                frac_tracking=float(entry.get("frac_tracking", 0.5)),
                frac_batched=max(0.0, 0.9 - float(entry.get("frac_tracking", 0.5))),
                burstiness=0.8,
                n_users=4,
                seed=int(entry.get("seed", 0)) + 1,
            )
            wave = _shift_times(list(generate_trace(dataset, params).jobs), at)
            user_offset = next_user
        elif entry.kind == "quota_starvation":
            params = WorkloadParams(
                n_jobs=int(entry.get("n_jobs", 8)),
                span=max(spec.span * 0.5, 1.0),
                frac_tracking=0.0,
                frac_batched=1.0,
                n_users=max(1, int(entry.get("n_users", 1))),
                seed=int(entry.get("seed", 0)) + 2,
            )
            wave = list(generate_trace(dataset, params).jobs)
            user_offset = next_user
        elif entry.kind == "gating_deadlock":
            params = WorkloadParams(
                n_jobs=int(entry.get("n_campaigns", 3)),
                span=max(spec.span * 0.6, 1.0),
                frac_tracking=1.0,
                frac_batched=0.0,
                campaign_prob=0.95,
                campaign_size_mean=3.0,
                tracking_len_mean=float(entry.get("length", 3)),
                n_users=2,
                seed=int(entry.get("seed", 0)) + 3,
            )
            wave = list(generate_trace(dataset, params).jobs)
            user_offset = next_user
        elif entry.kind == "morton_hostile":
            wave = _morton_hostile_jobs(dataset, entry, spec.span)
            user_offset = next_user
        else:
            continue
        renumbered, _, _ = _renumber(wave, next_job, next_query, user_offset)
        jobs.extend(renumbered)

    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    trace = Trace(dataset, jobs)

    flash = spec.first("flash_crowd")
    if flash is not None:
        trace = inject_flash_crowd(
            trace,
            FlashCrowdParams(
                factor=max(1.001, float(flash.get("factor", 5.0))),
                start=float(flash.get("start_frac", 0.2)) * spec.span,
                duration=max(1.0, float(flash.get("duration_frac", 0.1)) * spec.span),
                seed=int(flash.get("seed", 7)),
            ),
        )

    # Fault plan (crash window handled by the runner).
    faults = FaultConfig(seed=spec.seed)
    disk = spec.first("disk_faults")
    if disk is not None:
        faults = faults.with_(
            seed=int(disk.get("seed", spec.seed)),
            transient_fault_rate=min(1.0, float(disk.get("transient_rate", 0.05))),
            permanent_loss_rate=min(1.0, float(disk.get("loss_rate", 0.0))),
            slow_read_rate=min(1.0, float(disk.get("slow_rate", 0.0))),
        )
    node = spec.first("node_crash")
    if node is not None:
        down = max(0.0, float(node.get("down_frac", 0.3))) * spec.span
        up = max(down + 1.0, float(node.get("up_frac", 0.5)) * spec.span)
        faults = faults.with_(node_crashes=((0, down, up),))

    overload = OverloadConfig()
    cost = CostModel(t_b=0.02, t_m=1e-5)
    ov = spec.first("overload")
    if ov is not None:
        overload = OverloadConfig(
            enabled=True,
            max_queue_depth=max(1, int(ov.get("max_queue_depth", 20))),
            client_rate=max(0.01, float(ov.get("client_rate", 2.0))),
            client_burst=max(1.0, float(ov.get("client_burst", 4.0))),
            shed_policy=str(ov.get("shed_policy", "deadline")),
            control_interval=1.0,
        )
        # Overload scenarios need real pressure: slow the disk down.
        cost = CostModel(t_b=max(0.02, float(ov.get("t_b", 0.2))), t_m=1e-5)

    engine = EngineConfig(
        cost=cost,
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        faults=faults,
        overload=overload,
        sanitize=True,
    )

    crash_window: Optional[Tuple[int, int]] = None
    crash = spec.first("coordinator_crash")
    if crash is not None:
        # Resolve window fracs against the guaranteed event floor; the
        # injector clamps window draws that still land past the end.
        floor = len(trace.jobs) + 2 * len(faults.node_crashes)
        lo = max(1, int(float(crash.get("window_lo_frac", 0.2)) * floor))
        hi = max(lo + 1, int(float(crash.get("window_hi_frac", 0.8)) * floor))
        crash_window = (lo, hi)

    shards, planned_shard_crashes = _shard_plan(spec)
    return MaterializedScenario(
        trace=trace,
        engine=engine,
        crash_window=crash_window,
        retry_gaming=spec.first("retry_gaming") if ov is not None else None,
        shards=shards,
        planned_shard_crashes=planned_shard_crashes,
    )
