"""Unit tests for NoShare / LifeRaft / JAWS scheduler behaviour
(driven directly through the Scheduler interface, no engine)."""

import numpy as np
import pytest

from repro.config import CostModel, SchedulerConfig
from repro.core.jaws import JAWSScheduler
from repro.core.liferaft import LifeRaftScheduler
from repro.core.metrics import workload_throughput
from repro.core.noshare import NoShareScheduler
from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.workload.job import Job, JobKind
from repro.workload.query import Query, preprocess_query

SPEC = DatasetSpec.small(n_timesteps=4, atoms_per_axis=4)
MAPPER = AtomMapper(SPEC)
COST = CostModel()


def make_query(qid, positions, timestep=0, job_id=None, seq=0, op="velocity"):
    q = Query(
        query_id=qid,
        job_id=job_id if job_id is not None else qid,
        seq=seq,
        user_id=0,
        op=op,
        timestep=timestep,
        positions=np.asarray(positions, dtype=float),
    )
    return q, preprocess_query(q, MAPPER)


def atom_center(ax, ay, az):
    return [64 * ax + 32.0, 64 * ay + 32.0, 64 * az + 32.0]


class TestNoShare:
    def test_arrival_order_single_query(self):
        s = NoShareScheduler()
        q, subs = make_query(0, [atom_center(0, 0, 0), atom_center(1, 0, 0)])
        s.on_query_arrival(q, subs, 0.0)
        b1 = s.next_batch(0.0)
        b2 = s.next_batch(0.0)
        assert b1.n_atoms == 1 and b2.n_atoms == 1
        assert s.next_batch(0.0) is None
        assert not s.has_pending()

    def test_round_robin_interleaving(self):
        s = NoShareScheduler()
        qa, subs_a = make_query(0, [atom_center(0, 0, 0), atom_center(1, 0, 0)])
        qb, subs_b = make_query(1, [atom_center(2, 0, 0), atom_center(3, 0, 0)])
        s.on_query_arrival(qa, subs_a, 0.0)
        s.on_query_arrival(qb, subs_b, 0.0)
        owners = [s.next_batch(0.0).atoms[0][1][0].query.query_id for _ in range(4)]
        assert owners == [0, 1, 0, 1]

    def test_no_co_scheduling_across_queries(self):
        """Both queries hit the same atom; NoShare still issues two
        separate single-sub-query batches."""
        s = NoShareScheduler()
        qa, subs_a = make_query(0, [atom_center(0, 0, 0)])
        qb, subs_b = make_query(1, [atom_center(0, 0, 0)])
        s.on_query_arrival(qa, subs_a, 0.0)
        s.on_query_arrival(qb, subs_b, 0.0)
        b1, b2 = s.next_batch(0.0), s.next_batch(0.0)
        assert len(b1.atoms[0][1]) == 1
        assert len(b2.atoms[0][1]) == 1
        assert b1.atoms[0][0] == b2.atoms[0][0]

    def test_max_concurrent_admission(self):
        s = NoShareScheduler(max_concurrent=1)
        qa, subs_a = make_query(0, [atom_center(0, 0, 0), atom_center(1, 0, 0)])
        qb, subs_b = make_query(1, [atom_center(2, 0, 0)])
        s.on_query_arrival(qa, subs_a, 0.0)
        s.on_query_arrival(qb, subs_b, 0.0)
        owners = [s.next_batch(0.0).atoms[0][1][0].query.query_id for _ in range(3)]
        assert owners == [0, 0, 1]  # qb admitted only after qa drains

    def test_validation(self):
        with pytest.raises(ValueError):
            NoShareScheduler(max_concurrent=0)


class TestLifeRaft:
    def test_forced_single_atom_config(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        assert s.config.batch_size == 1
        assert not s.config.adaptive_alpha
        assert s.config.two_level is False

    def test_co_schedules_same_atom(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        qa, subs_a = make_query(0, [atom_center(0, 0, 0)])
        qb, subs_b = make_query(1, [atom_center(0, 0, 0)])
        s.on_query_arrival(qa, subs_a, 0.0)
        s.on_query_arrival(qb, subs_b, 0.0)
        batch = s.next_batch(1.0)
        assert batch.n_atoms == 1
        assert len(batch.atoms[0][1]) == 2  # both sub-queries in one pass

    def test_contention_order(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        q_small, subs_small = make_query(0, [atom_center(0, 0, 0)] * 2)
        q_big, subs_big = make_query(1, [atom_center(1, 0, 0)] * 50)
        s.on_query_arrival(q_small, subs_small, 0.0)
        s.on_query_arrival(q_big, subs_big, 0.0)
        batch = s.next_batch(1.0)
        assert batch.atoms[0][1][0].query.query_id == 1  # larger queue first

    def test_arrival_order_alpha_one(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=1.0)
        q_old, subs_old = make_query(0, [atom_center(0, 0, 0)] * 2)
        q_new, subs_new = make_query(1, [atom_center(1, 0, 0)] * 50)
        s.on_query_arrival(q_old, subs_old, 0.0)
        s.on_query_arrival(q_new, subs_new, 5.0)
        batch = s.next_batch(10.0)
        assert batch.atoms[0][1][0].query.query_id == 0  # oldest first

    def test_name_encodes_alpha(self):
        assert "alpha=0" in LifeRaftScheduler(SPEC, COST, alpha=0.0).name

    def test_empty_queue_returns_none(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=0.0)
        assert s.next_batch(0.0) is None
        assert not s.has_pending()


def exact_choice(s, now):
    """Today's uncached Eq. 2 decision: the lowest atom id among the
    maxima of the full aged metric."""
    ids, _, _, u_e = s._metric_view(now)
    return int(ids[np.flatnonzero(u_e == u_e.max())].min())


def drive_against_formula(s, now, step=1.0):
    """Drain every atom, checking each decision against the formula;
    returns ``(atom, cached_after)`` per decision."""
    trail = []
    while s.has_pending():
        expected = exact_choice(s, now)
        batch = s.next_batch(now)
        assert batch.atoms[0][0] == expected
        trail.append((expected, s._tie_ver != -1))
        now += step
    return trail


class TestLifeRaftTieCache:
    """The proof-gated tie-set cache refuses every case it cannot prove."""

    def arrive(self, s, qid, center, n_positions, now):
        q, subs = make_query(qid, [center] * n_positions)
        s.on_query_arrival(q, subs, now)
        return subs[0].atom_id

    def test_rounding_collapsed_alpha_zero_tie_is_not_cached(self):
        # Cached atoms have U_t = W / (T_m * W), which rounds to one of
        # two adjacent floats depending on W.
        ws = np.arange(1, 200)
        u = workload_throughput(ws, np.ones(ws.size, dtype=bool), COST)
        w_low = int(ws[u < u.max()][0])
        w_high = int(ws[u == u.max()][0])
        w_lo = 87  # uncached: subtracting it collapses the two above
        lows = workload_throughput(
            np.array([w_low, w_high, w_lo]), np.array([True, True, False]), COST
        )
        assert lows[0] < lows[1]
        assert lows[0] - lows[2] == lows[1] - lows[2]

        s = LifeRaftScheduler(SPEC, COST, alpha=0.0, time_bound=1e9)
        low = self.arrive(s, 0, atom_center(0, 0, 0), w_low, 0.0)
        high = self.arrive(s, 1, atom_center(1, 0, 0), w_high, 0.0)
        twin = self.arrive(s, 2, atom_center(0, 1, 0), w_high, 0.0)
        self.arrive(s, 3, atom_center(1, 1, 0), w_lo, 0.0)
        for atom in (low, high, twin):
            s.queues.on_cache_insert(atom)
        trail = drive_against_formula(s, 1.0)
        # The lower U_t normalizes to exactly 1.0 and wins the id
        # tie-break; that tie set is not the exact-max set.
        assert trail[0] == (low, False)
        # With it drained the two equal maxima tie honestly: cached.
        assert trail[1] == (high, True)

    def test_alpha_one_failing_margin_is_not_cached(self):
        s = LifeRaftScheduler(SPEC, COST, alpha=1.0, time_bound=1e9)
        self.arrive(s, 0, atom_center(0, 0, 0), 3, 10.0)
        self.arrive(s, 1, atom_center(1, 0, 0), 3, 10.0)
        # 1e-7 behind the argmin pair: inside 2**-40 * (span + 1e9).
        self.arrive(s, 2, atom_center(0, 1, 0), 3, 10.0 + 1e-7)
        self.arrive(s, 3, atom_center(1, 1, 0), 3, 50.0)
        trail = drive_against_formula(s, 60.0)
        assert len(trail) == 4
        assert not any(cached for _, cached in trail)

    @pytest.mark.parametrize("time_bound", [None, 1e9])
    def test_alpha_one_caches_only_with_a_clock_bound(self, time_bound):
        s = LifeRaftScheduler(SPEC, COST, alpha=1.0, time_bound=time_bound)
        self.arrive(s, 0, atom_center(0, 0, 0), 3, 10.0)
        self.arrive(s, 1, atom_center(1, 0, 0), 3, 10.0)
        self.arrive(s, 2, atom_center(0, 1, 0), 3, 20.0)
        self.arrive(s, 3, atom_center(1, 1, 0), 3, 50.0)
        trail = drive_against_formula(s, 60.0)
        assert trail[0][1] is (time_bound is not None)
        if time_bound is None:
            assert not any(cached for _, cached in trail)


class TestJAWSTwoLevel:
    def cfg(self, **kw):
        base = dict(
            alpha=0.0, adaptive_alpha=False, two_level=True, batch_size=3, job_aware=False
        )
        base.update(kw)
        return SchedulerConfig(**base)

    def test_batches_from_single_timestep(self):
        s = JAWSScheduler(SPEC, COST, self.cfg())
        # Two atoms on step 0, one on step 1.
        q0, subs0 = make_query(0, [atom_center(0, 0, 0)] * 5, timestep=0)
        q1, subs1 = make_query(1, [atom_center(1, 0, 0)] * 5, timestep=0)
        q2, subs2 = make_query(2, [atom_center(0, 0, 0)] * 5, timestep=1)
        for q, subs in ((q0, subs0), (q1, subs1), (q2, subs2)):
            s.on_query_arrival(q, subs, 0.0)
        batch = s.next_batch(1.0)
        steps = {a // SPEC.atoms_per_timestep for a, _ in batch.atoms}
        assert len(steps) == 1
        assert batch.n_atoms == 2  # the denser step-0 pair

    def test_batch_in_morton_order(self):
        s = JAWSScheduler(SPEC, COST, self.cfg(batch_size=8))
        positions = [atom_center(x, y, 0) for x in range(3) for y in range(2)]
        q, subs = make_query(0, positions * 4)
        s.on_query_arrival(q, subs, 0.0)
        batch = s.next_batch(1.0)
        ids = [a for a, _ in batch.atoms]
        assert ids == sorted(ids)

    def test_variant_names(self):
        assert JAWSScheduler(SPEC, COST, self.cfg(job_aware=False)).name == "JAWS_1"
        assert (
            JAWSScheduler(SPEC, COST, self.cfg(job_aware=True)).name == "JAWS_2"
        )


class TestJAWSGating:
    def cfg(self):
        return SchedulerConfig(
            alpha=0.0, adaptive_alpha=False, two_level=True, batch_size=4, job_aware=True
        )

    def ordered_job(self, job_id, base_qid, centers, timesteps, user=0):
        queries = []
        for i, (c, ts) in enumerate(zip(centers, timesteps)):
            queries.append(
                Query(
                    query_id=base_qid + i,
                    job_id=job_id,
                    seq=i,
                    user_id=user,
                    op="interp",
                    timestep=ts,
                    positions=np.array([c] * 3, dtype=float),
                )
            )
        return Job(job_id, JobKind.ORDERED, user, 0.0, 1.0, queries)

    def test_identical_jobs_gate_and_release_together(self):
        s = JAWSScheduler(SPEC, COST, self.cfg())
        centers = [atom_center(0, 0, 0), atom_center(1, 0, 0)]
        j1 = self.ordered_job(0, 0, centers, [0, 1])
        j2 = self.ordered_job(1, 10, centers, [0, 1], user=1)
        s.on_job_submitted(j1, 0.0)
        s.on_job_submitted(j2, 0.0)
        # First query of job 1 arrives: held awaiting partner.
        q = j1.queries[0]
        s.on_query_arrival(q, preprocess_query(q, MAPPER), 0.0)
        assert s.next_batch(0.0) is None
        assert s.has_pending()
        assert s.held_count == 1
        # Partner arrives: both release; one batch carries both.
        p = j2.queries[0]
        s.on_query_arrival(p, preprocess_query(p, MAPPER), 0.0)
        batch = s.next_batch(0.0)
        assert batch is not None
        owners = {sq.query.query_id for _, subs in batch.atoms for sq in subs}
        assert owners == {0, 10}

    def test_force_release_valve(self):
        s = JAWSScheduler(SPEC, COST, self.cfg())
        centers = [atom_center(0, 0, 0), atom_center(1, 0, 0)]
        j1 = self.ordered_job(0, 0, centers, [0, 1])
        j2 = self.ordered_job(1, 10, centers, [0, 1], user=1)
        s.on_job_submitted(j1, 0.0)
        s.on_job_submitted(j2, 0.0)
        q = j1.queries[0]
        s.on_query_arrival(q, preprocess_query(q, MAPPER), 0.0)
        assert s.next_batch(0.0) is None
        assert s.force_release(0.0)
        assert s.forced_releases >= 1
        assert s.next_batch(0.0) is not None

    def test_gating_max_lag_releases_stragglers(self):
        cfg = self.cfg().with_(gating_max_lag=1)
        s = JAWSScheduler(SPEC, COST, cfg)
        centers = [atom_center(0, 0, 0), atom_center(1, 0, 0)]
        j1 = self.ordered_job(0, 0, centers, [0, 1])
        j2 = self.ordered_job(1, 10, centers, [0, 1], user=1)
        s.on_job_submitted(j1, 0.0)
        s.on_job_submitted(j2, 0.0)
        q = j1.queries[0]
        s.on_query_arrival(q, preprocess_query(q, MAPPER), 0.0)
        assert s.next_batch(0.0) is None
        # An unrelated query completes; the held query exceeds max lag.
        other, other_subs = make_query(99, [atom_center(3, 3, 3)])
        s.on_query_arrival(other, other_subs, 0.0)
        s.next_batch(0.0)
        s.on_query_complete(other, 1.0)
        assert s.held_count == 0
        assert s.forced_releases == 1

    def test_one_off_queries_bypass_gating(self):
        s = JAWSScheduler(SPEC, COST, self.cfg())
        q, subs = make_query(0, [atom_center(0, 0, 0)])
        s.on_query_arrival(q, subs, 0.0)
        assert s.next_batch(0.0) is not None
