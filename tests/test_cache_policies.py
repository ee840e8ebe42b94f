"""Tests for the replacement policies: LRU, LRU-K, SLRU, URC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import available_policies, make_policy
from repro.cache.lruk import LRUKPolicy
from repro.cache.slru import SLRUPolicy
from repro.cache.urc import URCPolicy
from repro.config import CacheConfig, EngineConfig
from repro.experiments import table1
from repro.grid.dataset import DatasetSpec
from repro.parallel import RunSpec
from repro.storage.buffer import BufferCache
from repro.workload.generator import WorkloadParams, generate_trace


class TestRegistry:
    def test_all_registered(self):
        assert set(available_policies()) >= {"lru", "lruk", "slru", "urc"}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("belady")

    def test_kwargs_forwarded(self):
        policy = make_policy("slru", capacity=100, protected_fraction=0.1)
        assert isinstance(policy, SLRUPolicy)


class TestLRUK:
    def test_validation(self):
        with pytest.raises(ValueError):
            LRUKPolicy(k=0)

    def test_prefers_single_reference_victims(self):
        """Scan resistance: an atom referenced once goes before an atom
        referenced K times, regardless of recency."""
        cache = BufferCache(3, LRUKPolicy(k=2))
        cache.access(1, 0.0)
        cache.access(1, 1.0)  # atom 1 has full K-history
        cache.access(2, 2.0)
        cache.access(2, 3.0)  # atom 2 has full K-history
        cache.access(3, 4.0)  # atom 3: one reference (most recent!)
        cache.access(4, 5.0)  # forces eviction
        assert 3 not in cache
        assert 1 in cache and 2 in cache and 4 in cache

    def test_kth_distance_ordering(self):
        cache = BufferCache(2, LRUKPolicy(k=2))
        cache.access(1, 0.0)
        cache.access(1, 10.0)  # kth ref at t=0
        cache.access(2, 1.0)
        cache.access(2, 2.0)  # kth ref at t=1
        cache.access(3, 20.0)  # evict: both have K refs; 1's kth (0) < 2's (1)
        assert 1 not in cache and 2 in cache

    def test_retained_history_survives_eviction(self):
        policy = LRUKPolicy(k=2, retained_history=10)
        cache = BufferCache(2, policy)
        cache.access(1, 0.0)
        cache.access(1, 1.0)
        cache.access(2, 2.0)
        cache.access(3, 3.0)  # evicts 2 (short history)
        assert 2 not in cache
        cache.access(2, 4.0)  # re-fetch: history {2.0} retained -> now full
        cache.access(4, 5.0)  # someone must go; 3 has shortest history
        assert 3 not in cache

    def test_victim_on_empty_raises(self):
        with pytest.raises(RuntimeError):
            LRUKPolicy().choose_victim()


class TestSLRU:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLRUPolicy(capacity=0)
        with pytest.raises(ValueError):
            SLRUPolicy(capacity=10, protected_fraction=1.5)

    def test_victims_come_from_probation(self):
        policy = SLRUPolicy(capacity=4, protected_fraction=0.25)
        cache = BufferCache(4, policy)
        for a in (1, 2, 3):
            cache.access(a, float(a))
        # Atom 1 heavily accessed this run.
        for t in range(5):
            cache.access(1, 10.0 + t)
        cache.run_boundary()  # promotes 1 into protected
        assert policy.protected_size == 1
        cache.access(4, 20.0)
        cache.access(5, 21.0)  # evicts from probation, not atom 1
        assert 1 in cache

    def test_promotion_capacity_bounded(self):
        policy = SLRUPolicy(capacity=10, protected_fraction=0.2)  # 2 slots
        cache = BufferCache(10, policy)
        for a in range(6):
            for _ in range(a + 1):
                cache.access(a, float(a))
        cache.run_boundary()
        assert policy.protected_size <= 2

    def test_demotion_on_new_top_set(self):
        policy = SLRUPolicy(capacity=4, protected_fraction=0.25)  # 1 slot
        cache = BufferCache(4, policy)
        for _ in range(5):
            cache.access(1, 0.0)
        cache.run_boundary()
        assert policy.protected_size == 1
        for _ in range(9):
            cache.access(2, 1.0)
        cache.access(1, 2.0)
        cache.run_boundary()  # 2 displaces 1
        assert policy.protected_size == 1
        cache.access(3, 3.0)
        cache.access(4, 4.0)
        cache.access(5, 5.0)  # evictions hit probation; 2 must survive
        assert 2 in cache

    def test_run_counts_cleared(self):
        policy = SLRUPolicy(capacity=4)
        cache = BufferCache(4, policy)
        cache.access(1, 0.0)
        cache.run_boundary()
        cache.run_boundary()  # no accesses since; should be a no-op
        assert 1 in cache

    def test_rank_updates_count_run_accesses_per_boundary(self):
        policy = SLRUPolicy(capacity=10)
        cache = BufferCache(10, policy)
        for a in (1, 2, 3, 2, 2):
            cache.access(a, 0.0)
        assert policy.rank_updates == 0  # accesses alone rank nothing
        cache.run_boundary()  # ranks the run's 3 distinct atoms
        assert policy.rank_updates == 3
        cache.run_boundary()  # empty run: nothing to rank
        assert policy.rank_updates == 3
        cache.access(4, 1.0)
        cache.run_boundary()
        assert policy.rank_updates == 4


class TestURC:
    def test_lru_fallback_without_utility(self):
        cache = BufferCache(2, URCPolicy())
        cache.access(1, 0.0)
        cache.access(2, 1.0)
        cache.access(3, 2.0)
        assert 1 not in cache  # plain LRU order

    def test_evicts_lowest_utility(self):
        policy = URCPolicy()
        utility = {1: (5.0, 1.0), 2: (0.5, 9.0), 3: (5.0, 2.0)}
        policy.set_utility_fn(lambda a: utility.get(a, (0.0, 0.0)))
        cache = BufferCache(3, policy)
        for a in (1, 2, 3):
            cache.access(a, float(a))
        cache.access(4, 10.0)  # atom 2's time step has lowest mean -> victim
        assert 2 not in cache

    def test_within_timestep_increasing_throughput(self):
        policy = URCPolicy()
        utility = {1: (5.0, 1.0), 3: (5.0, 2.0), 4: (9.0, 0.1)}
        policy.set_utility_fn(lambda a: utility.get(a, (0.0, 0.0)))
        cache = BufferCache(3, policy)
        for a in (1, 3, 4):
            cache.access(a, float(a))
        cache.access(5, 10.0)  # same step mean for 1 and 3: evict lower U_t = 1
        assert 1 not in cache and 3 in cache

    def test_invalidation_forces_recompute(self):
        policy = URCPolicy()
        state = {"v": {1: (1.0, 1.0), 2: (2.0, 2.0)}}
        policy.set_utility_fn(lambda a: state["v"].get(a, (0.0, 0.0)))
        cache = BufferCache(2, policy)
        cache.access(1, 0.0)
        cache.access(2, 1.0)
        # Flip the ranking and invalidate.
        state["v"] = {1: (2.0, 2.0), 2: (1.0, 1.0)}
        policy.invalidate_utilities()
        cache.access(3, 2.0)
        assert 2 not in cache and 1 in cache

    def test_victim_on_empty_raises(self):
        with pytest.raises(RuntimeError):
            URCPolicy().choose_victim()

    def test_rank_updates_count_residents_per_refresh(self):
        policy = URCPolicy()
        policy.set_utility_fn(lambda a: (float(a), 0.0))
        cache = BufferCache(3, policy)
        for a in (1, 2, 3):
            cache.access(a, float(a))
        assert policy.rank_updates == 0  # no victim chosen yet
        cache.access(4, 4.0)  # full: one refresh over the 3 residents
        assert policy.rank_updates == 3
        policy.choose_victim()  # the insert of 4 staled the ranks
        assert policy.rank_updates == 6
        cache.access(2, 5.0)  # a hit keeps ranks valid
        policy.choose_victim()
        policy.choose_victim()
        assert policy.rank_updates == 6
        policy.invalidate_utilities()
        policy.choose_victim()
        assert policy.rank_updates == 9

    def test_lru_fallback_ranks_nothing(self):
        policy = URCPolicy()
        cache = BufferCache(2, policy)
        for a in range(5):
            cache.access(a, float(a))
        assert policy.rank_updates == 0


def test_lruk_ranks_nothing():
    policy = LRUKPolicy()
    cache = BufferCache(2, policy)
    for a in range(5):
        cache.access(a, float(a))
    assert policy.rank_updates == 0


def test_table1_overhead_ordering_urc_above_slru():
    """Table I's overhead column on a small trace: URC re-ranks every
    resident atom per refresh, so it out-counts SLRU per query."""
    trace = generate_trace(
        DatasetSpec.small(n_timesteps=6, atoms_per_axis=4),
        WorkloadParams(n_jobs=15, span=120.0, seed=0),
    )
    rows = {}
    for name in ("slru", "urc"):
        eng = EngineConfig(cache=CacheConfig(capacity_atoms=32, policy=name), run_length=10)
        rows[name] = table1._policy_row(RunSpec(trace, "jaws2", eng))
    slru, urc = (rows[name]["rank_updates_per_qry"] for name in ("slru", "urc"))
    assert 0 < slru < urc


class TestPolicyInvariantsProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["lru", "lruk", "slru", "urc"]),
        st.lists(st.integers(0, 20), min_size=1, max_size=300),
        st.integers(1, 8),
    )
    def test_capacity_and_victim_validity(self, name, accesses, capacity):
        """Any access sequence keeps residency <= capacity, and every
        access after the first to the same atom without interleaved
        eviction is a hit."""
        if name == "slru":
            policy = make_policy(name, capacity=capacity)
        else:
            policy = make_policy(name)
        cache = BufferCache(capacity, policy)
        for t, atom in enumerate(accesses):
            resident_before = atom in cache
            hit = cache.access(atom, float(t))
            assert hit == resident_before
            assert len(cache) <= capacity
            assert atom in cache  # just-accessed atoms are resident
        assert cache.stats.accesses == len(accesses)
