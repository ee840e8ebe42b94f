"""Tests for the buffer cache container (policy-agnostic behaviour)."""

import pytest

from repro.cache.lru import LRUPolicy
from repro.storage.buffer import BufferCache


def make(capacity=3):
    return BufferCache(capacity, LRUPolicy())


class TestResidency:
    def test_miss_then_hit(self):
        cache = make()
        assert cache.access(1, 0.0) is False
        assert cache.access(1, 1.0) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_capacity_respected(self):
        cache = make(capacity=2)
        for a in range(5):
            cache.access(a, float(a))
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BufferCache(0, LRUPolicy())

    def test_contains(self):
        cache = make()
        cache.access(7, 0.0)
        assert 7 in cache
        assert 8 not in cache

    def test_resident_atoms_snapshot(self):
        cache = make()
        cache.access(1, 0.0)
        cache.access(2, 0.0)
        assert cache.resident_atoms() == frozenset({1, 2})


class TestListeners:
    def test_insert_evict_callbacks(self):
        cache = make(capacity=1)
        inserted, evicted = [], []
        cache.add_listener(on_insert=inserted.append, on_evict=evicted.append)
        cache.access(1, 0.0)
        cache.access(2, 1.0)
        assert inserted == [1, 2]
        assert evicted == [1]

    def test_drop(self):
        cache = make()
        evicted = []
        cache.add_listener(on_evict=evicted.append)
        cache.access(1, 0.0)
        cache.access(2, 0.0)
        cache.drop([1, 99])
        assert 1 not in cache
        assert evicted == [1]
        assert cache.stats.evictions == 1


class TestInvariants:
    def test_lru_eviction_order(self):
        cache = make(capacity=2)
        cache.access(1, 0.0)
        cache.access(2, 1.0)
        cache.access(1, 2.0)  # refresh 1
        cache.access(3, 3.0)  # evicts 2
        assert 1 in cache and 3 in cache and 2 not in cache
