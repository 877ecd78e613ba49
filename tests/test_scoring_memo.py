"""Unit tests for the content-addressed scan cache (repro.scoring.memo)."""

import pytest

from reference.scan import BatchScan, batch_scan
from repro.appgraph import patterns
from repro.appgraph.application import ApplicationGraph
from repro.policies.scan import CachedScan
from repro.scoring.memo import (
    DEFAULT_CAPACITY,
    CacheEntry,
    CacheStats,
    ScanCache,
    pattern_id,
)
from repro.topology.builders import (
    big_basin,
    by_name,
    dgx1_p100,
    dgx1_v100,
    p3dn,
)


# ---------------------------------------------------------------------- #
# keys
# ---------------------------------------------------------------------- #
class TestKeys:
    def test_pattern_id_is_structural_not_nominal(self):
        ring = patterns.ring(4)
        renamed = ApplicationGraph("other-name", 4, ring.edges)
        assert pattern_id(ring) == pattern_id(renamed)
        assert pattern_id(ring) != pattern_id(patterns.chain(4))
        assert pattern_id(patterns.ring(3)) != pattern_id(patterns.ring(4))

    def test_identically_wired_topologies_share_keys(self):
        # big-basin and p3dn are DGX-1V clones: one cache partition.
        cache = ScanCache()
        pattern = patterns.ring(3)
        mask = cache.free_mask(dgx1_v100(), dgx1_v100().gpus)
        keys = {
            cache.key(hw, pattern, mask)
            for hw in (dgx1_v100(), big_basin(), p3dn())
        }
        assert len(keys) == 1
        assert cache.key(dgx1_p100(), pattern, mask) not in keys

    def test_free_mask_follows_sorted_gpu_positions(self):
        hw = dgx1_v100()
        cache = ScanCache()
        assert cache.free_mask(hw, hw.gpus) == (1 << hw.num_gpus) - 1
        assert cache.free_mask(hw, []) == 0
        lowest = cache.free_mask(hw, [hw.gpus[0]])
        assert lowest == 1
        assert cache.free_mask(hw, [hw.gpus[3]]) == 1 << 3
        # order of the collection is irrelevant
        assert cache.free_mask(hw, reversed(hw.gpus)) == (
            cache.free_mask(hw, hw.gpus)
        )

    def test_free_mask_matches_allocation_state_bitmask(self):
        from repro.allocator.state import AllocationState

        hw = dgx1_v100()
        cache = ScanCache()
        state = AllocationState(hw)
        assert state.free_bitmask == cache.free_mask(hw, state.free_sorted)
        state.allocate("a", hw.gpus[2:5])
        assert state.free_bitmask == cache.free_mask(hw, state.free_sorted)
        state.release("a")
        assert state.free_bitmask == cache.free_mask(hw, state.free_sorted)


# ---------------------------------------------------------------------- #
# the LRU store
# ---------------------------------------------------------------------- #
class TestScanCache:
    def test_default_capacity(self):
        assert ScanCache().capacity == DEFAULT_CAPACITY

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ScanCache(capacity=0)
        with pytest.raises(ValueError):
            ScanCache(capacity=-3)

    def test_lookup_miss_then_hit(self):
        cache = ScanCache()
        key = ("topo", (2, ((0, 1),)), 0b11)
        assert cache.lookup(key) is None
        entry = cache.insert(key, "scan-value")
        assert isinstance(entry, CacheEntry)
        hit = cache.lookup(key)
        assert hit is entry
        assert hit.value == "scan-value"
        stats = cache.stats
        assert (stats.lookups, stats.hits, stats.misses) == (2, 1, 1)

    def test_lru_eviction_order_and_stats(self):
        cache = ScanCache(capacity=2)
        k1, k2, k3 = ("t", "p", 1), ("t", "p", 2), ("t", "p", 3)
        cache.insert(k1, 1)
        cache.insert(k2, 2)
        cache.lookup(k1)  # refresh k1 → k2 becomes LRU
        cache.insert(k3, 3)
        assert k2 not in cache
        assert k1 in cache and k3 in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_invalidate_and_clear(self):
        cache = ScanCache()
        key = ("t", "p", 7)
        cache.insert(key, object())
        assert cache.invalidate(key)
        assert not cache.invalidate(key)
        cache.insert(key, object())
        cache.clear()
        assert len(cache) == 0
        assert key not in cache

    def test_stats_invariants_and_hit_rate(self):
        cache = ScanCache(capacity=1)
        for i in range(5):
            key = ("t", "p", i % 2)
            if cache.lookup(key) is None:
                cache.insert(key, i)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.lookups
        assert stats.evictions <= stats.misses
        assert 0.0 <= stats.hit_rate <= 1.0
        payload = stats.as_dict()
        assert payload["lookups"] == stats.lookups
        assert payload["hit_rate"] == stats.hit_rate
        assert CacheStats().hit_rate == 0.0

    def test_keys_in_lru_order(self):
        cache = ScanCache()
        cache.insert(("t", "p", 1), 1)
        cache.insert(("t", "p", 2), 2)
        cache.lookup(("t", "p", 1))
        assert cache.keys() == (("t", "p", 2), ("t", "p", 1))


# ---------------------------------------------------------------------- #
# winner memoization
# ---------------------------------------------------------------------- #
class TestWinners:
    def test_winner_computed_once_per_token(self):
        entry = CacheEntry(key=("t", "p", 1), value=10)
        calls = []

        def compute(value):
            calls.append(value)
            return value * 2

        assert entry.winner("obj", compute) == 20
        assert entry.winner("obj", compute) == 20
        assert len(calls) == 1

    def test_winner_tokens_are_independent(self):
        entry = CacheEntry(key=("t", "p", 1), value=10)
        assert entry.winner(("a",), lambda v: v + 1) == 11
        assert entry.winner(("b",), lambda v: v + 2) == 12
        assert entry.winners == {("a",): 11, ("b",): 12}


# ---------------------------------------------------------------------- #
# the CachedScan front-end
# ---------------------------------------------------------------------- #
class TestCachedScan:
    def test_entry_value_matches_fresh_batch_scan(self):
        import numpy as np

        hw = dgx1_v100()
        pattern = patterns.ring(3)
        cached = CachedScan()
        entry = cached.entry(pattern, hw, hw.gpus)
        mask = cached.cache.free_mask(hw, hw.gpus)
        value = BatchScan(cached.table(pattern, hw), entry.value, mask)
        fresh = batch_scan(pattern, hw, hw.gpus)
        np.testing.assert_array_equal(value.agg_bw, fresh.agg_bw)
        np.testing.assert_array_equal(value.induced_census, fresh.induced_census)
        assert value.verts == fresh.verts

    def test_repeat_entry_is_a_hit_returning_same_object(self):
        hw = dgx1_v100()
        pattern = patterns.ring(3)
        cached = CachedScan()
        first = cached.entry(pattern, hw, hw.gpus)
        second = cached.entry(pattern, hw, hw.gpus)
        assert first is second
        assert cached.cache.stats.hits == 1

    def test_explicit_free_mask_must_match_available(self):
        hw = dgx1_v100()
        pattern = patterns.ring(3)
        cached = CachedScan()
        mask = cached.cache.free_mask(hw, hw.gpus)
        a = cached.entry(pattern, hw, hw.gpus, free_mask=mask)
        b = cached.entry(pattern, hw, hw.gpus)
        assert a is b

    def test_infeasible_pattern_returns_none_and_never_caches(self):
        hw = by_name("dgx1-v100")
        pattern = patterns.ring(9)  # more slots than GPUs
        cached = CachedScan()
        assert cached.entry(pattern, hw, hw.gpus) is None
        assert len(cached.cache) == 0

    def test_shared_cache_across_front_ends(self):
        shared = ScanCache()
        hw = dgx1_v100()
        pattern = patterns.ring(3)
        CachedScan(shared).entry(pattern, hw, hw.gpus)
        CachedScan(shared).entry(pattern, hw, hw.gpus)
        assert shared.stats.hits == 1
        assert len(shared) == 1
