"""Property tests: the cached scan engine vs the batch reference.

The contract the whole PR rests on: under arbitrary place/release
churn across mixed-topology fleets, ``engine="cached"`` makes exactly
the decisions ``engine="batch"`` makes — same servers, same GPUs, same
mappings, bit-identical score floats — while its statistics satisfy
the counter invariants (``hits + misses == lookups``,
``evictions <= misses``) and the allocator's published dirty
sets/bitmasks stay in lockstep with the actual free pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.scan import BatchScan, ScalarGreedy
from repro.allocator.state import AllocationState
from repro.appgraph import patterns
from repro.cluster import MultiServerScheduler
from repro.experiments.spill import ScanSpillStore
from repro.policies.base import AllocationRequest
from repro.policies.greedy import GreedyPolicy
from repro.policies.preserve import PreservePolicy
from repro.policies.scan import CachedScan, MatchTable
from repro.scenarios import FleetSpec
from repro.scoring.memo import ScanCache, pattern_id
from repro.topology.builders import by_name, dgx1_v100


@st.composite
def _churn_script(draw):
    """Random (place?, gpus, pattern, sensitive?) steps for fleet churn."""
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(1, 5),
                st.sampled_from(["ring", "chain", "tree", "star"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return steps


def _request(step, job_id):
    """Build the allocation request of one churn step."""
    _, size, pattern, sensitive = step
    return AllocationRequest(
        pattern=patterns.by_name(pattern, size) if size > 1
        else patterns.by_name("single", 1),
        bandwidth_sensitive=sensitive,
        job_id=job_id,
    )


def _assert_same_placement(a, b, context):
    """Placements must agree exactly, floats included."""
    if a is None or b is None:
        assert a is None and b is None, f"{context}: one engine placed"
        return
    assert a.server_index == b.server_index, context
    assert a.allocation.gpus == b.allocation.gpus, context
    am, bm = a.allocation.match, b.allocation.match
    assert (am is None) == (bm is None), context
    if am is not None:
        assert am.mapping == bm.mapping, context
        assert am.edges == bm.edges, context
    assert dict(a.allocation.scores) == dict(b.allocation.scores), context


#: Mixed fleet: two wirings, with big-basin cloning dgx1-v100 so the
#: cross-name cache partition sharing is exercised under churn.
_FLEET = "dgx1-v100:1,big-basin:1,dgx1-p100:1"


class TestCachedEngineEquivalence:
    @given(steps=_churn_script(), node_policy=st.sampled_from(
        ["first-fit", "pack", "best-score"]
    ))
    @settings(max_examples=30, deadline=None)
    def test_cached_matches_batch_under_mixed_fleet_churn(
        self, steps, node_policy
    ):
        fleet = FleetSpec.parse(_FLEET)
        cached = MultiServerScheduler(
            fleet.build(), node_policy=node_policy, engine="cached"
        )
        batch = MultiServerScheduler(
            fleet.build(), node_policy=node_policy, engine="batch"
        )
        live = []
        for i, step in enumerate(steps):
            if step[0]:
                pc = cached.try_place(_request(step, i))
                pb = batch.try_place(_request(step, i))
                _assert_same_placement(pc, pb, f"step {i}: {step}")
                if pc is not None:
                    live.append(i)
            elif live:
                job = live.pop(0)
                sc, gc = cached.release(job)
                sb, gb = batch.release(job)
                assert (sc, gc) == (sb, gb)
            for engine in cached.engines:
                engine.state.check_invariants()
        stats = cached.scan_cache.stats
        assert stats.hits + stats.misses == stats.lookups
        assert stats.evictions <= stats.misses
        assert batch.scan_cache is None

    @given(steps=_churn_script())
    @settings(max_examples=20, deadline=None)
    def test_stats_invariants_hold_even_when_evicting(self, steps):
        # A two-entry cache forces constant eviction churn; decisions
        # must still match the batch engine exactly.
        fleet = FleetSpec.parse(_FLEET)
        tiny = ScanCache(capacity=2)
        cached = MultiServerScheduler(
            fleet.build(), engine="cached", scan_cache=tiny
        )
        batch = MultiServerScheduler(fleet.build(), engine="batch")
        live = []
        for i, step in enumerate(steps):
            if step[0]:
                pc = cached.try_place(_request(step, i))
                pb = batch.try_place(_request(step, i))
                _assert_same_placement(pc, pb, f"step {i}: {step}")
                if pc is not None:
                    live.append(i)
            elif live:
                job = live.pop(0)
                cached.release(job)
                batch.release(job)
            assert len(tiny) <= 2
            stats = tiny.stats
            assert stats.hits + stats.misses == stats.lookups
            assert stats.evictions <= stats.misses

    def test_fleet_scan_cache_is_shared_across_identically_wired_servers(self):
        # Two big-basin/DGX-1V clones: placing the same pattern on an
        # idle server of each must scan once and hit once.
        fleet = FleetSpec.parse("dgx1-v100:1,big-basin:1")
        scheduler = MultiServerScheduler(fleet.build(), node_policy="spread")
        r1 = _request((True, 3, "ring", True), "a")
        r2 = _request((True, 3, "ring", True), "b")
        p1 = scheduler.try_place(r1)
        p2 = scheduler.try_place(r2)
        assert {p1.server_index, p2.server_index} == {0, 1}
        assert p1.allocation.gpus == p2.allocation.gpus
        stats = scheduler.scan_cache.stats
        assert (stats.lookups, stats.hits, stats.misses) == (2, 1, 1)


# ---------------------------------------------------------------------- #
# per-wiring match tables
# ---------------------------------------------------------------------- #
def _tables(cache):
    """The match tables a cache holds in its aux side-car."""
    return [v for v in cache.aux.values() if isinstance(v, MatchTable)]


class TestMatchTables:
    def test_spill_rehydrated_entry_rebuilds_through_the_cache_table(
        self, tmp_path
    ):
        hw = dgx1_v100()
        pattern = patterns.ring(3)
        free = frozenset(hw.gpus[1:7])
        request = AllocationRequest(pattern, bandwidth_sensitive=True)
        source = ScanCache()
        spilled = PreservePolicy(cache=source).allocate(request, hw, free)
        ScanSpillStore(str(tmp_path)).spill(source)

        warmed = ScanCache()
        assert ScanSpillStore(str(tmp_path)).load(warmed) == 1
        # A spilled token is served from the winner memo: no table.
        again = PreservePolicy(cache=warmed).allocate(request, hw, free)
        assert again.gpus == spilled.gpus
        assert _tables(warmed) == []
        # A novel token restricts this cache's (fresh) table.
        got = GreedyPolicy(cache=warmed).allocate(request, hw, free)
        want = ScalarGreedy().allocate(request, hw, free)
        assert (got.gpus, got.match, dict(got.scores)) == (
            want.gpus, want.match, dict(want.scores)
        )
        table = warmed.aux[("match-table", hw.topology_hash, pattern_id(pattern))]
        (entry,) = warmed.entries()
        mask = warmed.free_mask(hw, free)
        np.testing.assert_array_equal(entry.value, table.restrict(mask))
        assert BatchScan(table, entry.value, mask).verts == tuple(sorted(free))

    def test_clear_drops_tables_and_caches_never_share_one(self):
        hw = dgx1_v100()
        pattern = patterns.ring(3)
        a, b = CachedScan(), CachedScan()
        a.entry(pattern, hw, hw.gpus)
        b.entry(pattern, hw, hw.gpus)
        table_a, table_b = a.table(pattern, hw), b.table(pattern, hw)
        assert table_a is not table_b
        assert _tables(a.cache) == [table_a]
        assert _tables(b.cache) == [table_b]
        a.cache.clear()
        assert _tables(a.cache) == []
        assert a.table(pattern, hw) is not table_a
        assert _tables(b.cache) == [table_b]

    def test_one_table_per_wiring_and_pattern_across_a_fleet(self):
        # Identically wired servers and every free set share one table.
        fleet = FleetSpec.parse("dgx1-v100:1,big-basin:1,dgx1-p100:1")
        scheduler = MultiServerScheduler(fleet.build(), node_policy="spread")
        for i in range(6):
            scheduler.try_place(_request((True, 3, "ring", True), i))
        tables = _tables(scheduler.scan_cache)
        assert len(tables) == 2
        assert {t.verts for t in tables} == {dgx1_v100().gpus}


# ---------------------------------------------------------------------- #
# dirty-set / bitmask publication
# ---------------------------------------------------------------------- #
class TestDirtySetPublication:
    @given(steps=_churn_script())
    @settings(max_examples=40, deadline=None)
    def test_drained_dirty_sets_cover_exactly_the_touched_gpus(self, steps):
        state = AllocationState(dgx1_v100())
        live = []
        state.drain_dirty()
        for i, step in enumerate(steps):
            if step[0] and state.num_free >= step[1]:
                gpus = state.free_sorted[: step[1]]
                state.allocate(i, gpus)
                live.append((i, gpus))
                assert state.drain_dirty() == frozenset(gpus)
            elif live:
                job, gpus = live.pop(0)
                state.release(job)
                assert state.drain_dirty() == frozenset(gpus)
            assert state.drain_dirty() == frozenset()
            state.check_invariants()

    def test_reset_marks_held_gpus_dirty(self):
        hw = dgx1_v100()
        state = AllocationState(hw)
        state.allocate("a", hw.gpus[:3])
        state.drain_dirty()
        state.reset()
        assert state.drain_dirty() == frozenset(hw.gpus[:3])
        assert state.free_bitmask == (1 << hw.num_gpus) - 1

    def test_bitmask_tracks_every_mutation(self):
        hw = by_name("dgx2")
        state = AllocationState(hw)
        full = (1 << hw.num_gpus) - 1
        assert state.free_bitmask == full
        state.allocate("a", hw.gpus[:4])
        assert state.free_bitmask == full ^ 0b1111
        state.allocate("b", hw.gpus[6:8])
        state.release("a")
        assert state.free_bitmask == full ^ (0b11 << 6)
        state.release("b")
        assert state.free_bitmask == full
