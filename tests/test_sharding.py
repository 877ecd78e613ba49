"""Integration tests: sharded fleet replay, shm lifecycle, pool reuse.

The byte-identity contract itself is property-tested in
:mod:`tests.test_properties_sharding`; this module covers the
mechanical layers around it — process-mode parity with
:func:`repro.cluster.run_cluster`, shared-memory segment lifecycle
(context manager, atexit sweep, worker killed mid-replay), cache-stat
aggregation, and the sweep runner's persistent worker pool.
"""

import hashlib
import json
import os
import signal
import time

import pytest

from repro.cluster import (
    SHARDABLE_NODE_POLICIES,
    ShardPlan,
    ShardedFleetScheduler,
    ShardedFleetSimulator,
    SharedLinkTableView,
    aggregate_cache_stats,
    run_cluster,
    run_sharded,
)
from repro.cluster import sharding as sharding_mod
from repro.scenarios import MMPPArrivals, ScenarioSpec, mixed_fleet, paper_mix


def _digest(log) -> str:
    """Canonical SHA-256 digest of a simulation log."""
    return hashlib.sha256(
        json.dumps(log.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _segment_path(scheduler: ShardedFleetScheduler) -> str:
    """Filesystem path of a scheduler's shared-memory segment."""
    return os.path.join("/dev/shm", scheduler._view.manifest.segment)


@pytest.fixture(scope="module")
def fleet():
    return mixed_fleet(8)


@pytest.fixture(scope="module")
def trace(fleet):
    spec = ScenarioSpec(
        num_jobs=250,
        seed=7,
        arrival=MMPPArrivals(
            quiet_rate=1.0, burst_rate=20.0, quiet_dwell=300.0, burst_dwell=60.0
        ),
        mix=paper_mix(),
        name="shard-test",
    )
    return spec.resolve(fleet.min_gpus_per_server()).build()


@pytest.fixture(scope="module")
def reference_digest(fleet, trace):
    sim = run_cluster(fleet.build(), trace, gpu_policy="preserve")
    return _digest(sim.log)


class TestShardPlan:
    def test_even_partition_covers_everything(self):
        plan = ShardPlan.even(10, 3)
        assert plan.boundaries == (0, 4, 7, 10)
        assert plan.num_shards == 3
        assert plan.num_servers == 10
        assert [plan.size(s) for s in range(3)] == [4, 3, 3]
        assert [plan.start(s) for s in range(3)] == [0, 4, 7]

    def test_more_shards_than_servers_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.even(2, 3)

    def test_non_monotonic_boundaries_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(boundaries=(0, 5, 5, 8))
        with pytest.raises(ValueError):
            ShardPlan(boundaries=(1, 5))

    def test_plan_must_cover_fleet(self, fleet):
        with pytest.raises(ValueError):
            ShardedFleetScheduler(
                fleet, boundaries=(0, 3), mode="inline"
            )


class TestProcessParity:
    def test_process_shards_match_run_cluster(
        self, fleet, trace, reference_digest
    ):
        log = run_sharded(fleet, trace, 3, mode="process")
        assert _digest(log) == reference_digest

    def test_unshardable_node_policy_rejected(self, fleet):
        with pytest.raises(ValueError, match="cannot be sharded"):
            ShardedFleetScheduler(fleet, 2, node_policy="best-score")
        assert "best-score" not in SHARDABLE_NODE_POLICIES

    def test_bad_mode_rejected(self, fleet):
        with pytest.raises(ValueError, match="mode"):
            ShardedFleetScheduler(fleet, 2, mode="thread")

    def test_shards_live_in_distinct_processes(self, fleet):
        with ShardedFleetScheduler(fleet, 2, mode="process") as scheduler:
            pids = scheduler.shard_pids()
            assert len(set(pids)) == 2
            assert os.getpid() not in pids

    def test_oversize_job_message_matches_reference(self, fleet, trace):
        from repro.workloads.jobs import Job, JobFile

        over = JobFile([Job(1, "vgg-16", 99, "ring", True)])
        with ShardedFleetScheduler(fleet, 2, mode="inline") as scheduler:
            sim = ShardedFleetSimulator(scheduler)
            with pytest.raises(ValueError, match="no server can ever host"):
                sim.run(over)

    def test_warm_scheduler_replays_identically(
        self, fleet, trace, reference_digest
    ):
        with ShardedFleetScheduler(fleet, 2, mode="process") as scheduler:
            sim = ShardedFleetSimulator(scheduler)
            first = _digest(sim.run(trace))
            scheduler.check_mirror()
            second = _digest(sim.run(trace))
        assert first == reference_digest
        assert second == reference_digest


class TestSharedMemoryLifecycle:
    def test_context_manager_unlinks_segment(self, fleet):
        servers = fleet.build()
        with SharedLinkTableView.publish(servers) as view:
            path = os.path.join("/dev/shm", view.manifest.segment)
            assert os.path.exists(path)
        assert not os.path.exists(path)

    def test_close_and_unlink_are_idempotent(self, fleet):
        view = SharedLinkTableView.publish(fleet.build())
        view.unlink()
        view.unlink()
        view.close()
        view.close()

    def test_closed_view_rejects_array_access(self, fleet):
        view = SharedLinkTableView.publish(fleet.build())
        with view:
            pass
        with pytest.raises(ValueError, match="closed"):
            _ = view.free_counts

    def test_atexit_sweep_reclaims_leaked_segments(self, fleet):
        view = SharedLinkTableView.publish(fleet.build())
        path = os.path.join("/dev/shm", view.manifest.segment)
        assert os.path.exists(path)
        sharding_mod._atexit_sweep()
        assert not os.path.exists(path)
        assert view not in sharding_mod._LIVE_VIEWS

    def test_scheduler_close_removes_segment(self, fleet):
        scheduler = ShardedFleetScheduler(fleet, 2, mode="process")
        path = _segment_path(scheduler)
        assert os.path.exists(path)
        scheduler.close()
        scheduler.close()  # idempotent
        assert not os.path.exists(path)

    def test_worker_killed_mid_replay_still_unlinks(self, fleet, trace):
        """SIGKILLing a shard worker must not leak the segment."""
        with ShardedFleetScheduler(fleet, 2, mode="process") as scheduler:
            path = _segment_path(scheduler)
            victim = scheduler.shard_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            sim = ShardedFleetSimulator(scheduler)
            with pytest.raises(Exception):
                sim.run(trace)
        assert not os.path.exists(path)


class TestMirrorInvariants:
    def test_check_mirror_detects_corruption(self, fleet, trace):
        with ShardedFleetScheduler(fleet, 2, mode="inline") as scheduler:
            ShardedFleetSimulator(scheduler).run(trace)
            scheduler.check_mirror()
            mirror = scheduler.mirrors[0]
            good = mirror.free_count(0)
            mirror.set_free(0, good - 1)
            with pytest.raises(RuntimeError):
                scheduler.check_mirror()
            scheduler.resync_mirror()
            scheduler.check_mirror()

    def test_check_requires_flushed_state(self, fleet, trace):
        with ShardedFleetScheduler(fleet, 2, mode="inline") as scheduler:
            job = trace.jobs[0]
            shard, local = scheduler.route(job.num_gpus)
            scheduler.dispatch_place(job, shard, local, 0.0)
            with pytest.raises(RuntimeError, match="flushed"):
                scheduler.check_mirror()
            scheduler.flush()
            scheduler.check_mirror()


class TestCacheStatsAggregation:
    def test_counters_sum_and_rate_recomputes(self):
        merged = aggregate_cache_stats(
            [
                {"scan_lookups": 80, "scan_hits": 60, "scan_hit_rate": 0.75},
                {"scan_lookups": 20, "scan_hits": 0, "scan_hit_rate": 0.0},
            ]
        )
        assert merged["scan_lookups"] == 100
        assert merged["scan_hits"] == 60
        assert merged["scan_hit_rate"] == pytest.approx(0.6)

    def test_empty_aggregation(self):
        assert aggregate_cache_stats([]) == {}

    def test_log_carries_per_shard_breakdown(self, fleet, trace):
        log = run_sharded(fleet, trace, 2, mode="inline")
        stats = log.cache_stats
        assert stats["shards"] == 2
        per_shard = stats["per_shard"]
        assert len(per_shard) == 2
        assert stats["measured_bw_lookups"] == sum(
            s["measured_bw_lookups"] for s in per_shard
        )
        # the digest-relevant payload ignores cache_stats entirely
        assert "cache_stats" not in log.to_dict()
