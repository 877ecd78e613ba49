"""Unit and integration tests for the multi-server cluster extension."""

import pytest

from repro.appgraph import patterns
from repro.cluster import MultiServerScheduler, run_cluster
from repro.policies.base import AllocationRequest
from repro.topology.builders import dgx1_v100, summit_node
from repro.workloads.generator import generate_job_file
from repro.workloads.jobs import Job, JobFile


def _req(k, job_id, sensitive=True):
    return AllocationRequest(
        pattern=patterns.ring(k), bandwidth_sensitive=sensitive, job_id=job_id
    )


class TestScheduler:
    def test_requires_servers_and_job_ids(self):
        with pytest.raises(ValueError):
            MultiServerScheduler([])
        sched = MultiServerScheduler([dgx1_v100()])
        with pytest.raises(ValueError, match="job_id"):
            sched.try_place(AllocationRequest(pattern=patterns.ring(2)))

    def test_unknown_node_policy(self):
        with pytest.raises(ValueError, match="unknown node policy"):
            MultiServerScheduler([dgx1_v100()], node_policy="random")

    def test_first_fit_prefers_first_server(self):
        sched = MultiServerScheduler(
            [dgx1_v100(), dgx1_v100()], node_policy="first-fit"
        )
        placement = sched.try_place(_req(2, "a"))
        assert placement.server_index == 0

    def test_pack_fills_busy_server_first(self):
        sched = MultiServerScheduler(
            [dgx1_v100(), dgx1_v100()], node_policy="pack"
        )
        sched.try_place(_req(4, "warm"))  # server 0 now has 4 free
        placement = sched.try_place(_req(3, "b"))
        assert placement.server_index == 0  # fewest free GPUs wins

    def test_spread_balances(self):
        sched = MultiServerScheduler(
            [dgx1_v100(), dgx1_v100()], node_policy="spread"
        )
        sched.try_place(_req(4, "warm"))
        placement = sched.try_place(_req(3, "b"))
        assert placement.server_index == 1  # most free GPUs wins

    def test_best_score_picks_better_topology(self):
        """With a Summit node (dense double links) and a DGX, a 3-GPU
        sensitive job should land on the Summit triple."""
        sched = MultiServerScheduler(
            [dgx1_v100(), summit_node()], node_policy="best-score"
        )
        placement = sched.try_place(_req(3, "a"))
        assert placement.server_index == 1

    def test_release_returns_to_owner(self):
        sched = MultiServerScheduler([dgx1_v100(), dgx1_v100()])
        sched.try_place(_req(3, "a"))
        idx, gpus = sched.release("a")
        assert idx == 0
        assert len(gpus) == 3
        assert sched.total_free == sched.total_gpus

    def test_release_unknown(self):
        sched = MultiServerScheduler([dgx1_v100()])
        with pytest.raises(KeyError):
            sched.release("ghost")

    def test_spills_to_second_server(self):
        sched = MultiServerScheduler([dgx1_v100(), dgx1_v100()])
        sched.try_place(_req(5, "big"))
        placement = sched.try_place(_req(5, "second"))
        assert placement.server_index == 1

    def test_none_when_cluster_full(self):
        sched = MultiServerScheduler([summit_node()])
        sched.try_place(_req(5, "a"))
        assert sched.try_place(_req(3, "b")) is None

    def test_oversize_everywhere(self):
        sched = MultiServerScheduler([summit_node()])
        assert not sched.can_ever_fit(_req(8, "x"))


class TestClusterSimulation:
    def test_all_jobs_complete(self):
        servers = [dgx1_v100(), dgx1_v100()]
        trace = generate_job_file(50, seed=5)
        sim = run_cluster(servers, trace)
        assert len(sim.log) == 50
        assert sum(sim.jobs_per_server().values()) == 50

    def test_oversize_job_detected(self):
        servers = [summit_node()]
        trace = JobFile([Job(1, "vgg-16", 8, "ring", True)])
        with pytest.raises(ValueError):
            run_cluster(servers, trace)

    def test_more_servers_shorter_makespan(self):
        trace = generate_job_file(60, seed=9)
        one = run_cluster([dgx1_v100()], trace)
        two = run_cluster([dgx1_v100(), dgx1_v100()], trace)
        assert two.log.makespan < one.log.makespan

    def test_no_cross_server_gpu_conflicts(self):
        """Concurrent jobs on the same server hold disjoint GPUs."""
        servers = [dgx1_v100(), dgx1_v100()]
        sim = run_cluster(servers, generate_job_file(40, seed=2))
        by_server = {}
        for cr in sim.placements:
            by_server.setdefault(cr.server_index, []).append(cr.record)
        for records in by_server.values():
            for i, a in enumerate(records):
                for b in records[i + 1 :]:
                    overlap_time = (
                        b.start_time < a.finish_time
                        and a.start_time < b.finish_time
                    )
                    if overlap_time:
                        assert not (set(a.allocation) & set(b.allocation))

    def test_node_policies_run(self):
        trace = generate_job_file(30, seed=4)
        for node_policy in ("first-fit", "pack", "spread", "best-score"):
            sim = run_cluster(
                [dgx1_v100(), summit_node()], trace, node_policy=node_policy
            )
            assert len(sim.log) == 30


class TestCandidateIndexCapacity:
    """The satellite fix: set_free validates against server capacity."""

    def _index(self):
        from repro.cluster.scheduler import CandidateServerIndex

        return CandidateServerIndex([3, 8], capacities=[4, 8])

    def test_negative_free_still_rejected(self):
        index = self._index()
        with pytest.raises(ValueError, match="negative free count"):
            index.set_free(0, -1)

    def test_free_above_capacity_rejected_same_shape(self):
        index = self._index()
        with pytest.raises(
            ValueError, match="free count 5 exceeds capacity 4 for server 0"
        ):
            index.set_free(0, 5)
        # the failed update must not have corrupted the index
        assert index.free_count(0) == 3
        index.check([3, 8])

    def test_free_at_capacity_is_fine(self):
        index = self._index()
        index.set_free(0, 4)
        assert index.free_count(0) == 4
        assert index.capacity(0) == 4

    def test_construction_validates_too(self):
        from repro.cluster.scheduler import CandidateServerIndex

        with pytest.raises(ValueError, match="exceeds capacity"):
            CandidateServerIndex([9], capacities=[8])
        with pytest.raises(ValueError, match="negative free count"):
            CandidateServerIndex([-1], capacities=[8])
        with pytest.raises(ValueError, match="capacities"):
            CandidateServerIndex([1, 2], capacities=[8])

    def test_default_capacities_are_the_initial_counts(self):
        from repro.cluster.scheduler import CandidateServerIndex

        index = CandidateServerIndex([2, 5])
        with pytest.raises(ValueError, match="exceeds capacity"):
            index.set_free(0, 3)

    def test_scheduler_passes_true_capacities(self):
        sched = MultiServerScheduler([dgx1_v100(), summit_node()])
        index = sched.candidate_index
        assert index.capacity(0) == 8
        assert index.capacity(1) == summit_node().num_gpus


class TestFleetScanCache:
    def test_engines_share_one_cache(self):
        sched = MultiServerScheduler([dgx1_v100(), dgx1_v100()])
        caches = {id(e.policy.scan_cache) for e in sched.engines}
        assert caches == {id(sched.scan_cache)}

    def test_batch_engine_has_no_cache(self):
        sched = MultiServerScheduler([dgx1_v100()], engine="batch")
        assert sched.scan_cache is None
        assert sched.scan_cache_stats() is None

    def test_cache_stats_surface_in_simulation_log(self):
        trace = generate_job_file(30, seed=11)
        sim = run_cluster([dgx1_v100(), dgx1_v100()], trace)
        stats = sim.log.cache_stats
        assert stats is not None
        assert stats["scan_lookups"] > 0
        assert stats["scan_hits"] + stats["scan_misses"] == stats["scan_lookups"]
        # telemetry stays out of the serialised log (byte-identity)
        assert "cache_stats" not in sim.log.to_dict()

    def test_engine_parameter_is_bit_identical_end_to_end(self):
        import json

        trace = generate_job_file(40, seed=12)
        servers = [dgx1_v100(), summit_node()]
        logs = {
            engine: run_cluster(servers, trace, engine=engine).log.to_dict()
            for engine in ("cached", "batch")
        }
        assert json.dumps(logs["cached"], sort_keys=True) == json.dumps(
            logs["batch"], sort_keys=True
        )

    def test_external_cache_stays_warm_across_replays(self):
        from repro.scoring.memo import ScanCache

        trace = generate_job_file(25, seed=13)
        cache = ScanCache()
        run_cluster([dgx1_v100()], trace, scan_cache=cache)
        cold_misses = cache.stats.misses
        sim = run_cluster([dgx1_v100()], trace, scan_cache=cache)
        assert cache.stats.misses == cold_misses  # fully warm re-run
        # The shared cache's decision memo answers recurring placements
        # before the scan cache is even consulted, so a warm replay
        # makes few (possibly zero) scan lookups — but every lookup it
        # does make must hit.
        stats = sim.log.cache_stats
        assert stats["scan_misses"] == 0
        if stats["scan_lookups"]:
            assert stats["scan_hit_rate"] == 1.0


class TestPolicyInstances:
    """``gpu_policy`` may be an instance; decisions stay keyed soundly."""

    @pytest.fixture(scope="class")
    def refit(self):
        from repro.scoring.regression import fit_for_hardware

        model, _, _ = fit_for_hardware(dgx1_v100())
        return model

    @staticmethod
    def _log(policy, model, trace):
        from repro.cluster import MultiServerSimulator

        sim = MultiServerSimulator([dgx1_v100()], gpu_policy=policy, model=model)
        return sim.run(trace).to_dict()

    def test_instance_brings_its_own_cache(self):
        from repro.policies.registry import make_policy

        policy = make_policy("preserve")
        sched = MultiServerScheduler([dgx1_v100(), dgx1_v100()], gpu_policy=policy)
        assert sched.scan_cache is policy.scan_cache
        assert {id(e.policy) for e in sched.engines} == {id(policy)}
        baseline = MultiServerScheduler([dgx1_v100()], gpu_policy=make_policy("baseline"))
        assert baseline.scan_cache is None

    def test_models_of_shared_cache_instances_do_not_mix(self, refit):
        """Two Preserve instances on one cache, annotated by one model,
        must each replay as they do on a private cache."""
        from repro.policies.preserve import PreservePolicy
        from repro.scoring.effective import PAPER_MODEL
        from repro.scoring.memo import ScanCache

        trace = generate_job_file(60, seed=3, max_gpus=5)
        models = {"paper": PAPER_MODEL, "refit": refit}
        private = {
            name: self._log(PreservePolicy(model), refit, trace)
            for name, model in models.items()
        }
        assert private["paper"] != private["refit"]  # the case has teeth
        for order in (("paper", "refit"), ("refit", "paper")):
            cache = ScanCache()
            for name in order:
                policy = PreservePolicy(models[name], cache=cache)
                assert self._log(policy, refit, trace) == private[name]
