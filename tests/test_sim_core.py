"""Tests for the unified simulation core, its backends and disciplines."""

import pytest

from repro.cluster import MultiServerSimulator, run_cluster
from repro.policies.base import Allocation
from repro.policies.registry import make_policy
from repro.sim.core import PlacementBackend, SimulationCore
from repro.sim.cluster import run_policy
from repro.sim.disciplines import (
    DISCIPLINE_NAMES,
    QueueDiscipline,
    make_discipline,
    register_discipline,
)
from repro.topology.builders import dgx1_v100, summit_node
from repro.workloads.generator import generate_job_file
from repro.workloads.jobs import Job, JobFile


#: The hooks every placement backend must now implement (no fallback).
FLEET_HOOKS = (
    "fail_server",
    "repair_server",
    "drain_server",
    "grow_server",
    "max_active_capacity",
    "server_status",
    "max_free_count",
)


def _timeline(log):
    return [
        (r.job_id, r.start_time, r.finish_time, r.allocation)
        for r in log.records
    ]


class TestSingleMultiParity:
    """A 1-server cluster must replay the single-server simulator exactly."""

    @pytest.mark.parametrize("discipline", DISCIPLINE_NAMES)
    def test_one_server_cluster_matches_single_server(self, dgx, discipline):
        trace = generate_job_file(40, seed=7, max_gpus=5)
        single = run_policy(
            dgx, make_policy("preserve"), trace, scheduling=discipline
        )
        multi = run_cluster(
            [dgx1_v100()],
            trace,
            gpu_policy="preserve",
            node_policy="first-fit",
            scheduling=discipline,
        )
        assert _timeline(single) == _timeline(multi.log)

    def test_no_private_event_loops(self):
        """The dispatch loop lives in the core only (acceptance criterion)."""
        import inspect

        import repro.cluster.simulator as multi_mod
        import repro.sim.cluster as single_mod

        for mod in (single_mod, multi_mod):
            source = inspect.getsource(mod)
            assert "engine.pop" not in source
            assert "_ARRIVAL" not in source


class TestDisciplineRegistry:
    def test_known_names(self):
        assert set(DISCIPLINE_NAMES) >= {
            "fifo",
            "backfill",
            "sjf",
            "easy-backfill",
        }

    def test_aliases(self):
        assert make_discipline("easy").name == "easy-backfill"
        assert make_discipline("shortest-job-first").name == "sjf"
        assert make_discipline("FIFO").name == "fifo"

    def test_unknown_rejected_everywhere(self, dgx):
        with pytest.raises(ValueError):
            make_discipline("lifo")
        with pytest.raises(ValueError):
            run_policy(dgx, make_policy("baseline"), JobFile([]), scheduling="lifo")
        with pytest.raises(ValueError):
            MultiServerSimulator([dgx1_v100()], scheduling="lifo")

    def test_custom_discipline_usable_by_name(self, dgx):
        class ReverseFifo(QueueDiscipline):
            name = "reverse-fifo"

            def schedule(self, core):
                while core.queue:
                    if not core.try_start(core.queue[-1]):
                        return
                    core.queue.pop()

        register_discipline("reverse-fifo", ReverseFifo)
        try:
            trace = generate_job_file(20, seed=3, max_gpus=5)
            log = run_policy(
                dgx, make_policy("baseline"), trace, scheduling="reverse-fifo"
            )
            assert len(log) == 20
        finally:
            from repro.sim.disciplines import DISCIPLINES

            DISCIPLINES.pop("reverse-fifo", None)


class TestMultiServerDisciplines:
    """Multi-server runs get every queue discipline from the shared core."""

    @pytest.mark.parametrize("discipline", DISCIPLINE_NAMES)
    def test_all_jobs_complete(self, discipline):
        servers = [dgx1_v100(), summit_node()]
        trace = generate_job_file(40, seed=5)
        sim = run_cluster(servers, trace, scheduling=discipline)
        assert len(sim.log) == 40
        assert sum(sim.jobs_per_server().values()) == 40

    def test_backfill_starts_small_job_past_blocked_cluster_head(self):
        """Two busy servers block a big head; a later 2-GPU job backfills
        only under the backfill discipline."""
        trace = JobFile(
            [
                Job(1, "vgg-16", 6, "ring", True, 0.0),
                Job(2, "vgg-16", 6, "ring", True, 0.0),
                Job(3, "vgg-16", 5, "ring", True, 1.0),  # head: blocked
                Job(4, "gmm", 2, "single", False, 2.0),
            ]
        )
        servers = [dgx1_v100(), dgx1_v100()]
        fifo = run_cluster(servers, trace, scheduling="fifo")
        back = run_cluster(servers, trace, scheduling="backfill")
        start_fifo = {r.job_id: r.start_time for r in fifo.log.records}
        start_back = {r.job_id: r.start_time for r in back.log.records}
        assert start_fifo[4] > 2.0  # stuck behind the blocked head
        assert start_back[4] == 2.0  # backfilled on arrival

    def test_backfill_helps_makespan_on_cluster(self):
        trace = generate_job_file(60, seed=10)
        servers = [dgx1_v100(), dgx1_v100()]
        fifo = run_cluster(servers, trace, scheduling="fifo")
        back = run_cluster(servers, trace, scheduling="backfill")
        assert back.log.makespan <= fifo.log.makespan * 1.05


class TestShortestJobFirst:
    def test_sjf_orders_by_estimated_runtime(self, dgx):
        """When capacity frees up, the shorter of two queued 5-GPU jobs
        starts first under SJF, in submission order under FIFO."""
        trace = JobFile(
            [
                Job(1, "vgg-16", 8, "ring", True, 0.0),  # occupies everything
                Job(2, "googlenet", 5, "ring", True, 1.0),  # long (≈342 s)
                Job(3, "vgg-16", 5, "ring", True, 2.0),  # short (≈83 s)
            ]
        )
        fifo = run_policy(dgx, make_policy("baseline"), trace)
        sjf = run_policy(
            dgx, make_policy("baseline"), trace, scheduling="sjf"
        )
        start_fifo = {r.job_id: r.start_time for r in fifo.records}
        start_sjf = {r.job_id: r.start_time for r in sjf.records}
        assert start_fifo[2] < start_fifo[3]  # FIFO honours submission order
        assert start_sjf[3] < start_sjf[2]  # SJF runs the short job first


class TestEasyBackfill:
    def _trace(self):
        return JobFile(
            [
                Job(1, "vgg-16", 6, "ring", True, 0.0),  # blocker
                Job(2, "googlenet", 5, "ring", True, 1.0),  # head: blocked
                Job(3, "jacobi", 2, "ring", True, 2.0),  # fits before shadow
                Job(4, "vgg-16", 2, "ring", True, 3.0),  # would overrun shadow
            ]
        )

    def test_reservation_semantics(self, dgx):
        easy = run_policy(
            dgx, make_policy("baseline"), self._trace(), scheduling="easy"
        )
        back = run_policy(
            dgx, make_policy("baseline"), self._trace(), scheduling="backfill"
        )
        e = {r.job_id: r for r in easy.records}
        b = {r.job_id: r for r in back.records}
        shadow = e[1].finish_time  # head's reservation: blocker's finish
        # A candidate finishing before the shadow time backfills on arrival.
        assert e[3].start_time == 2.0
        assert e[3].finish_time <= shadow
        # A candidate that would overrun the reservation waits under EASY
        # but starts immediately under aggressive backfill.
        assert b[4].start_time < shadow
        assert e[4].start_time >= shadow
        # The head starts exactly at its reservation, never delayed.
        assert e[2].start_time == pytest.approx(shadow)

    def test_easy_never_delays_head_vs_fifo(self, dgx):
        """EASY's head starts no later than under plain FIFO."""
        trace = generate_job_file(40, seed=11, max_gpus=5)
        fifo = run_policy(dgx, make_policy("preserve"), trace)
        easy = run_policy(
            dgx, make_policy("preserve"), trace, scheduling="easy"
        )
        assert easy.makespan <= fifo.makespan * 1.05


class TestBackendProtocol:
    def test_both_backends_satisfy_protocol(self, dgx):
        from repro.cluster.scheduler import MultiServerScheduler

        single = MultiServerScheduler([dgx], gpu_policy=make_policy("baseline"))
        multi = MultiServerScheduler([dgx1_v100(), summit_node()])
        for backend in (single, multi):
            assert isinstance(backend, PlacementBackend)
        for hook in FLEET_HOOKS:
            assert callable(getattr(PlacementBackend, hook))
        assert single.free_gpu_counts() == (8,)
        assert multi.free_gpu_counts() == (8, 6)
        assert multi.hardware_for(1).num_gpus == 6

    def test_fleet_hooks_are_required(self):
        """A backend without the fleet hooks is not a PlacementBackend."""

        class PlacementOnly:
            def can_ever_fit(self, request): ...
            def try_place(self, request): ...
            def release(self, job_id): ...
            def free_gpu_counts(self): ...
            def hardware_for(self, server_index): ...

        assert not isinstance(PlacementOnly(), PlacementBackend)
        for hook in FLEET_HOOKS:
            setattr(PlacementOnly, hook, lambda self, *args, **kw: None)
        assert isinstance(PlacementOnly(), PlacementBackend)

    def test_core_tracks_placements_per_server(self):
        trace = generate_job_file(30, seed=2)
        sim = run_cluster([dgx1_v100(), dgx1_v100()], trace)
        assert len(sim.placements) == 30
        assert {pr.server_index for pr in sim.placements} <= {0, 1}


class TestDeprecationAndHygiene:
    def test_reference_core_knobs_are_gone(self, dgx):
        """One replay core: its reference lives in tests/reference/."""
        from repro.allocator.mapa import Mapa
        from repro.cluster.scheduler import MultiServerScheduler

        with pytest.raises(TypeError):
            run_cluster([dgx], JobFile([]), core="object")
        with pytest.raises(TypeError):
            SimulationCore(
                MultiServerScheduler([dgx], gpu_policy="baseline"),
                make_discipline("fifo"),
                None,
                columnar=False,
            )
        with pytest.raises(TypeError):
            Mapa(dgx, make_policy("baseline"), annotate_memo="combined")
        with pytest.raises(TypeError):
            MultiServerScheduler([dgx], fast_paths=False)

    def test_single_server_backend_is_gone(self):
        """A paper cell is a one-server fleet: ``repro.sim`` exports no
        single-server backend, placement type or simulator class."""
        import repro.sim
        import repro.sim.cluster
        import repro.sim.core

        exported = set(repro.sim.__all__)
        assert {n for n in exported if n.endswith("Backend")} == {"PlacementBackend"}
        assert {n for n in exported if "Placement" in n} == {
            "PlacementBackend",
            "PlacementRecord",
        }
        assert not {n for n in exported if n.endswith("Simulator")}
        for module in (repro.sim, repro.sim.core, repro.sim.cluster):
            classes = {n for n, v in vars(module).items() if isinstance(v, type)}
            assert not {n for n in classes if n.endswith("Simulator")}
            assert {n for n in classes if n.endswith("Backend")} <= {
                "PlacementBackend"
            }

    def test_allocation_scores_frozen(self):
        alloc = Allocation(gpus=(1, 2), scores={"agg_bw": 50.0})
        with pytest.raises(TypeError):
            alloc.scores["agg_bw"] = 0.0
        with pytest.raises(TypeError):
            alloc.scores["new"] = 1.0
        assert dict(alloc.scores) == {"agg_bw": 50.0}

    def test_allocations_from_policies_are_frozen(self, dgx):
        from repro.appgraph import patterns
        from repro.policies.base import AllocationRequest

        alloc = make_policy("greedy").allocate(
            AllocationRequest(pattern=patterns.ring(3)), dgx, frozenset(dgx.gpus)
        )
        with pytest.raises(TypeError):
            alloc.scores["agg_bw"] = -1.0

    def test_hashable_job_ids_roundtrip(self, dgx):
        """String job ids work through the whole placement stack."""
        from repro.appgraph import patterns
        from repro.cluster.scheduler import MultiServerScheduler
        from repro.policies.base import AllocationRequest

        sched = MultiServerScheduler([dgx1_v100()])
        request = AllocationRequest(
            pattern=patterns.ring(2), job_id="job-α"
        )
        placement = sched.try_place(request)
        assert placement is not None
        index, gpus = sched.release("job-α")
        assert index == 0 and len(gpus) == 2
