"""Differential oracle for EASY backfilling.

:class:`repro.sim.disciplines.EasyBackfillDiscipline` skips every
placement attempt whose outcome it can already tell: jobs too large for
any server, jobs whose runtime lower bound overruns the shadow time, and
— in passes after an arrival — every job but the new tail and the jobs
rejected on their exact execution time.  Each skip is claimed
to be exact, so a replay must be byte-identical to the reference body in
``tests/reference/easy_backfill.py``, which places every queued job and
commits or aborts.  The cases cover both backends, every node policy,
the production core and the memo-free reference core
(``tests/reference/replay.py``), the one non-monotone case, and a
discipline instance reused across runs; the last checks hold the core's
kept completion timeline to a from-scratch shadow time under fleet
dynamics, and keep servers that are down out of the shadow time.
"""

import json

import pytest

from reference.easy_backfill import ReferenceEasyBackfill, reference_earliest_fit_time
from reference.replay import ReferenceCore, ReferenceMapa, canonical, reference_core
from repro.allocator.mapa import Mapa
from repro.cluster import MultiServerSimulator
from repro.policies.registry import make_policy
from repro.scenarios import (
    DynamicsSpec,
    FleetEvent,
    PoissonArrivals,
    ScenarioSpec,
    mixed_fleet,
    paper_mix,
)
from repro.scoring.memo import ScanCache
from repro.sim.core import SimulationCore, SingleServerBackend
from repro.sim.disciplines import (
    EasyBackfillDiscipline,
    FifoDiscipline,
    make_discipline,
)
from repro.sim.records import SimulationLog
from repro.topology.builders import by_name
from repro.workloads.generator import generate_job_file
from repro.workloads.jobs import Job, JobFile


def _single_server(topology, trace, discipline, production_core, cache):
    hardware = by_name(topology)
    log = SimulationLog("preserve", topology)
    if production_core:
        mapa = Mapa(hardware, make_policy("preserve", cache=cache))
        core = SimulationCore(SingleServerBackend(mapa), discipline, log)
    else:
        mapa = ReferenceMapa(hardware, make_policy("preserve"))
        core = ReferenceCore(SingleServerBackend(mapa), discipline, log)
    return canonical(core.run(trace))


def _fleet(servers, trace, discipline, cache, node_policy="first-fit",
           production_core=True, gpu_policy="preserve"):
    if production_core:
        core = MultiServerSimulator(
            servers,
            gpu_policy=gpu_policy,
            node_policy=node_policy,
            scan_cache=cache,
        ).core
    else:
        core = reference_core(servers, gpu_policy=gpu_policy, node_policy=node_policy)
    core.discipline = discipline
    return canonical(core.run(trace))


def _fleet_trace(fleet, num_jobs, seed, rate):
    return ScenarioSpec(
        num_jobs=num_jobs,
        seed=seed,
        arrival=PoissonArrivals(rate=rate),
        mix=paper_mix(),
        name="oracle",
    ).resolve(fleet.min_gpus_per_server()).build()


@pytest.mark.parametrize(
    "topology,production_core,seed,max_gpus",
    [
        ("dgx1-v100", True, 3, 5),
        ("dgx1-v100", False, 4, 5),
        ("dgx2", True, 5, 4),
    ],
)
def test_single_server_matches_reference(topology, production_core, seed, max_gpus):
    trace = generate_job_file(40, max_gpus=max_gpus, seed=seed, arrival_rate=0.05)
    cache = ScanCache()
    fast = _single_server(topology, trace, EasyBackfillDiscipline(), production_core, cache)
    ref = _single_server(topology, trace, ReferenceEasyBackfill(), production_core, cache)
    assert fast == ref


@pytest.mark.parametrize("production_core", [True, False])
@pytest.mark.parametrize("node_policy", ["first-fit", "pack", "spread", "best-score"])
def test_four_server_fleet_matches_reference(node_policy, production_core):
    fleet = mixed_fleet(4)
    trace = _fleet_trace(fleet, 60, seed=11, rate=0.3)
    cache = ScanCache()
    fast = _fleet(fleet.build(), trace, EasyBackfillDiscipline(), cache,
                  node_policy, production_core)
    ref = _fleet(fleet.build(), trace, ReferenceEasyBackfill(), cache,
                 node_policy, production_core)
    assert fast == ref


def test_sixty_four_server_fleet_matches_reference():
    fleet = mixed_fleet(64)
    trace = _fleet_trace(fleet, 300, seed=2021, rate=20.0)
    cache = ScanCache()
    fast = _fleet(fleet.build(), trace, EasyBackfillDiscipline(), cache)
    ref = _fleet(fleet.build(), trace, ReferenceEasyBackfill(), cache)
    assert fast == ref


#: Two DGX-1V under first-fit with the Baseline GPU policy.  Jobs 1 and
#: 2 fill GPUs 1-5 of server 0 and 1-6 of server 1; the 8-GPU head
#: (job 3) is then reserved at job 2's finish, t ~ 211.  Job 4 lands on
#: server 0's GPUs (6, 7) with an exec_time of ~224 s and is rejected.
#: At t=3 it would land there again (rejected again, so the pass skips
#: it), and job 5 takes server 0's last three GPUs.  At t=4 — another
#: arrival-only pass — the smaller free set routes job 4 to server 1's
#: GPUs (7, 8), where it runs in ~139 s and starts.
NON_MONOTONE_TRACE = JobFile(
    [
        Job(1, "caffenet", 5, "ring", False, 0.0),
        Job(2, "caffenet", 6, "ring", False, 0.0),
        Job(3, "jacobi", 8, "ring", False, 1.0),
        Job(4, "vgg-16", 2, "ring", True, 2.0),
        Job(5, "caffenet", 3, "ring", False, 3.0),
        Job(6, "jacobi", 8, "ring", False, 4.0),
    ]
)


@pytest.mark.parametrize("production_core", [True, False])
def test_rejected_job_rerouted_by_an_arrival_pass(production_core):
    servers = [by_name("dgx1-v100")] * 2
    logs = [
        _fleet(servers, NON_MONOTONE_TRACE, discipline, ScanCache(),
               production_core=production_core, gpu_policy="baseline")
        for discipline in (EasyBackfillDiscipline(), ReferenceEasyBackfill())
    ]
    assert logs[0] == logs[1]
    job4 = next(r for r in json.loads(logs[0])["records"] if r["job_id"] == 4)
    assert job4["start_time"] == 4.0
    assert job4["allocation"] == [7, 8]


def test_discipline_instance_reused_across_runs():
    fleet = mixed_fleet(4)
    discipline = make_discipline("easy-backfill")
    cache = ScanCache()
    first = _fleet_trace(fleet, 50, seed=21, rate=0.3)
    second = _fleet_trace(fleet, 50, seed=22, rate=0.3)
    reused = [_fleet(fleet.build(), trace, discipline, cache) for trace in (first, second)]
    fresh = [
        _fleet(fleet.build(), trace, ReferenceEasyBackfill(), cache)
        for trace in (first, second)
    ]
    assert reused == fresh
    assert reused[0] != reused[1]


class _ShadowProbe(FifoDiscipline):
    """FIFO that checks shadow times against a fresh sort after every
    event and records them."""

    def __init__(self):
        self.shadows = []

    def schedule(self, core):
        for num_gpus in (1, 4, 8, 16):
            shadow = core.earliest_fit_time(num_gpus)
            assert shadow == reference_earliest_fit_time(core, num_gpus)
            self.shadows.append((core.now, num_gpus, shadow))
        super().schedule(core)


def _shadow_series(core, trace):
    probe = core.discipline = _ShadowProbe()
    core.run(trace)
    assert probe.shadows
    return probe.shadows


@pytest.mark.parametrize("production_core", [True, False])
def test_shadow_time_exact_under_fleet_dynamics(production_core):
    """Failures and preemptions end jobs before their finish time; the
    core's kept completion timeline must still match a fresh sort.  On
    the reference core the shadow time *is* the fresh sort, so there
    the whole series must equal the production core's."""
    fleet = mixed_fleet(4)
    trace = _fleet_trace(fleet, 80, seed=5, rate=0.5)
    dynamics = DynamicsSpec(
        seed=3, horizon=300.0, failures=3, mean_downtime=40.0,
        grows=1, preemptions=6,
    )
    series = _shadow_series(
        MultiServerSimulator(fleet.build(), dynamics=dynamics).core, trace
    )
    if not production_core:
        reference = reference_core(fleet.build(), dynamics=dynamics)
        assert _shadow_series(reference, trace) == series


@pytest.mark.parametrize("action", ["fail", "remove"])
@pytest.mark.parametrize("production_core", [True, False])
def test_shadow_time_ignores_servers_that_are_down(production_core, action):
    """Two DGX-1V; server 0 fails (or drains) idle, a 6-GPU job starts
    on server 1.  Server 0's eight free GPUs take no placement, so a
    5-GPU head waits for the 6-GPU job to finish."""
    servers = [by_name("dgx1-v100")] * 2
    if production_core:
        core = MultiServerSimulator(servers).core
    else:
        core = reference_core(servers)
    assert core.earliest_fit_time(5) == core.now  # both servers up
    core._apply_fleet_event(FleetEvent(time=0.0, action=action, server=0))
    assert core.try_start(Job(1, "caffenet", 6, "ring", False, 0.0))
    assert core.backend.free_gpu_counts() == (8, 2)
    assert core.backend.max_free_count() == 2
    (finish,) = [row[8] for row in core._running.values()]
    assert finish > core.now
    assert core.earliest_fit_time(5) == finish
    assert core.earliest_fit_time(2) == core.now
