"""Property tests for the facts EASY backfilling's exact skips rest on.

:class:`repro.sim.disciplines.EasyBackfillDiscipline` skips placement
attempts whose outcome it already knows, and the core's futile-retry
memo survives aborts.  Both are exact only if:

(a) ``runtime_estimate`` is a float lower bound on the ``exec_time`` of
    every placement, at every bandwidth — including huge finite ones;
(b) ``place`` followed by ``abort`` leaves the backend exactly as it
    was — free bitmasks, free counts, candidate index — and does not
    start a new release epoch;
(c) every built-in GPU policy fails monotonically: it never fails on a
    free set when it succeeds on a subset of that set.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appgraph import patterns
from repro.cluster import MultiServerScheduler
from repro.policies.base import AllocationRequest
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.sim.core import SimulationCore
from repro.sim.disciplines import make_discipline
from repro.sim.records import SimulationLog
from repro.topology.builders import by_name
from repro.workloads.catalog import WORKLOADS
from repro.workloads.exectime import execution_time
from repro.workloads.jobs import Job

PATTERN_NAMES = ["ring", "chain", "tree", "star", "alltoall", "single"]

bandwidths = st.one_of(
    st.floats(min_value=1e-3, max_value=sys.float_info.max, allow_nan=False),
    st.sampled_from([1e12, 1e18, 1e100, 1e300, sys.float_info.max]),
)


def _core(backend):
    return SimulationCore(
        backend, make_discipline("easy-backfill"), SimulationLog("p", "t")
    )


# ---------------------------------------------------------------------- #
# (a) the runtime estimate is a lower bound
# ---------------------------------------------------------------------- #
@given(
    workload=st.sampled_from(sorted(WORKLOADS)),
    num_gpus=st.integers(1, 16),
    bandwidth=bandwidths,
)
@settings(max_examples=300, deadline=None)
def test_runtime_estimate_bounds_every_exec_time(workload, num_gpus, bandwidth):
    scheduler = MultiServerScheduler([by_name("dgx1-v100")], gpu_policy="baseline")
    job = Job(1, workload, num_gpus, "ring", True)
    estimate = _core(scheduler).runtime_estimate(job)
    spec = job.workload_spec()
    # place() runs one-GPU jobs at infinite bandwidth, the rest at the
    # placement's measured bandwidth.
    if num_gpus == 1:
        bandwidth = float("inf")
    assert estimate <= execution_time(spec, num_gpus, bandwidth)
    assert estimate == execution_time(spec, num_gpus, float("inf"))


# ---------------------------------------------------------------------- #
# (b) an abort is invisible
# ---------------------------------------------------------------------- #
job_specs = st.tuples(
    st.integers(1, 5),
    st.sampled_from(PATTERN_NAMES),
    st.booleans(),
)


def _job(job_id, spec):
    num_gpus, pattern, sensitive = spec
    if num_gpus == 1:
        pattern = "single"
    elif pattern == "single":
        pattern = "ring"
    return Job(job_id, "vgg-16" if sensitive else "gmm", num_gpus, pattern, sensitive)


def _snapshot(core, engines):
    return (
        tuple(engine.state.free_bitmask for engine in engines),
        core.backend.free_gpu_counts(),
        core.backend.max_free_count(),
        core.release_epoch,
    )


@given(
    node_policy=st.sampled_from(["first-fit", "pack", "spread", "best-score"]),
    gpu_policy=st.sampled_from(POLICY_NAMES),
    started=st.lists(job_specs, max_size=10),
    probe=job_specs,
)
@settings(max_examples=60, deadline=None)
def test_place_then_abort_restores_the_fleet(node_policy, gpu_policy, started, probe):
    scheduler = MultiServerScheduler(
        [by_name("dgx1-v100"), by_name("dgx1-p100"), by_name("dgx1-v100")],
        gpu_policy=gpu_policy,
        node_policy=node_policy,
    )
    core = _core(scheduler)
    for job_id, spec in enumerate(started):
        core.try_start(_job(job_id, spec))
    before = _snapshot(core, scheduler.engines)
    placed = core.place(_job(len(started), probe))
    if placed is not None:
        core.abort(placed)
    assert _snapshot(core, scheduler.engines) == before
    scheduler.check_index()


@given(
    gpu_policy=st.sampled_from(POLICY_NAMES),
    started=st.lists(job_specs, max_size=6),
    probe=job_specs,
)
@settings(max_examples=40, deadline=None)
def test_place_then_abort_restores_one_server(gpu_policy, started, probe):
    scheduler = MultiServerScheduler(
        [by_name("dgx1-v100")], gpu_policy=make_policy(gpu_policy)
    )
    core = _core(scheduler)
    for job_id, spec in enumerate(started):
        core.try_start(_job(job_id, spec))
    before = _snapshot(core, scheduler.engines)
    placed = core.place(_job(len(started), probe))
    if placed is not None:
        core.abort(placed)
    assert _snapshot(core, scheduler.engines) == before
    scheduler.check_index()


# ---------------------------------------------------------------------- #
# (c) failure is monotone in the free set
# ---------------------------------------------------------------------- #
@st.composite
def nested_free_sets(draw):
    """A wiring, a free set and a subset of it."""
    hardware = by_name(draw(st.sampled_from(["dgx1-v100", "dgx1-p100", "summit"])))
    gpus = list(hardware.gpus)
    superset = draw(st.sets(st.sampled_from(gpus), max_size=len(gpus)))
    subset = draw(st.sets(st.sampled_from(sorted(superset))) if superset
                  else st.just(set()))
    return hardware, frozenset(superset), frozenset(subset)


@given(
    gpu_policy=st.sampled_from(POLICY_NAMES + ["oracle"]),
    free=nested_free_sets(),
    pattern=st.sampled_from(PATTERN_NAMES),
    num_gpus=st.integers(1, 5),
    sensitive=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_policy_failure_is_monotone(gpu_policy, free, pattern, num_gpus, sensitive):
    hardware, superset, subset = free
    policy = make_policy(gpu_policy)
    request = AllocationRequest(
        pattern=patterns.by_name(pattern, num_gpus), bandwidth_sensitive=sensitive
    )
    on_subset = policy.allocate(request, hardware, subset)
    if on_subset is not None:
        assert policy.allocate(request, hardware, superset) is not None
