"""Property tests: fleet dynamics under random churn.

Four invariants pin the chaos axis:

* the scheduler's :class:`~repro.cluster.CandidateServerIndex` stays
  exactly consistent (``check_index`` passes, ``resync_index`` is a
  no-op) through arbitrary interleavings of placements, releases,
  failures, repairs, drains and autoscale growth;
* a chaos replay is bit-identical across the ``cached`` / ``batch`` /
  ``scalar`` scan engines;
* the simulation core produces the same log as the memo-free
  reference replay (``tests/reference/replay.py``) under chaos;
* a sharded chaos replay (random shard count) is byte-identical to the
  single-scheduler reference, and the mirrors survive ``check_mirror``
  afterwards.

Everything runs shards inline — the process transport is exercised by
the fleet-chaos benchmark and :mod:`tests.test_sharding`.
"""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.replay import assert_identical_replay
from repro.cluster import (
    MultiServerScheduler,
    ShardedFleetScheduler,
    ShardedFleetSimulator,
    run_cluster,
)
from repro.scenarios import (
    CASUALTY_POLICIES,
    VICTIM_POLICIES,
    DynamicsSpec,
    FleetSpec,
    ScenarioSpec,
)


def _digest(log) -> str:
    """Canonical SHA-256 digest of a simulation log."""
    return hashlib.sha256(
        json.dumps(log.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


@st.composite
def _fleet(draw):
    """A tiny heterogeneous fleet (3–8 servers, ≥2 server models)."""
    groups = [
        ("dgx1-v100", draw(st.integers(1, 4))),
        ("dgx1-p100", draw(st.integers(1, 2))),
    ]
    if draw(st.booleans()):
        groups.append(("dgx2", draw(st.integers(1, 2))))
    return FleetSpec(groups=tuple(groups))


@st.composite
def _scenario(draw, fleet):
    """A short trace resolved to the fleet's smallest server."""
    spec = ScenarioSpec(
        num_jobs=draw(st.integers(30, 80)),
        seed=draw(st.integers(0, 2**16)),
        name="chaos-prop",
    )
    return spec.resolve(fleet.min_gpus_per_server()).build()


@st.composite
def _dynamics(draw):
    """A seeded chaos spec with at least one event."""
    spec = DynamicsSpec(
        seed=draw(st.integers(0, 2**16)),
        horizon=draw(st.sampled_from([120.0, 300.0, 600.0])),
        failures=draw(st.integers(0, 4)),
        mean_downtime=draw(st.sampled_from([20.0, 60.0, 150.0])),
        grows=draw(st.integers(0, 3)),
        shrinks=draw(st.integers(0, 3)),
        preemptions=draw(st.integers(0, 6)),
        casualty=draw(st.sampled_from(CASUALTY_POLICIES)),
        victim=draw(st.sampled_from(VICTIM_POLICIES)),
    )
    if spec.is_empty():
        spec = DynamicsSpec(seed=spec.seed, preemptions=1)
    return spec


class TestIndexIntegrityUnderChurn:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_check_and_resync_agree_after_every_mutation(self, data):
        """Random place/release/fail/repair/drain/grow interleavings
        keep the candidate index exactly consistent at every step."""
        fleet = data.draw(_fleet())
        trace = list(data.draw(_scenario(fleet)))
        scheduler = MultiServerScheduler(fleet.build())
        active = {}
        pending = list(trace)
        for _ in range(data.draw(st.integers(10, 60))):
            op = data.draw(
                st.sampled_from(
                    ["place", "release", "fail", "repair", "drain", "grow"]
                )
            )
            if op == "place" and pending:
                job = pending.pop(0)
                placement = scheduler.try_place(job.request())
                if placement is not None:
                    active[job.job_id] = placement.server_index
            elif op == "release" and active:
                job_id = data.draw(st.sampled_from(sorted(active)))
                scheduler.release(job_id)
                del active[job_id]
            elif op == "fail":
                server = data.draw(
                    st.integers(0, scheduler.num_servers - 1)
                )
                for job_id in scheduler.fail_server(server):
                    del active[job_id]
            elif op == "repair":
                server = data.draw(
                    st.integers(0, scheduler.num_servers - 1)
                )
                scheduler.repair_server(server)
            elif op == "drain":
                server = data.draw(
                    st.integers(0, scheduler.num_servers - 1)
                )
                scheduler.drain_server(server)
            elif op == "grow":
                scheduler.grow_server(
                    data.draw(st.sampled_from(["dgx1-v100", "dgx2"]))
                )
            scheduler.check_index()
        before = scheduler.candidate_index.snapshot()
        statuses = [
            scheduler.server_status(i)
            for i in range(scheduler.num_servers)
        ]
        scheduler.resync_index()
        scheduler.check_index()
        assert scheduler.candidate_index.snapshot() == before
        assert [
            scheduler.server_status(i)
            for i in range(scheduler.num_servers)
        ] == statuses


class TestEngineIdentityUnderChaos:
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_cached_batch_scalar_bit_identical(self, data):
        fleet = data.draw(_fleet())
        trace = data.draw(_scenario(fleet))
        dynamics = data.draw(_dynamics())
        servers = fleet.build()
        reference = _digest(
            run_cluster(servers, trace, engine="cached", dynamics=dynamics).log
        )
        for engine in ("batch", "scalar"):
            assert (
                _digest(
                    run_cluster(
                        servers, trace, engine=engine, dynamics=dynamics
                    ).log
                )
                == reference
            ), f"engine={engine} diverged under {dynamics.describe()}"


class TestCoreIdentityUnderChaos:
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_columnar_equals_reference(self, data):
        fleet = data.draw(_fleet())
        trace = data.draw(_scenario(fleet))
        dynamics = data.draw(_dynamics())
        assert_identical_replay(fleet.build(), trace, dynamics=dynamics)


class TestShardedIdentityUnderChaos:
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_any_shard_count_matches_reference(self, data):
        fleet = data.draw(_fleet())
        trace = data.draw(_scenario(fleet))
        dynamics = data.draw(_dynamics())
        shards = data.draw(st.integers(1, fleet.num_servers))
        reference = _digest(
            run_cluster(fleet.build(), trace, dynamics=dynamics).log
        )
        with ShardedFleetScheduler(fleet, shards, mode="inline") as scheduler:
            sim = ShardedFleetSimulator(scheduler)
            assert (
                _digest(sim.run(trace, dynamics=dynamics)) == reference
            ), (
                f"shards={shards} diverged under {dynamics.describe()}"
            )
            scheduler.check_mirror()
