"""Property tests: the columnar replay core vs the reference replay.

Three contracts pin the replay core:

* the struct-of-arrays :class:`~repro.sim.engine.EventEngine` pops the
  exact ``(time, seq)`` total order of the reference
  :class:`~reference.replay.HeapEventEngine` under arbitrary
  interleavings of singleton schedules, bulk runs and pops — including
  times inside the relative round-off band, which both clamp;
* production replays are byte-identical (canonical JSON) to the
  memo-free reference replay (``tests/reference/replay.py``) over
  random traces and fleets, warm or cold, with or without a shared
  scan cache (whose decision memo rides along across replays);
* a scan cache spilled to disk and loaded by a *fresh process* yields a
  byte-identical replay with a ≥90% first-pass scan hit rate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference.replay import HeapEventEngine, assert_identical_replay, canonical
from repro.cluster import run_cluster
from repro.experiments.spill import ScanSpillStore
from repro.scenarios import FleetSpec
from repro.scoring.memo import ScanCache
from repro.sim.engine import _REL_EPS, EventEngine
from repro.topology.builders import dgx1_v100
from repro.workloads.generator import generate_job_file

_KINDS = ("arrival", "completion", "tick")


@st.composite
def _event_script(draw):
    """Random interleaving of schedules, bulk runs, clamps and pops."""
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        op = draw(st.sampled_from(["schedule", "bulk", "clamp", "pop", "pop"]))
        if op == "schedule":
            ops.append(
                (
                    "schedule",
                    draw(st.floats(0.0, 1e6, allow_nan=False)),
                    draw(st.sampled_from(_KINDS)),
                )
            )
        elif op == "bulk":
            ops.append(
                (
                    "bulk",
                    tuple(
                        draw(
                            st.lists(
                                st.floats(0.0, 1e6, allow_nan=False),
                                min_size=0,
                                max_size=8,
                            )
                        )
                    ),
                    draw(st.sampled_from(_KINDS)),
                )
            )
        else:
            ops.append((op,))
    return ops


class TestEngineEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(ops=_event_script())
    def test_columnar_engine_pops_the_reference_total_order(self, ops):
        """EventEngine == HeapEventEngine under arbitrary interleavings.

        ``now`` is mirrored outside both engines (they agree by
        induction, since every pop is asserted equal), so schedule
        times are computed identically for both.
        """
        fast, ref = EventEngine(), HeapEventEngine()
        now, payload = 0.0, 0
        for op in ops:
            if op[0] == "schedule":
                _, delay, kind = op
                fast.schedule(now + delay, kind, payload)
                ref.schedule(now + delay, kind, payload)
                payload += 1
            elif op[0] == "bulk":
                _, delays, kind = op
                times = [now + d for d in delays]
                payloads = list(range(payload, payload + len(delays)))
                payload += len(delays)
                fast.schedule_many(times, kind, payloads)
                for t, p in zip(times, payloads):
                    ref.schedule(t, kind, p)
            elif op[0] == "clamp":
                # Half a tolerance band into the past: round-off, not a
                # logic error — both engines must clamp it to ``now``.
                t = now - 0.5 * _REL_EPS * max(1.0, abs(now))
                fast.schedule(t, "tick", payload)
                ref.schedule(t, "tick", payload)
                payload += 1
            else:
                got, want = fast.pop(), ref.pop()
                assert got == want
                if want is not None:
                    assert got[0] >= now
                    now = got[0]
        while True:
            got, want = fast.pop(), ref.pop()
            assert got == want
            if want is None:
                break
        assert fast.pending == ref.pending == 0

    def test_truly_past_events_raise_in_both_paths(self):
        engine = EventEngine()
        engine.schedule(100.0, "tick")
        assert engine.pop()[0] == 100.0
        with pytest.raises(ValueError, match="before current time"):
            engine.schedule(99.0, "tick")
        with pytest.raises(ValueError, match="before current time"):
            engine.schedule_many([100.0, 99.0], "tick")


def _canonical(sim) -> str:
    return canonical(sim.log)


class TestColumnarCoreBitIdentity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        num_jobs=st.integers(10, 60),
        fleet=st.sampled_from(
            ["dgx1-v100:2", "dgx1-v100:1,dgx2:1", "dgx1-p100:2,dgx1-v100:1"]
        ),
    )
    # DGX-1V and DGX-1P number their GPUs alike, so one GPU tuple lands
    # on either wiring: this trace fails a measured-bandwidth memo keyed
    # without the wiring hash, and a decision memo keyed without the
    # job's bandwidth sensitivity.
    @example(seed=11, num_jobs=60, fleet="dgx1-v100:2,dgx1-p100:2")
    def test_columnar_matches_reference_replay(self, seed, num_jobs, fleet):
        trace = generate_job_file(num_jobs, seed=seed)
        assert_identical_replay(FleetSpec.parse(fleet).build(), trace)

    def test_warm_replays_with_shared_cache_stay_bit_identical(self):
        """Cold, warm and decision-memo-warm replays all agree.

        The second cached replay answers placements from the decision
        memo the first replay left in ``cache.aux`` — it must reproduce
        the reference log byte for byte.
        """
        trace = generate_job_file(60, seed=3)
        servers = [dgx1_v100(), dgx1_v100()]
        cache = ScanCache()
        reference = assert_identical_replay(servers, trace, scan_cache=cache)
        warm = _canonical(run_cluster(servers, trace, scan_cache=cache))
        assert warm == reference

    def test_decision_memo_partitions_by_policy(self):
        """One cache shared across *different* policies stays exact.

        The memo fingerprint namespaces by policy type and model
        coefficients, so greedy must not see preserve's winners.
        """
        trace = generate_job_file(50, seed=7)
        servers = [dgx1_v100()]
        cache = ScanCache()
        for policy in ("preserve", "greedy", "preserve", "greedy"):
            warm = _canonical(
                run_cluster(
                    servers, trace, gpu_policy=policy, scan_cache=cache
                )
            )
            fresh = _canonical(run_cluster(servers, trace, gpu_policy=policy))
            assert warm == fresh


class TestAllocationRebind:
    def test_rebind_shares_scores_and_swaps_job_id(self):
        from repro.appgraph import patterns
        from repro.cluster import MultiServerScheduler
        from repro.policies.base import AllocationRequest

        sched = MultiServerScheduler([dgx1_v100()])
        placement = sched.try_place(
            AllocationRequest(pattern=patterns.ring(3), job_id="a")
        )
        original = placement.allocation
        clone = original.rebind("b")
        assert clone.job_id == "b" and original.job_id == "a"
        assert clone.gpus == original.gpus
        assert clone.match is original.match
        assert clone.scores is original.scores  # shared read-only view
        with pytest.raises(TypeError):
            clone.scores["AggBW"] = 2.0


class TestSeedSemantics:
    def test_seed_bypasses_stats_and_never_evicts_live_entries(self):
        cache = ScanCache(capacity=2)
        cache.insert(("t", (1, ()), 1), "live-1")
        cache.insert(("t", (1, ()), 2), "live-2")
        before = (cache.stats.lookups, cache.stats.misses, cache.stats.hits)
        # Full cache: the seed is dropped, nothing is displaced.
        assert cache.seed(("t", (1, ()), 3), {"tok": "w"}) is None
        assert len(cache) == 2
        # An existing key is left untouched.
        entry = cache.seed(("t", (1, ()), 1), {"tok": "w"})
        assert entry.value == "live-1"
        assert (
            cache.stats.lookups,
            cache.stats.misses,
            cache.stats.hits,
        ) == before

    def test_clear_drops_aux_side_car(self):
        cache = ScanCache()
        cache.aux[("fingerprint",)] = {"key": "value"}
        cache.clear()
        assert cache.aux == {}


_CHILD_SCRIPT = """\
import hashlib, json, sys
from repro.cluster import run_cluster
from repro.experiments.spill import ScanSpillStore
from repro.scoring.memo import ScanCache
from repro.topology.builders import dgx1_v100, dgx2
from repro.workloads.generator import generate_job_file

trace = generate_job_file(300, seed=17)
servers = [dgx1_v100(), dgx1_v100(), dgx2()]
cache = ScanCache()
sim = run_cluster(
    servers, trace, scan_cache=cache, scan_spill=ScanSpillStore(sys.argv[1])
)
digest = hashlib.sha256(
    json.dumps(sim.log.to_dict(), sort_keys=True).encode("utf-8")
).hexdigest()
print(json.dumps({"digest": digest, "stats": sim.log.cache_stats}))
"""


class TestSpillAcrossProcesses:
    def test_spill_warmed_fresh_process_is_byte_identical(self, tmp_path):
        """Cold replay == spill-warmed replay in a *separate* process.

        The child inherits nothing but the spill directory: its scan
        cache, decision memo and interpreter state are all fresh, so a
        matching digest proves the persistent tier alone reproduces the
        run — and its first-pass hit rate must clear the 90% gate.
        """
        import hashlib

        trace = generate_job_file(300, seed=17)
        servers = [dgx1_v100(), dgx1_v100()]
        from repro.topology.builders import dgx2

        servers.append(dgx2())
        cache = ScanCache()
        sim = run_cluster(servers, trace, scan_cache=cache)
        digest = hashlib.sha256(
            json.dumps(sim.log.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        spilled = ScanSpillStore(str(tmp_path)).spill(cache)
        assert spilled > 0

        src_dir = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(proc.stdout)
        assert child["digest"] == digest
        stats = child["stats"]
        assert stats["scan_lookups"] > 0
        assert stats["scan_hit_rate"] >= 0.90


class TestRunnerSpillTier:
    def test_sweep_runner_warm_starts_workers_from_the_tier(self, tmp_path):
        """Two serial sweeps through one tier: byte-identical results,
        the second warm-started from the first's spilled winners, and
        the environment handed back untouched."""
        from repro.experiments import SweepRunner
        from repro.experiments.runner import SCAN_SPILL_ENV
        from repro.experiments.spec import CellConfig, TraceSpec

        cells = [
            CellConfig(
                topology="dgx1-v100",
                policy=policy,
                discipline="fifo",
                trace=TraceSpec(num_jobs=40, seed=9),
            )
            for policy in ("preserve", "greedy")
        ]
        reference = SweepRunner(store=None).run(cells)
        assert SCAN_SPILL_ENV not in os.environ
        for _ in range(2):  # second pass loads what the first spilled
            outcome = SweepRunner(
                store=None, scan_spill=str(tmp_path)
            ).run(cells)
            for cell in cells:
                assert json.dumps(
                    outcome.results[cell].log.to_dict(), sort_keys=True
                ) == json.dumps(
                    reference.results[cell].log.to_dict(), sort_keys=True
                )
            assert SCAN_SPILL_ENV not in os.environ
        assert ScanSpillStore(str(tmp_path)).content.scan("scan")
