"""Integration tests for the parallel, cache-backed sweep runner."""

import math
import os
import time

import pytest

from repro.experiments import (
    CellConfig,
    ExperimentSpec,
    ResultStore,
    SweepRunner,
    TraceSpec,
    run_experiment,
)
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    _dispatch_plan,
    _refit_model,
    _worker_cache_probe,
    simulate_cell,
)
from repro.scoring.regression import fit_for_hardware
from repro.sim.cluster import run_all_policies


@pytest.fixture(scope="module")
def small_spec():
    return ExperimentSpec(
        name="runner-test",
        policies=("baseline", "preserve"),
        disciplines=("fifo", "backfill"),
        trace=TraceSpec(num_jobs=12),
    )


class TestTraceMemo:
    def test_four_policy_cells_build_their_trace_once(self, monkeypatch):
        spec = ExperimentSpec(name="trace-memo", trace=TraceSpec(num_jobs=15, seed=7))
        builds = []
        build = TraceSpec.build

        def counting(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(TraceSpec, "build", counting)
        runner_module._built_trace.cache_clear()
        outcome = SweepRunner(jobs=1).run(spec)
        assert outcome.num_cells == 4
        assert len(builds) == 1
        for cell, result in outcome.results.items():
            runner_module._built_trace.cache_clear()
            fresh = simulate_cell(cell)
            assert fresh.log.to_dict() == result.log.to_dict()
        assert len(builds) == 5


class TestSerialSweep:
    def test_logs_match_direct_simulation(self, dgx, small_spec):
        outcome = SweepRunner().run(small_spec)
        assert outcome.num_cells == 4
        assert outcome.num_cached == 0
        model, _, _ = fit_for_hardware(dgx)
        trace = TraceSpec(num_jobs=12).build()
        direct = run_all_policies(
            dgx, trace, model, policy_names=["baseline", "preserve"]
        )
        sweep_logs = outcome.logs(discipline="fifo")
        assert set(sweep_logs) == set(direct)
        for policy, log in sweep_logs.items():
            assert log.to_dict() == direct[policy].to_dict()

    def test_ambiguous_slice_rejected(self, small_spec):
        outcome = SweepRunner().run(small_spec)
        with pytest.raises(ValueError):
            outcome.logs()  # two disciplines -> ambiguous

    def test_summary_rows_cover_every_cell(self, small_spec):
        outcome = SweepRunner().run(small_spec)
        rows = outcome.summary_rows()
        assert len(rows) == outcome.num_cells
        assert {row[-1] for row in rows} == {"simulated"}


class TestParallelSweep:
    def test_parallel_equals_serial(self, small_spec):
        serial = SweepRunner(jobs=1).run(small_spec)
        parallel = SweepRunner(jobs=2).run(small_spec)
        for cell in small_spec.expand():
            assert (
                parallel.results[cell].log.to_dict()
                == serial.results[cell].log.to_dict()
            )

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestCachedSweep:
    def test_second_run_is_fully_cached(self, tmp_path, small_spec):
        store = ResultStore(str(tmp_path))
        first = SweepRunner(store=store, jobs=2).run(small_spec)
        assert first.num_simulated == first.num_cells

        store2 = ResultStore(str(tmp_path))
        second = SweepRunner(store=store2).run(small_spec)
        assert second.num_cached == second.num_cells
        assert second.num_simulated == 0
        assert store2.hits == second.num_cells
        for cell in small_spec.expand():
            assert (
                second.results[cell].log.to_dict()
                == first.results[cell].log.to_dict()
            )

    def test_changed_trace_misses_cache(self, tmp_path, small_spec):
        store = ResultStore(str(tmp_path))
        SweepRunner(store=store).run(small_spec)
        bigger = ExperimentSpec(
            name="runner-test",
            policies=small_spec.policies,
            disciplines=small_spec.disciplines,
            trace=TraceSpec(num_jobs=13),
        )
        outcome = SweepRunner(store=ResultStore(str(tmp_path))).run(bigger)
        assert outcome.num_cached == 0

    def test_run_experiment_wrapper(self, tmp_path, small_spec):
        outcome = run_experiment(
            small_spec, jobs=2, store=ResultStore(str(tmp_path))
        )
        assert outcome.num_cells == 4
        assert run_experiment(
            small_spec, store=ResultStore(str(tmp_path))
        ).num_cached == 4


class TestCellList:
    def test_accepts_explicit_cells(self, small_spec):
        cells = small_spec.expand()[:2]
        outcome = SweepRunner().run(cells)
        assert outcome.spec is None
        assert outcome.num_cells == 2
        assert all(c in outcome.results for c in cells)


def _paced_cache_probe(token: int):
    """A briefly-sleeping cache probe, so every pool worker answers one.

    An instant probe lets one fast worker drain the whole map and the
    other worker go unsampled; the pause keeps it busy long enough for
    its sibling to pick up the next probe from the call queue.
    """
    time.sleep(0.05)
    return _worker_cache_probe(token)


def _paced_refit_probe(_token: int):
    """``(pid, Eq. 2 refit misses)`` of a pool worker, paced like
    :func:`_paced_cache_probe` so every worker answers one."""
    time.sleep(0.05)
    return os.getpid(), _refit_model.cache_info().misses


PAPER_TOPOLOGIES = (
    "dgx1-v100", "dgx1-p100", "dgx2", "summit", "torus-2d-16", "cube-mesh-16",
)


def _cells(topologies, policies, num_jobs=10):
    return ExperimentSpec(
        name="plan",
        topologies=topologies,
        policies=policies,
        trace=TraceSpec(num_jobs=num_jobs),
        model="paper",
    ).expand()


class TestDispatchPlan:
    def test_paper_grid_is_grouped_by_wiring_largest_first(self):
        cells = _cells(PAPER_TOPOLOGIES, ("baseline", "topo-aware", "greedy", "preserve"))
        plan = _dispatch_plan(cells, 2)
        assert sorted(i for piece in plan for i in piece) == list(range(len(cells)))
        cap = math.ceil(len(cells) / 2)
        for piece in plan:
            assert len({cells[i].topology for i in piece}) == 1
            assert 1 <= len(piece) <= cap
        assert [cells[piece[0]].topology for piece in plan] == [
            "dgx2", "torus-2d-16", "cube-mesh-16", "dgx1-v100", "dgx1-p100", "summit",
        ]

    def test_weight_counts_cells_jobs_and_gpus(self):
        cells = (
            _cells(("dgx1-v100",), ("baseline",), num_jobs=30)
            + _cells(("dgx2",), ("baseline",), num_jobs=10)
            + _cells(("summit",), ("baseline", "preserve"), num_jobs=30)
        )
        # 8 × 30 = 240 and 6 × 30 × 2 = 360 outweigh 16 × 10 = 160.
        assert _dispatch_plan(cells, 2) == [[2, 3], [0], [1]]

    def test_one_wiring_is_split_across_workers(self):
        cells = _cells(("dgx1-v100",), ("baseline", "topo-aware", "greedy", "preserve"))
        assert _dispatch_plan(cells, 2) == [[0, 1], [2, 3]]
        assert _dispatch_plan(cells[:3], 2) == [[0, 1], [2]]

    def test_two_cell_boot_stays_two_pieces(self):
        cells = _cells(("big-basin",), ("baseline", "topo-aware"))
        assert _dispatch_plan(cells, 2) == [[0], [1]]


class TestAffineDispatch:
    @pytest.fixture(scope="class")
    def refit_spec(self):
        return ExperimentSpec(
            name="affine",
            topologies=("dgx1-v100", "dgx1-p100", "summit"),
            policies=("baseline", "preserve"),
            trace=TraceSpec(num_jobs=8),
            model="refit",
        )

    def test_each_wiring_is_refit_once_across_workers(self, refit_spec):
        _refit_model.cache_clear()  # the pool forks after this
        with SweepRunner(jobs=2) as runner:
            runner.run(refit_spec)
            probes = dict(runner._pool.map(_paced_refit_probe, range(6)))
        assert len(probes) == 2  # both workers answered
        assert sum(probes.values()) == len(refit_spec.topologies)

    def test_parallel_equals_serial_across_wirings(self, refit_spec):
        serial = SweepRunner(jobs=1).run(refit_spec)
        with SweepRunner(jobs=2) as runner:
            parallel = runner.run(refit_spec)
        assert parallel.cells == serial.cells
        for cell in refit_spec.expand():
            assert (
                parallel.results[cell].log.to_dict()
                == serial.results[cell].log.to_dict()
            )
        assert [row[:-1] for row in parallel.summary_rows()] == [
            row[:-1] for row in serial.summary_rows()
        ]

    def test_worker_error_is_reraised(self):
        good = _cells(("dgx1-v100",), ("baseline",))[0]
        bad = CellConfig("summit", "no-such-policy", "fifo", good.trace, model="paper")
        with SweepRunner(jobs=2) as runner:
            with pytest.raises(Exception, match="no-such-policy"):
                runner.run([good, bad])


class TestSweepRunnerPoolReuse:
    def test_workers_and_caches_survive_consecutive_runs(self):
        spec = ExperimentSpec(
            name="pool-reuse",
            policies=("baseline", "preserve"),
            disciplines=("fifo",),
            trace=TraceSpec(num_jobs=8),
        )
        with SweepRunner(jobs=2) as runner:
            first = runner.run(spec)
            pool = runner._pool
            assert pool is not None
            probes1 = {p[0]: p for p in pool.map(_paced_cache_probe, range(4))}
            second = runner.run(spec)
            assert runner._pool is pool  # same executor, no churn
            probes2 = {p[0]: p for p in pool.map(_paced_cache_probe, range(4))}
        assert len(probes1) == 2  # both workers answered the probe
        assert set(probes2) == set(probes1)  # same worker processes
        # The preserve cell left warm scans and first-fit decisions in
        # whichever worker ran it.  A worker that re-runs it answers
        # every placement from its decision memo (no new scan lookup),
        # so lookups need not grow; what must hold is that no worker's
        # warm state was reset — a churned pool restarts it at zero.
        assert sum(p[1] for p in probes1.values()) > 0
        assert sum(p[3] for p in probes1.values()) > 0
        for pid, (_, entries, lookups, decisions) in probes1.items():
            _, entries2, lookups2, decisions2 = probes2[pid]
            assert entries2 >= entries
            assert lookups2 >= lookups
            assert decisions2 >= decisions
        for cell, result in first.results.items():
            assert second.results[cell].log.to_dict() == result.log.to_dict()

    def test_pool_rebuilt_when_jobs_change(self):
        runner = SweepRunner(jobs=2)
        first = runner._ensure_pool()
        assert runner._ensure_pool() is first
        runner.jobs = 3
        second = runner._ensure_pool()
        assert second is not first
        runner.close()
        runner.close()  # idempotent
        assert runner._pool is None


#: ``to_dict()`` digests of the dynamics-bearing paper cells below, as
#: the single-server simulator produced them before paper cells became
#: one-server fleets: a cell's config hash does not see the backend, so
#: a changed meaning would leave every stored cell stale.
DYNAMICS_CELL_DIGESTS = {
    "dgx1-v100/baseline/fifo": "6aec4abec4a4",
    "dgx1-v100/baseline/easy-backfill": "02e4ef859c9a",
    "dgx1-v100/preserve/fifo": "3094e519b5c0",
    "dgx1-v100/preserve/easy-backfill": "d0a49bdd7172",
    "dgx1-v100/greedy/fifo": "a66164ecec03",
    "dgx1-v100/greedy/easy-backfill": "26a7a44d676d",
    "dgx2/baseline/fifo": "681842d4e57b",
    "dgx2/baseline/easy-backfill": "eb5762df5199",
    "dgx2/preserve/fifo": "6d535c8f790d",
    "dgx2/preserve/easy-backfill": "4c8d6d769c18",
    "dgx2/greedy/fifo": "86f74ea987af",
    "dgx2/greedy/easy-backfill": "1c8fff8a79cb",
}


def test_dynamics_bearing_paper_cells_keep_their_meaning():
    """On one server only preemptions act; fail/repair/drain/grow do not."""
    import hashlib
    import json

    from repro.experiments import CellConfig, simulate_cell
    from repro.scenarios import DynamicsSpec, PoissonArrivals, ScenarioSpec

    scenario = ScenarioSpec(
        num_jobs=200,
        seed=4,
        arrival=PoissonArrivals(5.0),
        dynamics=DynamicsSpec(
            horizon=40.0, failures=3, shrinks=2, grows=3, preemptions=6
        ),
    )
    digests = {}
    for key in DYNAMICS_CELL_DIGESTS:
        topology, policy, discipline = key.split("/")
        cell = CellConfig(topology, policy, discipline, scenario)
        payload = json.dumps(
            simulate_cell(cell).log.to_dict(), sort_keys=True, default=str
        )
        digests[key] = hashlib.sha256(payload.encode()).hexdigest()[:12]
    assert digests == DYNAMICS_CELL_DIGESTS
