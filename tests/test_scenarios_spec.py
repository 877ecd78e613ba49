"""ScenarioSpec: determinism, hashing, and experiment-grid integration."""

import numpy as np
import pytest

from repro.experiments import (
    CellConfig,
    ExperimentSpec,
    ResultStore,
    SweepRunner,
    TraceSpec,
)
from repro.scenarios import (
    DynamicsSpec,
    MMPPArrivals,
    PoissonArrivals,
    ScenarioSpec,
    heavy_mix,
    paper_mix,
)


class TestBuild:
    def test_same_spec_same_trace(self):
        spec = ScenarioSpec(num_jobs=120, seed=5, arrival=PoissonArrivals(2.0))
        assert spec.build().to_csv() == spec.build().to_csv()

    def test_seed_changes_trace(self):
        a = ScenarioSpec(num_jobs=50, seed=1).build().to_csv()
        b = ScenarioSpec(num_jobs=50, seed=2).build().to_csv()
        assert a != b

    def test_job_ids_and_submit_order(self):
        jf = ScenarioSpec(num_jobs=40, arrival=PoissonArrivals(1.0)).build()
        assert [j.job_id for j in jf] == list(range(1, 41))
        submits = [j.submit_time for j in jf]
        assert submits == sorted(submits)

    def test_explicit_rng_overrides_seed(self):
        spec = ScenarioSpec(num_jobs=30, seed=999)
        via_seed = spec.build(np.random.default_rng(7)).to_csv()
        assert via_seed == spec.build(np.random.default_rng(7)).to_csv()
        assert via_seed != spec.build().to_csv()

    def test_batch_default_matches_paper_shape(self):
        jf = ScenarioSpec(num_jobs=25).build()
        assert all(j.submit_time == 0.0 for j in jf)
        assert all(1 <= j.num_gpus <= 5 for j in jf)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_jobs"):
            ScenarioSpec(num_jobs=0)


class TestHashing:
    def test_name_excluded_from_hash_dict(self):
        a = ScenarioSpec(num_jobs=30, name="a")
        b = ScenarioSpec(num_jobs=30, name="b")
        assert a.to_dict() == b.to_dict()

    def test_kind_discriminator_present(self):
        assert ScenarioSpec().to_dict()["kind"] == "scenario"

    def test_scenario_and_trace_cells_never_collide(self):
        scenario_cell = CellConfig(
            topology="dgx1-v100",
            policy="preserve",
            discipline="fifo",
            trace=ScenarioSpec(num_jobs=300, seed=2021),
        )
        trace_cell = CellConfig(
            topology="dgx1-v100",
            policy="preserve",
            discipline="fifo",
            trace=TraceSpec(num_jobs=300, seed=2021),
        )
        assert scenario_cell.config_hash() != trace_cell.config_hash()

    def test_arrival_parameters_affect_hash(self):
        base = dict(topology="dgx1-v100", policy="preserve", discipline="fifo")
        slow = CellConfig(trace=ScenarioSpec(arrival=PoissonArrivals(1.0)), **base)
        fast = CellConfig(trace=ScenarioSpec(arrival=PoissonArrivals(2.0)), **base)
        assert slow.config_hash() != fast.config_hash()

    def test_round_trip(self):
        spec = ScenarioSpec(
            num_jobs=77, seed=3, arrival=MMPPArrivals(), mix=heavy_mix()
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.to_dict() == spec.to_dict()
        assert rebuilt.build().to_csv() == spec.build().to_csv()
        with pytest.raises(ValueError, match="not a scenario"):
            ScenarioSpec.from_dict({"kind": "trace"})


class TestGridIntegration:
    def test_expand_resolves_mix_to_topology(self):
        spec = ExperimentSpec(
            name="scenario-grid",
            topologies=("summit",),  # 6 GPUs < the mix's 1–5 cap? no: fits
            policies=("preserve",),
            trace=ScenarioSpec(num_jobs=20, mix=paper_mix()),
        )
        (cell,) = spec.expand()
        assert cell.trace.max_gpus == 5

    def test_sweep_runs_and_caches_scenarios(self, tmp_path):
        spec = ExperimentSpec(
            name="scenario-sweep",
            policies=("baseline", "preserve"),
            trace=ScenarioSpec(num_jobs=15, seed=4, arrival=PoissonArrivals(5.0)),
        )
        store = ResultStore(str(tmp_path / "cache"))
        cold = SweepRunner(store=store).run(spec)
        assert cold.num_simulated == 2 and cold.num_cached == 0
        warm = SweepRunner(store=store).run(spec)
        assert warm.num_simulated == 0 and warm.num_cached == 2
        for cell in cold.cells:
            a = cold.results[cell].log.to_dict()
            b = warm.results[cell].log.to_dict()
            assert a == b  # bit-exact through the JSON cache

    def test_dynamics_scenario_sweeps_under_every_discipline(self):
        """A dynamics-carrying scenario completes under FIFO and EASY
        alike (a single-server cell replays its preemptions)."""
        spec = ExperimentSpec(
            name="chaos-sweep",
            policies=("preserve",),
            disciplines=("fifo", "easy-backfill"),
            trace=ScenarioSpec(
                num_jobs=20,
                seed=4,
                arrival=PoissonArrivals(5.0),
                dynamics=DynamicsSpec(horizon=60.0, failures=1, preemptions=4),
            ),
        )
        outcome = SweepRunner().run(spec)
        assert outcome.num_simulated == 2
        for cell in spec.expand():
            assert len(outcome.results[cell].log) == 20

    def test_rejects_non_trace_objects(self):
        with pytest.raises(ValueError, match="TraceSpec or ScenarioSpec"):
            ExperimentSpec(name="bad", trace="not-a-trace")
