"""Unit tests for the declarative experiment grid (spec + hashing)."""

import pytest

from repro.experiments import (
    CellConfig,
    ExperimentSpec,
    TraceSpec,
    paper_trace,
    parse_grid,
)
from repro.policies.registry import POLICY_NAMES


class TestTraceSpec:
    def test_build_matches_generator_defaults(self):
        trace = TraceSpec(num_jobs=25).build()
        assert len(trace) == 25
        assert all(1 <= j.num_gpus <= 5 for j in trace)

    def test_identical_specs_build_identical_traces(self):
        a = TraceSpec(num_jobs=30, seed=7).build()
        b = TraceSpec(num_jobs=30, seed=7).build()
        assert [(j.job_id, j.workload, j.num_gpus) for j in a] == [
            (j.job_id, j.workload, j.num_gpus) for j in b
        ]

    def test_resolve_clamps_max_gpus(self):
        spec = TraceSpec(max_gpus=5)
        assert spec.resolve(4).max_gpus == 4
        assert spec.resolve(8) is spec  # no clamp needed, same object

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            TraceSpec(min_gpus=3, max_gpus=2)
        with pytest.raises(ValueError):
            TraceSpec(num_jobs=0)

    def test_validates_workloads_early(self):
        with pytest.raises(KeyError):
            TraceSpec(workload_names=("no-such-workload",))


class TestCellHash:
    def _cell(self, **overrides):
        base = dict(
            topology="dgx1-v100",
            policy="preserve",
            discipline="fifo",
            trace=paper_trace(num_jobs=10),
        )
        base.update(overrides)
        return CellConfig(**base)

    def test_hash_is_stable(self):
        assert self._cell().config_hash() == self._cell().config_hash()

    def test_hash_covers_every_axis(self):
        base = self._cell().config_hash()
        assert self._cell(policy="greedy").config_hash() != base
        assert self._cell(discipline="backfill").config_hash() != base
        assert self._cell(topology="dgx2").config_hash() != base
        assert self._cell(model="paper").config_hash() != base
        assert (
            self._cell(trace=paper_trace(num_jobs=11)).config_hash() != base
        )
        assert self._cell(fit_sizes=(2, 3)).config_hash() != base


class TestExpansion:
    def test_deterministic_order(self):
        spec = ExperimentSpec(
            name="t",
            topologies=("dgx1-v100", "torus-2d-16"),
            policies=("baseline", "preserve"),
            disciplines=("fifo", "backfill"),
            trace=TraceSpec(num_jobs=10),
        )
        cells = spec.expand()
        assert len(cells) == spec.num_cells == 8
        assert cells == spec.expand()
        # topology-major, then discipline, then policy
        assert [c.label for c in cells[:4]] == [
            "dgx1-v100/baseline/fifo",
            "dgx1-v100/preserve/fifo",
            "dgx1-v100/baseline/backfill",
            "dgx1-v100/preserve/backfill",
        ]

    def test_trace_resolved_per_topology(self):
        spec = ExperimentSpec(
            name="t",
            topologies=("summit",),  # 6 GPUs
            trace=TraceSpec(num_jobs=10, max_gpus=8),
        )
        (cell, *_) = spec.expand()
        assert cell.trace.max_gpus == 6

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", topologies=("nope",))
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", policies=("nope",))
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", disciplines=("nope",))
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", model="nope")

    def test_oracle_is_sweepable(self):
        spec = ExperimentSpec(name="t", policies=("oracle",))
        assert spec.expand()[0].policy == "oracle"

    def test_duplicate_axis_values_deduplicated(self):
        spec = ExperimentSpec(
            name="t",
            policies=("baseline", "baseline", "preserve", "baseline"),
            disciplines=("fifo", "fifo"),
        )
        assert spec.policies == ("baseline", "preserve")
        assert spec.disciplines == ("fifo",)
        assert spec.num_cells == 2

    @pytest.mark.parametrize("sizes", [(2, 3, 7), (), (1,), (2, 3.0)])
    def test_rejects_fit_sizes_no_topology_can_sample(self, sizes):
        """A refit samples every size on every topology (Summit has 6)."""
        with pytest.raises(ValueError, match="fit_sizes"):
            ExperimentSpec(
                name="t", topologies=("dgx1-v100", "summit"), fit_sizes=sizes
            )

    def test_valid_fit_sizes_keep_their_order_and_hashes(self):
        spec = ExperimentSpec(
            name="t",
            topologies=("dgx1-v100", "summit"),
            trace=TraceSpec(num_jobs=10),
            fit_sizes=(5, 2, 3),
        )
        assert spec.fit_sizes == (5, 2, 3)
        cells = spec.expand()
        assert [cells[0].config_hash()[:16], cells[4].config_hash()[:16]] == [
            "8f2cbb811e8bd7cb",
            "f4d3041c7f73a298",
        ]

    @pytest.mark.parametrize(
        "topology, sizes", [("dgx2", (2,)), ("summit", (5,)), ("summit", (6,))]
    )
    def test_rejects_fit_sizes_with_one_census(self, topology, sizes):
        """Every such subset shares one (x, y, z): nothing to regress on."""
        with pytest.raises(ValueError, match="fit_sizes .* one .* census"):
            ExperimentSpec(name="t", topologies=(topology,), fit_sizes=sizes)

    def test_paper_model_ignores_fit_sizes(self):
        assert ExperimentSpec(name="t", model="paper", fit_sizes=(9,))


class TestParseGrid:
    def test_defaults(self):
        spec = parse_grid([])
        assert spec.topologies == ("dgx1-v100",)
        assert spec.policies == tuple(POLICY_NAMES)
        assert spec.disciplines == ("fifo",)

    def test_explicit_axes(self):
        spec = parse_grid(
            [
                "topology=dgx1-v100,torus-2d-16",
                "policy=baseline,preserve",
                "discipline=fifo,backfill",
            ]
        )
        assert spec.num_cells == 8

    def test_plural_axis_names_accepted(self):
        spec = parse_grid(["policies=baseline", "topologies=dgx2"])
        assert spec.policies == ("baseline",)
        assert spec.topologies == ("dgx2",)

    def test_all_expands_axis(self):
        spec = parse_grid(["discipline=all"])
        assert len(spec.disciplines) >= 4

    def test_rejects_bad_items(self):
        with pytest.raises(ValueError):
            parse_grid(["policy"])
        with pytest.raises(ValueError):
            parse_grid(["flavor=mint"])
        with pytest.raises(ValueError):
            parse_grid(["policy=baseline", "policy=greedy"])
        with pytest.raises(ValueError):
            parse_grid(["policy="])
