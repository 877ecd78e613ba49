"""Unit tests for the Eq. 2 regression fit (paper section 3.4.3)."""

import numpy as np
import pytest

from repro.scoring.census import LinkCensus
from repro.scoring.effective import EffectiveBandwidthModel, feature_vector
from repro.scoring.regression import (
    CensusSample,
    evaluate_fit,
    exhaustive_census_samples,
    fit_effbw_model,
    fit_for_hardware,
)
from repro.topology.builders import by_name


class TestSampleConstruction:
    def test_dgx_sample_count_near_paper(self, dgx):
        """The paper's exhaustive 2–5-GPU DGX-V sweep gave 31 unique
        censuses; ours lands in the same ballpark."""
        samples = exhaustive_census_samples(dgx)
        assert 25 <= len(samples) <= 40

    def test_censuses_unique(self, dgx):
        samples = exhaustive_census_samples(dgx)
        censuses = [s.census for s in samples]
        assert len(set(censuses)) == len(censuses)

    def test_sizes_cover_2_to_5(self, dgx):
        samples = exhaustive_census_samples(dgx)
        sizes = {len(s.allocation) for s in samples}
        assert sizes == {2, 3, 4, 5}

    def test_representative_realises_census(self, dgx):
        from repro.scoring.census import census_of_allocation

        for s in exhaustive_census_samples(dgx):
            assert census_of_allocation(dgx, s.allocation) == s.census

    def test_oversize_rejected(self, dgx):
        with pytest.raises(ValueError):
            exhaustive_census_samples(dgx, sizes=(9,))


class TestFit:
    def test_recovers_exact_linear_model(self):
        """OLS must recover θ exactly when the data is generated by Eq. 2."""
        rng = np.random.default_rng(0)
        true_theta = rng.normal(size=14)
        samples = []
        censuses = [
            (x, y, z) for x in range(4) for y in range(4) for z in range(4)
        ][:40]
        for (x, y, z) in censuses:
            bw = float(np.dot(feature_vector(x, y, z), true_theta))
            samples.append(
                CensusSample(LinkCensus(x, y, z), (1, 2), bw)
            )
        model = fit_effbw_model(samples)
        pred = [model.predict(*c) for c in censuses]
        truth = [
            max(float(np.dot(feature_vector(*c), true_theta)), 0.0)
            for c in censuses
        ]
        assert np.allclose(pred, truth, atol=1e-6)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            fit_effbw_model([CensusSample(LinkCensus(1, 0, 0), (1, 2), 46.0)])

    def test_dgx_fit_quality(self, dgx):
        model, quality, samples = fit_for_hardware(dgx)
        assert quality.num_samples == len(samples)
        assert quality.r_squared > 0.6
        assert quality.rmse < 10.0

    @pytest.mark.parametrize(
        "topology,rank,dof", [("summit", 7, 0), ("dgx1-v100", 14, 16)]
    )
    def test_design_rank_and_residual_dof(self, topology, rank, dof):
        """Summit's 7 censuses fit with R² = 1 because the design has
        rank 7: zero residual degrees of freedom, an interpolation."""
        _, quality, samples = fit_for_hardware(by_name(topology))
        assert (quality.rank, quality.residual_dof) == (rank, dof)
        assert quality.num_samples == len(samples) == rank + dof

    def test_fit_predictions_in_physical_range(self, dgx, dgx_model):
        """Predictions over the training envelope stay within a sane
        bandwidth range (0 to ~2x the best measurable bandwidth)."""
        samples = exhaustive_census_samples(dgx)
        best = max(s.effective_bw for s in samples)
        for s in samples:
            pred = dgx_model.predict_census(s.census)
            assert 0.0 <= pred <= 2.0 * best


class TestEvaluateFit:
    def test_perfect_model_zero_error(self):
        samples = [
            CensusSample(LinkCensus(1, 0, 0), (1, 5), 10.0),
            CensusSample(LinkCensus(0, 1, 0), (1, 2), 20.0),
            CensusSample(LinkCensus(0, 0, 1), (1, 6), 30.0),
        ]

        class Exact:
            def predict_batch(self, censuses):
                lookup = {(1, 0, 0): 10.0, (0, 1, 0): 20.0, (0, 0, 1): 30.0}
                return np.array([lookup[tuple(c)] for c in censuses])

        q = evaluate_fit(Exact(), samples)
        assert q.rmse == 0.0
        assert q.mae == 0.0
        assert q.relative_error == 0.0
        assert q.r_squared == 1.0
