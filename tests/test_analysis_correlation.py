"""Tests for metric-correlation analyses (paper Figs. 11/12/15/16)."""

import numpy as np
import pytest

from repro.analysis.correlation import (
    effbw_time_curve,
    enumerate_allocation_points,
    metric_correlations,
    pearson,
    predicted_vs_actual,
    simulated_vs_reference,
    spearman,
)
from repro.policies.registry import make_policy
from repro.sim.cluster import run_policy
from repro.workloads.catalog import get_workload
from repro.workloads.generator import generate_job_file


class TestCorrelationHelpers:
    def test_pearson_perfect(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_pearson_constant_series(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_pearson_needs_pairs(self):
        with pytest.raises(ValueError):
            pearson([1], [2])

    def test_spearman_monotone_nonlinear(self):
        xs = [1, 2, 3, 4, 5]
        ys = [1 / x for x in xs]
        assert spearman(xs, ys) == pytest.approx(-1.0)

    def test_spearman_ties_take_average_ranks(self):
        xs = [3.0, 1.0, 3.0, 2.0, 3.0, 0.5, 2.0]
        ys = [1.0, 5.0, 2.0, 2.0, 7.0, 1.0, 4.0]
        assert spearman(xs, ys) == pearson(
            [6, 2, 6, 3.5, 6, 1, 3.5], [1.5, 6, 3.5, 3.5, 7, 1.5, 5]
        )

    def test_spearman_constant_series(self):
        assert spearman([2, 2, 2], [1, 2, 3]) == 0.0


class TestFig11:
    @pytest.fixture(scope="class")
    def points(self, dgx):
        return enumerate_allocation_points(dgx, get_workload("vgg-16"))

    def test_enumeration_covers_sizes(self, dgx, points):
        from math import comb

        assert len(points) == comb(8, 4) + comb(8, 5)

    def test_effbw_tracks_time_better_than_aggbw(self, points):
        """The paper's core methodological claim (Fig. 11a vs 11c):
        |corr(EffBW, time)| > |corr(AggBW, time)|."""
        corr = metric_correlations(points)
        assert abs(corr["effbw_vs_time"]) > abs(corr["aggbw_vs_time"])

    def test_effbw_time_strongly_negative(self, points):
        # Mixed 4- and 5-GPU points (like Fig. 11c): strong but not perfect,
        # because a 5-GPU job is slower than a 4-GPU one at equal EffBW.
        corr = metric_correlations(points)
        assert corr["effbw_vs_time"] < -0.75

    def test_effbw_determines_time_within_a_size(self, dgx):
        """For a fixed GPU count, execution time is a strictly decreasing
        function of effective bandwidth."""
        pts = enumerate_allocation_points(dgx, get_workload("vgg-16"), sizes=(4,))
        assert spearman(
            [p.effective_bw for p in pts], [p.exec_time for p in pts]
        ) == pytest.approx(-1.0)

    def test_aggbw_imperfect_proxy_for_effbw(self, points):
        """Fig. 11b: AggBW does not determine EffBW — allocations exist
        with higher AggBW but lower EffBW."""
        inversions = 0
        for i, a in enumerate(points):
            for b in points[i + 1 :][:200]:
                if a.agg_bw > b.agg_bw and a.effective_bw < b.effective_bw:
                    inversions += 1
        assert inversions > 0


class TestFig12:
    def test_prediction_correlates_with_actual(self, dgx, dgx_model):
        pairs = predicted_vs_actual(dgx, dgx_model)
        actual = [a for k in pairs for a, _ in pairs[k]]
        pred = [p for k in pairs for _, p in pairs[k]]
        assert pearson(actual, pred) > 0.85

    def test_generalises_across_sizes(self, dgx, dgx_model):
        """Fig. 12: the fit holds for each job size individually.

        Size 5 is excluded: almost every 5-GPU DGX-V allocation collapses
        to the PCIe floor in the ring model, so its measured bandwidths are
        nearly constant and correlation is undefined-ish (recorded as a
        deviation in EXPERIMENTS.md).
        """
        pairs = predicted_vs_actual(dgx, dgx_model)
        for k in (2, 3, 4):
            actual = [a for a, _ in pairs[k]]
            pred = [p for _, p in pairs[k]]
            assert pearson(actual, pred) > 0.6, f"size {k}"


class TestFig15And16:
    def test_simulated_vs_reference_correlates(self, dgx, dgx_model):
        trace = generate_job_file(60, seed=3)
        log = run_policy(dgx, make_policy("preserve", dgx_model), trace, dgx_model)
        pairs = simulated_vs_reference(log)
        ref = [a for a, _ in pairs]
        sim = [b for _, b in pairs]
        assert pearson(ref, sim) > 0.7

    def test_fig16_sensitive_curve_decreasing(self):
        curve = effbw_time_curve(get_workload("vgg-16"), [10, 20, 40, 80])
        times = [t for _, t in curve]
        assert times == sorted(times, reverse=True)

    def test_fig16_insensitive_curve_flat(self):
        curve = effbw_time_curve(get_workload("googlenet"), [10, 80])
        assert curve[0][1] / curve[1][1] < 1.15
