"""Unit tests for the four allocation policies."""

import pytest

from repro.appgraph import patterns
from repro.policies import (
    AllocationRequest,
    BaselinePolicy,
    GreedyPolicy,
    PreservePolicy,
    TopoAwarePolicy,
    all_policies,
    make_policy,
)
from repro.scoring.aggregate import aggregated_bandwidth
from repro.scoring.census import census_of_allocation
from repro.scoring.preserved import remaining_bandwidth


def _req(k, pattern="ring", sensitive=True):
    return AllocationRequest(
        pattern=patterns.by_name(pattern, k), bandwidth_sensitive=sensitive
    )


def _free(hw, exclude=()):
    return frozenset(set(hw.gpus) - set(exclude))


class TestBaseline:
    def test_lowest_ids(self, dgx):
        alloc = BaselinePolicy().allocate(_req(3), dgx, _free(dgx))
        assert alloc.gpus == (1, 2, 3)

    def test_skips_busy(self, dgx):
        alloc = BaselinePolicy().allocate(_req(2), dgx, _free(dgx, [1, 3]))
        assert alloc.gpus == (2, 4)

    def test_infeasible(self, dgx):
        assert BaselinePolicy().allocate(_req(3), dgx, frozenset({1, 2})) is None

    def test_match_attached(self, dgx):
        alloc = BaselinePolicy().allocate(_req(3), dgx, _free(dgx))
        assert alloc.match is not None
        assert alloc.match.vertices == (1, 2, 3)


class TestTopoAware:
    def test_packs_under_one_quad(self, dgx):
        alloc = TopoAwarePolicy().allocate(_req(3), dgx, _free(dgx))
        quad = set(alloc.gpus)
        assert quad <= {1, 2, 3, 4} or quad <= {5, 6, 7, 8}

    def test_prefers_emptier_fit(self, dgx):
        # Quad A has 2 free, quad B fully free: a 3-GPU job must go to B.
        alloc = TopoAwarePolicy().allocate(_req(3), dgx, frozenset({3, 4, 5, 6, 7, 8}))
        assert set(alloc.gpus) <= {5, 6, 7, 8}

    def test_spills_when_necessary(self, dgx):
        alloc = TopoAwarePolicy().allocate(
            _req(3), dgx, frozenset({1, 2, 5})
        )
        assert alloc is not None
        assert alloc.gpus == (1, 2, 5)

    def test_infeasible(self, dgx):
        assert TopoAwarePolicy().allocate(_req(4), dgx, frozenset({1})) is None

    def test_tree_cached_per_hardware(self, dgx):
        policy = TopoAwarePolicy()
        policy.allocate(_req(2), dgx, _free(dgx))
        policy.allocate(_req(2), dgx, _free(dgx))
        assert len(policy._trees) == 1


class TestGreedy:
    def test_maximises_aggbw(self, dgx):
        alloc = GreedyPolicy().allocate(_req(3), dgx, _free(dgx))
        # The ideal 3-GPU ring allocation of section 2.2.
        assert set(alloc.gpus) in ({1, 3, 4}, {5, 7, 8})
        assert alloc.scores["agg_bw"] == 125.0

    def test_no_better_match_exists(self, dgx):
        alloc = GreedyPolicy().allocate(_req(3), dgx, _free(dgx))
        from reference.scan import scan_scored_matches

        best = max(
            sm.agg_bw
            for sm in scan_scored_matches(patterns.ring(3), dgx, _free(dgx))
        )
        assert alloc.scores["agg_bw"] == best

    def test_respects_availability(self, dgx):
        alloc = GreedyPolicy().allocate(_req(2), dgx, frozenset({2, 6, 8}))
        # Best pair among {2,6,8}: 6-8 is a double (50).
        assert set(alloc.gpus) == {6, 8}

    def test_infeasible(self, dgx):
        assert GreedyPolicy().allocate(_req(5), dgx, frozenset({1, 2})) is None


class TestPreserve:
    def test_sensitive_maximises_predicted_effbw(self, dgx, dgx_model):
        policy = PreservePolicy(dgx_model)
        alloc = policy.allocate(_req(3, sensitive=True), dgx, _free(dgx))
        census = census_of_allocation(dgx, alloc.gpus)
        best = max(
            dgx_model.predict_census(census_of_allocation(dgx, s))
            for s in __import__("itertools").combinations(dgx.gpus, 3)
        )
        assert dgx_model.predict_census(census) == pytest.approx(best)

    def test_insensitive_maximises_preserved(self, dgx, dgx_model):
        policy = PreservePolicy(dgx_model)
        alloc = policy.allocate(_req(3, sensitive=False), dgx, _free(dgx))
        free = set(dgx.gpus)
        achieved = remaining_bandwidth(dgx, free - set(alloc.gpus))
        best = max(
            remaining_bandwidth(dgx, free - set(s))
            for s in __import__("itertools").combinations(dgx.gpus, 3)
        )
        assert achieved == best

    def test_insensitive_leaves_ideal_region_intact(self, dgx, dgx_model):
        """After an insensitive 2-GPU job is placed, a future sensitive
        3-GPU job can still get the server's ideal 125 GB/s allocation —
        the fleet-level property Eq. 3 optimises for."""
        from itertools import combinations

        policy = PreservePolicy(dgx_model)
        alloc = policy.allocate(_req(2, sensitive=False), dgx, _free(dgx))
        remaining = set(dgx.gpus) - set(alloc.gpus)
        best_triple = max(
            dgx.aggregate_bandwidth(s) for s in combinations(sorted(remaining), 3)
        )
        assert best_triple == 125.0

    def test_sensitive_gets_double_pair(self, dgx, dgx_model):
        policy = PreservePolicy(dgx_model)
        alloc = policy.allocate(_req(2, sensitive=True), dgx, _free(dgx))
        assert dgx.bandwidth(*alloc.gpus) == 50.0

    def test_default_model_is_paper(self):
        from repro.scoring.effective import PAPER_MODEL

        assert PreservePolicy().model is PAPER_MODEL

    def test_prediction_cache(self, dgx, dgx_model):
        policy = PreservePolicy(dgx_model)
        policy.allocate(_req(3), dgx, _free(dgx))
        assert len(policy._predict_cache) > 0

    def test_infeasible(self, dgx, dgx_model):
        policy = PreservePolicy(dgx_model)
        assert policy.allocate(_req(4), dgx, frozenset({1, 2, 3})) is None


class TestRegistry:
    def test_all_four_policies(self):
        policies = all_policies()
        assert list(policies) == ["baseline", "topo-aware", "greedy", "preserve"]

    def test_make_policy_aliases(self):
        assert make_policy("topo_aware").name == "topo-aware"
        assert make_policy("preservation").name == "preserve"

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("random")

    def test_model_threaded_to_preserve(self, dgx_model):
        policy = make_policy("preserve", dgx_model)
        assert policy.model is dgx_model


class TestDeterminism:
    @pytest.mark.parametrize("name", ["baseline", "topo-aware", "greedy", "preserve"])
    def test_same_inputs_same_output(self, dgx, name):
        p1 = make_policy(name)
        p2 = make_policy(name)
        a1 = p1.allocate(_req(3), dgx, _free(dgx))
        a2 = p2.allocate(_req(3), dgx, _free(dgx))
        assert a1.gpus == a2.gpus
        assert a1.match.mapping == a2.match.mapping
