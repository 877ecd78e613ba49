"""Unit tests for the reference scan walk the scanning policies are
checked against (``tests/reference/scan.py``)."""

import pytest

from reference.scan import (
    best_scored_match,
    best_subset_then_mapping,
    scan_scored_matches,
)
from repro.appgraph import patterns
from repro.matching.candidates import enumerate_matches, orbit_permutations
from repro.scoring.aggregate import aggregated_bandwidth_of_edges
from repro.scoring.census import census_of_allocation, census_of_edges


def _edges_of(mapping, pattern):
    return [
        tuple(sorted((mapping[u], mapping[v]))) for u, v in pattern.edges
    ]


class TestScanCorrectness:
    def test_count_matches_enumeration(self, dgx):
        pattern = patterns.ring(4)
        scanned = list(scan_scored_matches(pattern, dgx, frozenset(dgx.gpus)))
        enumerated = list(enumerate_matches(pattern, dgx))
        assert len(scanned) == len(enumerated)

    def test_aggbw_agrees_with_scoring_module(self, dgx):
        pattern = patterns.chain(3)
        for sm in scan_scored_matches(pattern, dgx, frozenset(dgx.gpus)):
            expected = aggregated_bandwidth_of_edges(
                dgx, _edges_of(sm.mapping, pattern)
            )
            assert sm.agg_bw == pytest.approx(expected)

    def test_induced_census_agrees(self, dgx):
        pattern = patterns.ring(3)
        for sm in scan_scored_matches(pattern, dgx, frozenset(dgx.gpus)):
            assert sm.census == census_of_allocation(dgx, sm.subset)

    def test_match_census_agrees(self, dgx):
        pattern = patterns.chain(3)
        for sm in scan_scored_matches(pattern, dgx, frozenset(dgx.gpus)):
            assert sm.match_census == census_of_edges(
                dgx, _edges_of(sm.mapping, pattern)
            )

    def test_respects_available(self, dgx):
        pattern = patterns.ring(2)
        scanned = list(scan_scored_matches(pattern, dgx, frozenset({1, 5})))
        assert len(scanned) == 1
        assert scanned[0].subset == (1, 5)

    def test_infeasible_empty(self, dgx):
        assert list(scan_scored_matches(patterns.ring(3), dgx, frozenset({1}))) == []


class TestBestSelection:
    def test_best_is_global_max(self, dgx):
        pattern = patterns.ring(4)
        best = best_scored_match(
            pattern, dgx, frozenset(dgx.gpus), key=lambda sm: sm.agg_bw
        )
        assert best.agg_bw == max(
            sm.agg_bw
            for sm in scan_scored_matches(pattern, dgx, frozenset(dgx.gpus))
        )

    def test_tiebreak_lowest_ids(self, dgx):
        # Constant key: winner must be the lexicographically first candidate.
        best = best_scored_match(
            patterns.ring(2), dgx, frozenset(dgx.gpus), key=lambda sm: 0
        )
        assert best.subset == (1, 2)

    def test_none_when_infeasible(self, dgx):
        assert (
            best_scored_match(
                patterns.ring(3), dgx, frozenset({1}), key=lambda sm: 0
            )
            is None
        )

    def test_subset_then_mapping_aligns_edges(self, dgx):
        """For a chain on the winning subset, the mapping must route the
        pattern edges over the fastest links (max AggBW tiebreak)."""
        best = best_subset_then_mapping(
            patterns.chain(3),
            dgx,
            frozenset({1, 2, 5}),
            subset_key=lambda sm: 0,  # force the single subset, test mapping
        )
        # Chain edges should use 1-2 (25) and 1-5 (50), not 2-5 (PCIe):
        # the middle slot must land on GPU 1.
        assert best.mapping[1] == 1
        assert best.agg_bw == 75.0
