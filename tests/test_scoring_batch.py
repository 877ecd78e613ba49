"""The batch-scoring engine must be *bit-identical* to the scalar path.

Property tests over random patterns × topologies × free sets compare
every array the engine produces against the scalar reference
implementations (``scan_scored_matches`` from ``tests/reference/scan.py``,
``census_of_edges``, ``remaining_bandwidth``,
``EffectiveBandwidthModel.predict``) with
**exact** equality — no tolerances.  This is the guarantee that lets
the policies run the vectorized engine while every benchmark table
stays byte-identical.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.scan import batch_scan, scan_scored_matches
from repro.appgraph import patterns
from repro.scoring import batch as batch_scoring
from repro.scoring.census import census_of_edges
from repro.scoring.effective import PAPER_MODEL
from repro.scoring.preserved import remaining_bandwidth
from repro.scoring.regression import fit_for_hardware
from repro.topology.builders import (
    cube_mesh_16,
    dgx1_p100,
    dgx1_v100,
    summit_node,
)

_TOPOLOGIES = {
    "dgx1-v100": dgx1_v100(),
    "dgx1-p100": dgx1_p100(),
    "summit": summit_node(),
    "cube-mesh-16": cube_mesh_16(),
}

_PATTERN_MAKERS = {
    "ring": patterns.ring,
    "chain": patterns.chain,
    "tree": patterns.tree,
    "star": patterns.star,
    "alltoall": patterns.all_to_all,
    "single": patterns.single,
}


# ---------------------------------------------------------------------- #
# array-level helpers
# ---------------------------------------------------------------------- #
def test_pair_slots_order_matches_nested_loops():
    k = 5
    a_idx, b_idx = batch_scoring.pair_slots(k)
    expected = [(a, b) for a in range(k) for b in range(a + 1, k)]
    assert list(zip(a_idx.tolist(), b_idx.tolist())) == expected


def test_pair_slot_positions_roundtrip():
    k = 6
    pos = batch_scoring.pair_slot_positions(k)
    a_idx, b_idx = batch_scoring.pair_slots(k)
    for p, (a, b) in enumerate(zip(a_idx, b_idx)):
        assert pos[a, b] == p
    assert pos[3, 3] == -1
    assert pos[4, 2] == -1


def test_batch_census_counts_classes():
    codes = np.array([[0, 0, 1, 2], [2, 2, 2, 2]])
    out = batch_scoring.batch_census(codes)
    assert out.tolist() == [[2, 1, 1], [0, 0, 4]]


def test_batch_census_empty_edges():
    codes = np.zeros((3, 0), dtype=np.int64)
    assert batch_scoring.batch_census(codes).tolist() == [[0, 0, 0]] * 3


def test_batch_agg_bw_exact():
    bws = np.array([[25.0, 50.0, 12.0], [12.0, 12.0, 12.0]])
    assert batch_scoring.batch_agg_bw(bws).tolist() == [87.0, 36.0]


def test_score_pair_matrix_matches_scalar_census():
    hw = dgx1_v100()
    table = hw.link_table
    edges = [(1, 2), (1, 4), (3, 8)]
    pair_matrix = np.array([[table.flat(u, v) for u, v in edges]])
    scores = batch_scoring.score_pair_matrix(table, pair_matrix)
    scalar = census_of_edges(hw, edges)
    assert scores.census_of(0) == scalar
    assert scores.agg_bw[0] == sum(hw.bandwidth(u, v) for u, v in edges)
    assert len(scores) == 1


def test_batch_effective_bw_bit_equal_to_scalar():
    census = np.array([[0, 0, 3], [1, 2, 0], [0, 0, 3], [4, 4, 2]])
    out = batch_scoring.batch_effective_bw(PAPER_MODEL, census)
    for row, value in zip(census, out):
        assert value == PAPER_MODEL.predict(*(float(v) for v in row))
    # duplicate rows share one prediction
    assert out[0] == out[2]


def test_batch_effective_bw_empty():
    out = batch_scoring.batch_effective_bw(PAPER_MODEL, np.zeros((0, 3)))
    assert out.shape == (0,)


# ---------------------------------------------------------------------- #
# engine-level equivalence (the headline property)
# ---------------------------------------------------------------------- #
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    topo=st.sampled_from(sorted(_TOPOLOGIES)),
    shape=st.sampled_from(sorted(_PATTERN_MAKERS)),
    k=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_batch_scan_bit_identical_to_scalar_scan(topo, shape, k, data):
    hardware = _TOPOLOGIES[topo]
    pattern = _PATTERN_MAKERS[shape](k)
    # Random free subset, capped so the scalar reference stays fast.
    max_free = min(hardware.num_gpus, 8)
    free_size = data.draw(
        st.integers(min_value=1, max_value=max_free), label="free_size"
    )
    free = tuple(
        data.draw(
            st.permutations(hardware.gpus), label="free_order"
        )[:free_size]
    )
    scalar = list(scan_scored_matches(pattern, hardware, free))
    scan = batch_scan(pattern, hardware, free)
    if scan is None:
        assert scalar == []
        return
    assert scan.num_matches == len(scalar)
    O = scan.num_orbits
    for i, sm in enumerate(scalar):
        s, o = divmod(i, O)
        bm = scan.scored_match(s, o)
        # dataclass equality: subset, mapping, both censuses, agg_bw —
        # exact, including the floats.
        assert bm == sm

    # Eq. 3 per subset vs the scalar remaining-bandwidth sum.
    preserved = scan.subset_preserved_bw()
    np.testing.assert_array_equal(
        scan.table.preserved_bw(scan.kept, scan.free_mask), preserved
    )
    free_set = set(free)
    for s, subset in enumerate(combinations(sorted(free_set), k)):
        assert preserved[s] == remaining_bandwidth(
            hardware, free_set - set(subset)
        )

    # Eq. 2 per subset vs the scalar model, exact.
    eff = scan.subset_effective_bw(PAPER_MODEL.predict_census)
    for s in range(scan.num_subsets):
        assert eff[s] == PAPER_MODEL.predict_census(scalar[s * O].census)


def test_batch_scan_infeasible_returns_none():
    hw = summit_node()
    assert batch_scan(patterns.ring(7), hw, hw.gpus) is None
    assert batch_scan(patterns.ring(3), hw, ()) is None


def test_batch_scan_with_refit_model_exact():
    """The bit-equality holds for refit coefficients too, not just Table 2."""
    hw = dgx1_v100()
    model, _, _ = fit_for_hardware(hw)
    scan = batch_scan(patterns.ring(4), hw, hw.gpus)
    eff = scan.subset_effective_bw(model.predict_census)
    scalar = list(scan_scored_matches(patterns.ring(4), hw, hw.gpus))
    O = scan.num_orbits
    for s in range(scan.num_subsets):
        assert eff[s] == model.predict_census(scalar[s * O].census)


def test_batch_scan_arrays_are_consistent_shapes():
    hw = dgx1_v100()
    scan = batch_scan(patterns.ring(5), hw, hw.gpus)
    S, O = scan.num_subsets, scan.num_orbits
    assert scan.subsets_local.shape == (S, 5)
    assert scan.induced_census.shape == (S, 3)
    assert scan.match_census.shape == (S, O, 3)
    assert scan.agg_bw.shape == (S, O)
    assert scan.num_matches == S * O
    assert scan.subset_pair_bw.shape == (S, 10)
    assert scan.free_bandwidth.shape == (8, 8)


def test_single_gpu_pattern_scores_zero():
    hw = dgx1_v100()
    scan = batch_scan(patterns.single(1), hw, hw.gpus)
    assert scan.num_matches == 8
    assert scan.agg_bw.tolist() == [[0.0]] * 8
    assert scan.induced_census.tolist() == [[0, 0, 0]] * 8


def test_censuses_as_tuples_roundtrip():
    census = np.array([[1, 2, 3], [0, 0, 0]])
    rows = batch_scoring.censuses_as_tuples(census)
    assert [c.as_tuple() for c in rows] == [(1, 2, 3), (0, 0, 0)]


def test_link_table_numpy_views_are_read_only():
    table = dgx1_v100().link_table
    assert not table.codes_flat.flags.writeable
    assert not table.bandwidths_flat.flags.writeable
    with pytest.raises(ValueError):
        table.codes_flat[0] = 1
    assert table.codes_matrix.shape == (8, 8)
    assert table.bandwidth_matrix[0, 0] == 0.0
    # matrix view agrees with the scalar accessors
    for u in (1, 3):
        for v in (5, 8):
            r, c = table.index[u], table.index[v]
            assert table.codes_matrix[r, c] == table.code(u, v)
            assert table.bandwidth_matrix[r, c] == table.bandwidth(u, v)
