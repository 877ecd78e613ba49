"""Tests for the precomputed LinkTable cache."""

import pytest

from repro.topology import CODE_TO_AXIS, LinkTable
from repro.topology.links import bandwidth_of, channels_of, classify_xyz, is_nvlink
from repro.topology.linktable import X, Y, Z


@pytest.fixture(params=["dgx", "p100", "summit", "torus"])
def hardware(request):
    return request.getfixturevalue(request.param)


class TestAgreementWithHardwareGraph:
    """The table must agree with per-pair link resolution everywhere."""

    def test_all_pairs_match(self, hardware):
        table = hardware.link_table
        for link in hardware.all_links():
            u, v = link.u, link.v
            expected = hardware.link(u, v)
            assert table.axis(u, v) == classify_xyz(expected)
            assert table.bandwidth(u, v) == bandwidth_of(expected)
            assert table.num_channels(u, v) == channels_of(expected)
            assert table.has_nvlink(u, v) == is_nvlink(expected)

    def test_symmetric(self, hardware):
        table = hardware.link_table
        gpus = hardware.gpus
        for i, u in enumerate(gpus):
            for v in gpus[i + 1 :]:
                assert table.code(u, v) == table.code(v, u)
                assert table.bandwidth(u, v) == table.bandwidth(v, u)

    def test_codes_and_axes_consistent(self, hardware):
        table = hardware.link_table
        for link in hardware.all_links():
            code = table.code(link.u, link.v)
            assert code in (X, Y, Z)
            assert CODE_TO_AXIS[code] == classify_xyz(
                hardware.link(link.u, link.v)
            )


class TestCaching:
    def test_table_is_cached(self, dgx):
        assert dgx.link_table is dgx.link_table

    def test_subgraph_gets_own_table(self, dgx):
        sub = dgx.subgraph([1, 2, 3])
        assert sub.link_table is not dgx.link_table
        assert sub.link_table.n == 3
        assert sub.link_table.bandwidth(1, 2) == dgx.link_table.bandwidth(1, 2)

    def test_standalone_construction(self, dgx):
        table = LinkTable(dgx)
        assert table.n == dgx.num_gpus
        assert table.gpus == dgx.gpus

    def test_unknown_gpu_rejected(self, dgx):
        with pytest.raises(KeyError):
            dgx.link_table.bandwidth(1, 99)


class TestScanUsesTable:
    def test_scan_matches_census_and_aggbw(self, dgx):
        """Spot-check the table-backed scan against first-principles
        per-pair resolution."""
        from repro.appgraph import patterns
        from reference.scan import scan_scored_matches
        from repro.scoring.census import census_of_allocation

        ring = patterns.ring(4)
        for sm in scan_scored_matches(ring, dgx, dgx.gpus):
            assert sm.census == census_of_allocation(dgx, sm.subset)
        sm = next(iter(scan_scored_matches(ring, dgx, dgx.gpus)))
        mapped_edges = [
            (sm.mapping[u], sm.mapping[v]) for u, v in ring.edges
        ]
        assert sm.agg_bw == pytest.approx(
            sum(dgx.bandwidth(u, v) for u, v in mapped_edges)
        )
