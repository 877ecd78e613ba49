"""Exactness of the ring-bandwidth shape memo (``comm.microbench``).

The simulated microbenchmark peels NCCL rings once per order-preserving
induced channel graph ("shape") of a GPU subset and serves every other
subset of that shape from a memo.  These tests hold that memo to
bit-identity with a fresh :func:`~repro.comm.rings.build_rings` on every
built-in wiring — also when another wiring filled the memo first, which
is where a key that forgot a link property would hand back the wrong
float — and pin the Eq. 2 refit of every wiring to the bit.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import microbench
from repro.comm.microbench import (
    PROTOCOL_EFFICIENCY,
    peak_effective_bandwidth,
    release_graph_memo,
)
from repro.comm.rings import build_rings
from repro.scoring.regression import fit_for_hardware
from repro.topology.builders import TOPOLOGY_BUILDERS, by_name

WIRINGS = {name: by_name(name) for name in TOPOLOGY_BUILDERS}

#: The wiring whose measurements fill the memo before ``name`` is
#: checked: each pair shares GPU ids and channel counts, and the two
#: DGX-1 generations differ only in per-channel bandwidth.
PRIMERS = {
    "dgx1-v100": "dgx1-p100",
    "dgx1-p100": "dgx1-v100",
    "dgx1-v100-cube-mesh": "dgx1-p100",
    "summit": "dgx1-v100",
    "torus-2d-16": "cube-mesh-16",
    "cube-mesh-16": "torus-2d-16",
    "dgx2": "cube-mesh-16",
    "big-basin": "dgx1-v100",
    "p3dn": "dgx1-v100",
}

#: ``fit_for_hardware(by_name(name))`` coefficients as ``float.hex``,
#: computed with one ring peel per GPU subset (no shape memo).
REFIT_COEFFICIENTS = {
    "dgx1-v100": (
        "-0x1.3b7e6882d4402p+2", "0x1.3094c460f600bp+2",
        "0x1.6887d1f1fd48ap-4", "-0x1.0b936e2b7b645p+6",
        "-0x1.d7527a71c15b9p+0", "0x1.468003c88b9bdp+2",
        "0x1.31738877f0dc4p+1", "0x1.719b49c012027p-1",
        "0x1.46a43a3836a8cp+1", "0x1.a337a1e9625c1p+5",
        "0x1.49f01b9f58407p+4", "0x1.e524029775babp+5",
        "-0x1.1d83aed3de8c0p+0", "-0x1.af5becd70ba72p+5",
    ),
    "dgx1-v100-cube-mesh": (
        "0x1.883fb5c9c5483p+3", "0x1.1c443f1050f2ep+5",
        "0x1.503c7fc4d47eap-1", "-0x1.2f19d0b34f19cp+7",
        "-0x1.f4096be2cb544p+5", "-0x1.cc3cb27ae3fd3p+6",
        "-0x1.56e004ab977cdp+3", "-0x1.473f440b45a77p+2",
        "-0x1.30b97d331c5e6p-4", "0x1.4537e6ab711a4p+7",
        "0x1.eaf6b572c3a54p+6", "0x1.686c486e15dcap+7",
        "0x1.fb0cc54fb9640p+0", "-0x1.699da1a146c0dp+7",
    ),
    "dgx1-p100": (
        "0x1.2000000000000p-46", "-0x1.b3aeb7cb283b8p-2",
        "-0x1.c77cbb16e2b21p-4", "0x1.4ba6dcca2b602p+1",
        "-0x1.c8c426198aa51p+2", "0x1.a3ccbca14bf3fp+2",
        "0x0.0p+0", "0x1.f8bedf741172ap-3",
        "0x0.0p+0", "0x1.4ba6dcca2b61ap+1",
        "0x1.387c260407616p+2", "0x1.4ba6dcca2b617p+1",
        "0x0.0p+0", "0x1.4ba6dcca2b617p+1",
    ),
    "summit": (
        "0x1.578ef40a03a5ap+1", "-0x1.1400000000000p-41",
        "0x1.5cc193992f932p+2", "0x1.578ef40a03a25p+4",
        "-0x1.12aaa4b9b31c3p+3", "0x1.83b114afe7e84p+6",
        "0x0.0p+0", "0x0.0p+0",
        "-0x1.3ffa77997b0a8p-1", "-0x1.12aaa4b9b321ep+3",
        "-0x1.12aaa4b9b321ep+3", "-0x1.e02861d27ba4bp+4",
        "0x0.0p+0", "-0x1.12aaa4b9b321ep+3",
    ),
    "torus-2d-16": (
        "0x1.d1b17db7f127dp+2", "0x1.313f487d622b0p+2",
        "0x1.a88341dbedf8dp+0", "-0x1.fef6850c146d4p+4",
        "-0x1.be00a0d8690f4p+1", "0x1.21dda357d226ap+4",
        "-0x1.29e37507c84f3p+1", "-0x1.1c377a20bef80p-1",
        "-0x1.424d8e8b40855p+0", "0x1.c4c339d246a5bp+4",
        "0x1.627f699d3f6b0p+2", "0x1.596cc800d1e11p+4",
        "0x1.949420aa9a23fp-2", "-0x1.5fc9540bf7317p+4",
    ),
    "cube-mesh-16": (
        "-0x1.499db51ef5c05p+2", "0x1.4d9ed8f97f40ap+2",
        "0x1.a6efe08ebac9ep+0", "-0x1.7e9e154f2e090p+5",
        "0x1.1843584bb1554p+4", "0x1.a26fe51c091d4p+4",
        "0x1.8d5e058be32c9p+0", "-0x1.b1ac1511e5f0ap-2",
        "0x1.8e58751f9693dp-3", "0x1.a301c6b170163p+4",
        "-0x1.16513f19aee63p+2", "0x1.ac75fe3f27d7ep+4",
        "-0x1.4032890e0b46cp-3", "-0x1.40c71e98b1883p+4",
    ),
    "dgx2": (
        "0x1.dc03d2c154f70p+2", "-0x1.c000000000000p-47",
        "-0x1.4000000000000p-45", "0x1.76cbc5e58de4fp+5",
        "0x1.362ad778aed0cp+1", "0x1.362ad778aed0cp+1",
        "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.362ad778aed0cp+1",
        "0x1.362ad778aed0cp+1", "0x1.362ad778aed0cp+1",
        "0x0.0p+0", "0x1.362ad778aed0cp+1",
    ),
    "big-basin": (
        "-0x1.3b7e6882d4402p+2", "0x1.3094c460f600bp+2",
        "0x1.6887d1f1fd48ap-4", "-0x1.0b936e2b7b645p+6",
        "-0x1.d7527a71c15b9p+0", "0x1.468003c88b9bdp+2",
        "0x1.31738877f0dc4p+1", "0x1.719b49c012027p-1",
        "0x1.46a43a3836a8cp+1", "0x1.a337a1e9625c1p+5",
        "0x1.49f01b9f58407p+4", "0x1.e524029775babp+5",
        "-0x1.1d83aed3de8c0p+0", "-0x1.af5becd70ba72p+5",
    ),
    "p3dn": (
        "-0x1.3b7e6882d4402p+2", "0x1.3094c460f600bp+2",
        "0x1.6887d1f1fd48ap-4", "-0x1.0b936e2b7b645p+6",
        "-0x1.d7527a71c15b9p+0", "0x1.468003c88b9bdp+2",
        "0x1.31738877f0dc4p+1", "0x1.719b49c012027p-1",
        "0x1.46a43a3836a8cp+1", "0x1.a337a1e9625c1p+5",
        "0x1.49f01b9f58407p+4", "0x1.e524029775babp+5",
        "-0x1.1d83aed3de8c0p+0", "-0x1.af5becd70ba72p+5",
    ),
}


def _fresh(hardware, gpus) -> float:
    return build_rings(hardware, gpus).total_bandwidth_gbps * PROTOCOL_EFFICIENCY


@st.composite
def _subsets(draw):
    name = draw(st.sampled_from(sorted(WIRINGS)))
    gpus = WIRINGS[name].gpus
    k = draw(st.integers(2, min(len(gpus), 8)))
    return name, tuple(draw(st.permutations(gpus))[:k])


@settings(max_examples=60, deadline=None)
@given(_subsets())
def test_cold_memo_matches_a_fresh_peel(case):
    name, gpus = case
    release_graph_memo()
    hardware = WIRINGS[name]
    assert peak_effective_bandwidth(hardware, gpus) == _fresh(hardware, gpus)


@settings(max_examples=60, deadline=None)
@given(_subsets())
def test_memo_primed_by_another_wiring_matches_a_fresh_peel(case):
    name, gpus = case
    release_graph_memo()
    primer = WIRINGS[PRIMERS[name]]
    if set(gpus) <= set(primer.gpus):
        peak_effective_bandwidth(primer, gpus)
    for subset in combinations(primer.gpus[:6], min(len(gpus), 6)):
        peak_effective_bandwidth(primer, subset)
    hardware = WIRINGS[name]
    assert peak_effective_bandwidth(hardware, gpus) == _fresh(hardware, gpus)


def test_shared_memo_serves_every_subset_exactly():
    """DGX-1 V100 then P100 through one memo, every 2–4-GPU subset."""
    release_graph_memo()
    for name in ("dgx1-v100", "dgx1-p100"):
        hardware = WIRINGS[name]
        for k in (2, 3, 4):
            for gpus in combinations(hardware.gpus, k):
                assert peak_effective_bandwidth(hardware, gpus) == _fresh(
                    hardware, gpus
                ), (name, gpus)


def _coefficients(name):
    model, _, _ = fit_for_hardware(WIRINGS[name])
    return tuple(c.hex() for c in model.coefficients)


def test_refit_coefficients_are_bit_identical_from_a_cold_memo():
    for name in TOPOLOGY_BUILDERS:
        release_graph_memo()
        assert _coefficients(name) == REFIT_COEFFICIENTS[name], name


def test_refit_coefficients_are_bit_identical_through_one_warm_memo():
    release_graph_memo()
    for name in TOPOLOGY_BUILDERS:
        microbench._ring_bandwidth.cache_clear()  # keep only the shape memo
        assert _coefficients(name) == REFIT_COEFFICIENTS[name], name


def test_shape_key_is_size_then_pairs_in_sorted_gpu_order():
    release_graph_memo()
    hardware = WIRINGS["dgx1-v100"]
    table = hardware.link_table

    def entry(u, v):
        p = table.flat(u, v)
        return (table.channels[p], table.per_channel[p]) if table.nvlink[p] else 0

    bandwidth = peak_effective_bandwidth(hardware, (5, 2, 1))
    shape = (3, entry(1, 2), entry(1, 5), entry(2, 5))
    assert microbench._SHAPE_MEMO == {
        shape: build_rings(hardware, (1, 2, 5)).total_bandwidth_gbps
    }
    assert bandwidth == microbench._SHAPE_MEMO[shape] * PROTOCOL_EFFICIENCY


def test_memo_is_bounded_and_released(monkeypatch):
    monkeypatch.setattr(microbench, "_SHAPE_MEMO_CAP", 3)
    release_graph_memo()
    hardware = WIRINGS["dgx1-p100"]
    for gpus in combinations(hardware.gpus, 3):
        assert peak_effective_bandwidth(hardware, gpus) == _fresh(hardware, gpus)
        assert len(microbench._SHAPE_MEMO) <= 3
    release_graph_memo()
    assert not microbench._SHAPE_MEMO
    assert microbench._ring_bandwidth.cache_info().currsize == 0


def test_unknown_gpu_still_raises_the_peel_error():
    release_graph_memo()
    with pytest.raises(KeyError, match="unknown GPU 99"):
        peak_effective_bandwidth(WIRINGS["dgx1-v100"], (1, 99))
