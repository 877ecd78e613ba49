"""Scanning policies must make *identical* decisions to the scalar walk.

End-to-end churn: random allocate/release sequences driven through a
scanning policy and its one-match-at-a-time twin from
``tests/reference/scan.py``, asserting every proposed allocation (GPUs,
mapping, full score dict) is equal, exactly.

The cached scan source answers scans by restricting a server-wide match
table to the free set; on every built-in wiring, a restriction must
equal a dense build over the free GPUs attribute by attribute, and the
winners both scan sources and the scalar walk select must be the same.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.scan import ScalarGreedy, ScalarOracle, ScalarPreserve
from repro.allocator.mapa import Mapa
from repro.appgraph import patterns
from repro.policies.base import AllocationRequest
from repro.policies.greedy import GreedyPolicy
from repro.policies.oracle import OraclePolicy
from repro.policies.preserve import PreservePolicy
from repro.policies.registry import make_policy
from repro.policies.scan import SCAN_ENGINES, CachedScan, batch_scan
from repro.scoring.effective import PAPER_MODEL
from repro.scoring.memo import ScanCache
from repro.scoring.regression import fit_for_hardware
from repro.topology.builders import (
    TOPOLOGY_BUILDERS,
    by_name,
    dgx1_v100,
    summit_node,
)

_PATTERNS = ("ring", "chain", "tree", "star", "alltoall")


def _make_pattern(name, k):
    return {
        "ring": patterns.ring,
        "chain": patterns.chain,
        "tree": patterns.tree,
        "star": patterns.star,
        "alltoall": patterns.all_to_all,
    }[name](k)


def _assert_allocations_equal(a, b, context):
    if a is None or b is None:
        assert a is None and b is None, context
        return
    assert a.gpus == b.gpus, context
    assert a.match == b.match, context
    assert dict(a.scores) == dict(b.scores), context


def _churn(policy_batch, policy_scalar, hardware, seed, events=60):
    """Drive both policies through the same random allocate/release churn."""
    rng = random.Random(seed)
    batch_mapa = Mapa(hardware, policy_batch)
    scalar_mapa = Mapa(hardware, policy_scalar)
    live = []
    for step in range(events):
        if live and (rng.random() < 0.4 or batch_mapa.state.num_free == 0):
            job = live.pop(rng.randrange(len(live)))
            assert batch_mapa.release(job) == scalar_mapa.release(job)
            continue
        k = rng.randint(1, min(5, hardware.num_gpus))
        name = rng.choice(_PATTERNS)
        sensitive = rng.random() < 0.7
        request = AllocationRequest(
            pattern=_make_pattern(name, k),
            bandwidth_sensitive=sensitive,
            job_id=("job", step),
        )
        a = batch_mapa.try_allocate(request)
        b = scalar_mapa.try_allocate(request)
        _assert_allocations_equal(
            a, b, f"step {step}: {name}({k}) sensitive={sensitive}"
        )
        if a is not None:
            live.append(("job", step))
        batch_mapa.state.check_invariants()
        scalar_mapa.state.check_invariants()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_engines_identical_under_churn(seed):
    _churn(GreedyPolicy(engine="batch"), ScalarGreedy(),
           dgx1_v100(), seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_preserve_engines_identical_under_churn(seed):
    model, _, _ = fit_for_hardware(dgx1_v100())
    _churn(
        PreservePolicy(model, engine="batch"),
        ScalarPreserve(model),
        dgx1_v100(),
        seed,
    )


def test_preserve_engines_identical_on_summit():
    _churn(
        PreservePolicy(engine="batch"),
        ScalarPreserve(),
        summit_node(),
        seed=7,
    )


def test_oracle_engines_identical_under_churn():
    _churn(
        OraclePolicy(engine="batch"),
        ScalarOracle(),
        dgx1_v100(),
        seed=3,
        events=25,  # the microbenchmark makes oracle scans expensive
    )


# ---------------------------------------------------------------------- #
# table restrictions vs dense builds, on every built-in wiring
# ---------------------------------------------------------------------- #
_WIRINGS = {name: by_name(name) for name in sorted(TOPOLOGY_BUILDERS)}

#: The dense arrays a scan exposes (lazily, on a restriction).
_SCAN_ARRAYS = (
    "subsets_local",
    "induced_census",
    "match_census",
    "agg_bw",
    "subset_pair_bw",
    "free_bandwidth",
)


def _assert_restriction_equals_dense(pattern, hardware, free):
    """The server-wide table restricted to ``free`` == a build over ``free``."""
    cached = CachedScan()
    mask = cached.cache.free_mask(hardware, free)
    scan = cached.table(pattern, hardware).restrict(mask)
    dense = batch_scan(pattern, hardware, free)
    if dense is None:
        assert scan is None
        return
    assert scan.verts == dense.verts
    assert scan.orbits == dense.orbits
    assert scan.num_matches == dense.num_matches
    for name in _SCAN_ARRAYS:
        got, want = getattr(scan, name), getattr(dense, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        np.testing.assert_array_equal(got, want, err_msg=name)
    np.testing.assert_array_equal(
        scan.subset_preserved_bw(), dense.subset_preserved_bw()
    )
    np.testing.assert_array_equal(
        scan.subset_effective_bw(
            PAPER_MODEL.predict_census, PAPER_MODEL.coefficients
        ),
        dense.subset_effective_bw(PAPER_MODEL.predict_census),
    )
    if scan.num_matches <= 2000:
        for s in range(scan.num_subsets):
            for o in range(scan.num_orbits):
                assert scan.scored_match(s, o) == dense.scored_match(s, o)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    wiring=st.sampled_from(sorted(_WIRINGS)),
    shape=st.sampled_from(_PATTERNS),
    k=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_restriction_equals_dense_build_on_every_wiring(wiring, shape, k, data):
    hardware = _WIRINGS[wiring]
    free = data.draw(st.sets(st.sampled_from(hardware.gpus)), label="free")
    _assert_restriction_equals_dense(
        _make_pattern(shape, k), hardware, sorted(free)
    )


@pytest.mark.parametrize("wiring", sorted(_WIRINGS))
def test_cached_and_batch_winners_equal_scalar_on_random_free_sets(wiring):
    hardware = _WIRINGS[wiring]
    rng = random.Random(wiring)
    shared = ScanCache()
    engines = {
        engine: {
            "greedy": GreedyPolicy(engine=engine, cache=shared),
            "preserve": PreservePolicy(engine=engine, cache=shared),
            "oracle": OraclePolicy(engine=engine, cache=shared),
        }
        for engine in SCAN_ENGINES
    }
    engines["scalar"] = {
        "greedy": ScalarGreedy(),
        "preserve": ScalarPreserve(),
        "oracle": ScalarOracle(),
    }
    for trial in range(10):
        # Scalar scans stay small: at most 10 free GPUs, 8 for the
        # oracle's per-subset microbenchmark.
        size = rng.randint(1, min(hardware.num_gpus, 10))
        free = frozenset(rng.sample(hardware.gpus, size))
        k = rng.randint(1, min(5, size))
        name = rng.choice(_PATTERNS)
        for sensitive in (True, False):
            request = AllocationRequest(_make_pattern(name, k), sensitive)
            for policy in ("greedy", "preserve", "oracle"):
                if policy == "oracle" and size > 8:
                    continue
                want = engines["scalar"][policy].allocate(request, hardware, free)
                context = f"{wiring} trial {trial}: {policy} {name}({k}) on {sorted(free)}"
                for engine in ("cached", "batch"):
                    got = engines[engine][policy].allocate(request, hardware, free)
                    _assert_allocations_equal(got, want, f"{engine} {context}")


def test_idle_dgx2_five_gpu_chain():
    """The largest table the paper mix reaches: C(16, 5) × 60 matches."""
    hardware = by_name("dgx2")
    pattern = patterns.chain(5)
    idle = frozenset(hardware.gpus)
    _assert_restriction_equals_dense(pattern, hardware, hardware.gpus)
    for cls, scalar, sensitive in (
        (GreedyPolicy, ScalarGreedy, True),
        (PreservePolicy, ScalarPreserve, True),
        (PreservePolicy, ScalarPreserve, False),
    ):
        request = AllocationRequest(pattern, sensitive)
        want = scalar().allocate(request, hardware, idle)
        for engine in SCAN_ENGINES:
            got = cls(engine=engine).allocate(request, hardware, idle)
            _assert_allocations_equal(
                got, want, f"{cls.name} sensitive={sensitive} {engine}"
            )


def test_registry_passes_engine_through():
    assert make_policy("greedy", engine="batch").engine == "batch"
    assert make_policy("preserve").engine == "cached"
    assert make_policy("preserve", engine="batch").engine == "batch"
    assert make_policy("oracle", engine="batch").engine == "batch"
    # non-scanning policies ignore the engine argument
    make_policy("baseline", engine="batch")
    make_policy("topo-aware", engine="batch")


def test_registry_passes_shared_cache_through():
    from repro.scoring.memo import ScanCache

    shared = ScanCache()
    greedy = make_policy("greedy", cache=shared)
    preserve = make_policy("preserve", cache=shared)
    assert greedy.scan_cache is shared
    assert preserve.scan_cache is shared
    # non-cached engines hold no cache at all
    assert make_policy("greedy", engine="batch").scan_cache is None


@pytest.mark.parametrize(
    "cls", [GreedyPolicy, PreservePolicy, OraclePolicy]
)
def test_unknown_engine_rejected(cls):
    with pytest.raises(ValueError):
        cls(engine="simd")


def test_scalar_engine_is_gone(capsys):
    """The scalar walk lives in tests/reference/: every door to it
    from the library and the CLI is shut."""
    import repro.policies
    from repro.cli import main
    from repro.cluster import run_cluster
    from repro.workloads.generator import generate_job_file

    assert SCAN_ENGINES == ("cached", "batch")
    walk = ("scan_scored_matches", "best_scored_match", "best_subset_then_mapping")
    for name in walk:
        assert not hasattr(repro.policies, name)
        assert not hasattr(repro.policies.scan, name)
    for cls in (GreedyPolicy, PreservePolicy, OraclePolicy):
        with pytest.raises(ValueError, match="scalar"):
            cls(engine="scalar")
    with pytest.raises(ValueError, match="scalar"):
        make_policy("greedy", engine="scalar")
    trace = generate_job_file(num_jobs=3, max_gpus=4, seed=0)
    with pytest.raises(ValueError, match="scalar"):
        run_cluster([dgx1_v100()], trace, engine="scalar")
    with pytest.raises(SystemExit) as exit_info:
        main(["fleet", "--engine", "scalar"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'scalar'" in capsys.readouterr().err
