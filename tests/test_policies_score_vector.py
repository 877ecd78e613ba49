"""The committed score vector equals a from-scratch recomputation.

A scanning policy (Greedy, Preserve, Oracle) reads every score of its
proposal off the match table, and :class:`~repro.allocator.mapa.Mapa`
commits the proposal without re-scoring it.  These differential tests
commit random requests on random free sets of every built-in wiring —
through ``Mapa.try_allocate`` and through the multi-server scheduler's
first-fit and best-score paths, under both scan sources — and require
the committed :class:`~repro.policies.base.Allocation` (GPUs, match,
score items *in order*, job id) to equal the scalar walk's winner
scored by :func:`reference.scan.annotate`, which recomputes the vector
with ``census_of_allocation``, ``preserved_bandwidth``,
``aggregated_bandwidth`` and ``model.predict_census``.

A spilled winner keeps only the objective's own scores (no census keys,
no appended ``preserved_bw``), and must still commit to the same
allocation.
"""

import tempfile
from functools import lru_cache
from itertools import takewhile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.scan import annotate, objective_scores, scalar_policy
from repro.allocator.mapa import Mapa
from repro.appgraph import patterns
from repro.cluster import MultiServerScheduler
from repro.experiments.spill import ScanSpillStore
from repro.policies.base import AllocationRequest
from repro.policies.registry import make_policy
from repro.policies.scan import SCAN_ENGINES
from repro.scoring.effective import PAPER_MODEL
from repro.scoring.memo import ScanCache
from repro.scoring.regression import fit_for_hardware
from repro.topology.builders import TOPOLOGY_BUILDERS, by_name, dgx1_v100

_WIRINGS = {name: by_name(name) for name in sorted(TOPOLOGY_BUILDERS)}
_SHAPES = {
    "ring": patterns.ring,
    "chain": patterns.chain,
    "tree": patterns.tree,
    "star": patterns.star,
    "alltoall": patterns.all_to_all,
}
_POLICIES = ("greedy", "preserve", "oracle")
#: The engine's own Eq. 2 model; the policies score with a refit one,
#: so a proposal's ``effective_bw`` and the engine's must not mix.
_ENGINE_MODEL = PAPER_MODEL
_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@lru_cache(maxsize=1)
def _policy_model():
    model, _, _ = fit_for_hardware(dgx1_v100())
    return model


def _draw_case(data, wiring, policy):
    """A request and a free set small enough for the scalar walk."""
    hardware = _WIRINGS[wiring]
    cap = min(hardware.num_gpus, 6 if policy == "oracle" else 8)
    k = data.draw(st.integers(1, min(4, cap)), label="k")
    shape = data.draw(st.sampled_from(sorted(_SHAPES)), label="shape")
    free = data.draw(
        st.sets(st.sampled_from(hardware.gpus), min_size=k, max_size=cap),
        label="free",
    )
    sensitive = data.draw(st.booleans(), label="sensitive")
    request = AllocationRequest(_SHAPES[shape](k), sensitive, job_id="job")
    return hardware, request, frozenset(free)


def _expected(policy, hardware, request, free):
    """The scalar walk's winner with its score vector recomputed."""
    model = _policy_model()
    want = scalar_policy(policy, model).allocate(request, hardware, free)
    head = objective_scores(
        policy, request.bandwidth_sensitive, hardware, want.match, free, model
    )
    scores = annotate(head, hardware, want.match, free, _ENGINE_MODEL)
    return want.gpus, want.match, list(scores.items())


def _block(state, free):
    busy = [g for g in state.hardware.gpus if g not in free]
    if busy:
        state.allocate("busy", busy)


def _commit(via, policy, hardware, request, free):
    if via == "mapa":
        mapa = Mapa(hardware, policy, _ENGINE_MODEL)
        _block(mapa.state, free)
        return mapa.try_allocate(request)
    scheduler = MultiServerScheduler(
        [hardware], gpu_policy=policy, node_policy=via, model=_ENGINE_MODEL
    )
    _block(scheduler.engines[0].state, free)
    scheduler.resync_index()
    return scheduler.try_place(request).allocation


def _assert_committed(got, want):
    gpus, match, items = want
    assert got.gpus == gpus
    assert got.match == match
    assert list(got.scores.items()) == items
    assert got.job_id == "job"


@_SETTINGS
@given(
    wiring=st.sampled_from(sorted(_WIRINGS)),
    policy=st.sampled_from(_POLICIES),
    engine=st.sampled_from(SCAN_ENGINES),
    via=st.sampled_from(("mapa", "first-fit", "best-score")),
    data=st.data(),
)
def test_committed_score_vector_matches_reference(wiring, policy, engine, via, data):
    hardware, request, free = _draw_case(data, wiring, policy)
    live = make_policy(policy, _policy_model(), engine=engine)
    got = _commit(via, live, hardware, request, free)
    _assert_committed(got, _expected(policy, hardware, request, free))


def _head(scores) -> list:
    """The objective's own score items: everything before ``census_x``."""
    return list(takewhile(lambda item: item[0] != "census_x", scores.items()))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    wiring=st.sampled_from(sorted(_WIRINGS)),
    policy=st.sampled_from(_POLICIES),
    data=st.data(),
)
def test_spilled_winners_commit_the_same_vector(wiring, policy, data):
    hardware, request, free = _draw_case(data, wiring, policy)
    source = ScanCache()
    proposal = make_policy(policy, _policy_model(), cache=source).allocate(
        request, hardware, free
    )
    with tempfile.TemporaryDirectory() as root:
        ScanSpillStore(root).spill(source)
        warmed = ScanCache()
        assert ScanSpillStore(root).load(warmed) == 1
    (seeded,) = warmed.entries()
    (spilled,) = seeded.winners.values()
    assert list(spilled.scores.items()) == _head(proposal.scores)
    live = make_policy(policy, _policy_model(), cache=warmed)
    got = _commit("mapa", live, hardware, request, free)
    assert warmed.stats.hits == 1
    _assert_committed(got, _expected(policy, hardware, request, free))
