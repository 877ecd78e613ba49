"""Reference scan: every match walked one at a time, in pure Python.

The policies in :mod:`repro.policies` score matches through per-wiring
:class:`~repro.policies.scan.MatchTable` rows (numpy gathers, one
product for every orbit's AggBW, unique-census Eq. 2 lookups) and
select winners by first argmax.  This module keeps the original walk
those tables replaced:

* :func:`scan_scored_matches` yields each (subset, orbit permutation)
  match with its induced census, match census and AggBW, subsets
  ascending lexicographically over the sorted free GPUs and orbits in
  :func:`~repro.matching.candidates.orbit_permutations` order;
* :func:`best_scored_match` and :func:`best_subset_then_mapping` select
  by tuple comparison, ties towards the earliest candidate;
* :class:`ScalarGreedy`, :class:`ScalarPreserve` and
  :class:`ScalarOracle` are the three scanning policies written against
  that walk, with Eq. 3 computed per subset by
  :func:`~repro.scoring.preserved.remaining_bandwidth`.

The differential tests require the production policies to make
bit-identical decisions.  :func:`scalar_policy` builds one by registry
name, which is how :class:`reference.replay.ReferenceScheduler` replays
a whole fleet on the scalar walk (``engine="scalar"``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.appgraph.application import ApplicationGraph
from repro.comm.microbench import peak_effective_bandwidth
from repro.matching.candidates import match_from_mapping, orbit_permutations
from repro.policies.base import Allocation, AllocationPolicy, AllocationRequest
from repro.policies.registry import make_policy
from repro.policies.scan import ScoredMatch, _orbit_index_pairs
from repro.scoring.census import LinkCensus
from repro.scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from repro.scoring.preserved import remaining_bandwidth
from repro.topology.hardware import HardwareGraph


def scan_scored_matches(
    pattern: ApplicationGraph,
    hardware: HardwareGraph,
    available: FrozenSet[int] | Sequence[int],
) -> Iterator[ScoredMatch]:
    """Yield every distinct match with its censuses and AggBW."""
    verts = tuple(sorted(set(available)))
    k = pattern.num_gpus
    m = len(verts)
    if k > m:
        return
    orbits = orbit_permutations(pattern)
    # Pattern edges per orbit permutation as flat a*k+b subset indices.
    orbit_flat: List[Tuple[int, ...]] = [
        tuple(a * k + b for a, b in pairs) for pairs in _orbit_index_pairs(pattern)
    ]
    # Remap the topology-wide link table onto the available vertices once:
    # flat m*m upper-triangular arrays of link-class code and bandwidth.
    table = hardware.link_table
    rows = [table.index[g] for g in verts]
    n = table.n
    tcodes = table.codes
    tbw = table.bandwidths
    vcodes = [0] * (m * m)
    vbw = [0.0] * (m * m)
    for i in range(m):
        ri = rows[i] * n
        base = i * m
        for j in range(i + 1, m):
            p = ri + rows[j]
            vcodes[base + j] = tcodes[p]
            vbw[base + j] = tbw[p]
    scode = [0] * (k * k)
    sbw = [0.0] * (k * k)
    for local in combinations(range(m), k):
        subset = tuple(verts[i] for i in local)
        # Per-subset pair codes/bandwidths (flat a*k+b) plus the induced
        # census shared by every mapping on the subset.
        counts = [0, 0, 0]
        for a in range(k):
            base = local[a] * m
            arow = a * k
            for b in range(a + 1, k):
                p = base + local[b]
                c = vcodes[p]
                scode[arow + b] = c
                sbw[arow + b] = vbw[p]
                counts[c] += 1
        induced = LinkCensus(counts[0], counts[1], counts[2])
        for perm, pairs in zip(orbits, orbit_flat):
            mc = [0, 0, 0]
            agg = 0.0
            for q in pairs:
                mc[scode[q]] += 1
                agg += sbw[q]
            yield ScoredMatch(
                subset=subset,
                mapping=tuple(subset[perm[i]] for i in range(k)),
                census=induced,
                match_census=LinkCensus(mc[0], mc[1], mc[2]),
                agg_bw=agg,
            )


def best_scored_match(
    pattern: ApplicationGraph,
    hardware: HardwareGraph,
    available: FrozenSet[int] | Sequence[int],
    key,
) -> Optional[ScoredMatch]:
    """The match maximising ``key(scored_match)``.

    Ties break towards the lexicographically smallest (subset, mapping).
    """
    best: Optional[ScoredMatch] = None
    best_key = None
    for sm in scan_scored_matches(pattern, hardware, available):
        k = (key(sm), tuple(-g for g in sm.subset), tuple(-g for g in sm.mapping))
        if best is None or k > best_key:
            best = sm
            best_key = k
    return best


def best_subset_then_mapping(
    pattern: ApplicationGraph,
    hardware: HardwareGraph,
    available: FrozenSet[int] | Sequence[int],
    subset_key,
) -> Optional[ScoredMatch]:
    """Maximise a *subset-level* score, then AggBW on the winning subset.

    Subset-level scores (induced-census EffBW, measured bandwidth) are
    identical for every mapping on a subset; aligning the pattern's
    edges with the fastest links (max AggBW) is the tie-break.
    """
    best: Optional[ScoredMatch] = None
    best_key = None
    for sm in scan_scored_matches(pattern, hardware, available):
        k = (
            subset_key(sm),
            sm.agg_bw,
            tuple(-g for g in sm.subset),
            tuple(-g for g in sm.mapping),
        )
        if best is None or k > best_key:
            best = sm
            best_key = k
    return best


def most_preserving_match(
    pattern: ApplicationGraph,
    hardware: HardwareGraph,
    available: FrozenSet[int] | Sequence[int],
) -> Tuple[ScoredMatch, float]:
    """Eq. 3: the first subset leaving the most bandwidth free, then the
    AggBW-best mapping *within that subset* — AggBW never arbitrates
    between equally preserving subsets."""
    free = set(available)
    best_subset: Optional[Tuple[int, ...]] = None
    best_score = float("-inf")
    for subset in combinations(sorted(free), pattern.num_gpus):
        score = remaining_bandwidth(hardware, free - set(subset))
        if score > best_score:
            best_score = score
            best_subset = subset
    assert best_subset is not None
    best = best_subset_then_mapping(
        pattern, hardware, frozenset(best_subset), subset_key=lambda sm: 0
    )
    assert best is not None
    return best, best_score


def _allocation(pattern: ApplicationGraph, best: ScoredMatch, scores) -> Allocation:
    return Allocation(
        gpus=best.subset, match=match_from_mapping(pattern, best.mapping), scores=scores
    )


class ScalarGreedy(AllocationPolicy):
    """Greedy on the scalar walk: the AggBW-maximal match."""

    name = "greedy"

    def allocate(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: FrozenSet[int],
    ) -> Optional[Allocation]:
        if not self._feasible(request, available):
            return None
        best = best_scored_match(
            request.pattern, hardware, available, key=lambda sm: sm.agg_bw
        )
        return _allocation(request.pattern, best, {"agg_bw": best.agg_bw})


class ScalarPreserve(AllocationPolicy):
    """Algorithm 1 on the scalar walk: Eq. 2 if sensitive, else Eq. 3."""

    name = "preserve"

    def __init__(self, model: EffectiveBandwidthModel = PAPER_MODEL) -> None:
        self.model = model

    def allocate(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: FrozenSet[int],
    ) -> Optional[Allocation]:
        if not self._feasible(request, available):
            return None
        pattern = request.pattern
        predict = self.model.predict_census
        if request.bandwidth_sensitive:
            best = best_subset_then_mapping(
                pattern, hardware, available, subset_key=lambda sm: predict(sm.census)
            )
            scores = {}
        else:
            best, preserved = most_preserving_match(pattern, hardware, available)
            scores = {"preserved_bw": preserved}
        scores.update(effective_bw=predict(best.census), agg_bw=best.agg_bw)
        return _allocation(pattern, best, scores)


class ScalarOracle(AllocationPolicy):
    """The oracle on the scalar walk: measured bandwidth if sensitive,
    else Eq. 3."""

    name = "oracle"

    def __init__(self) -> None:
        self._measured: Dict[Tuple[HardwareGraph, Tuple[int, ...]], float] = {}

    def _measure(self, hardware: HardwareGraph, subset: Tuple[int, ...]) -> float:
        key = (hardware, subset)
        if key not in self._measured:
            self._measured[key] = peak_effective_bandwidth(hardware, subset)
        return self._measured[key]

    def allocate(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: FrozenSet[int],
    ) -> Optional[Allocation]:
        if not self._feasible(request, available):
            return None
        pattern = request.pattern
        if request.bandwidth_sensitive:
            best = best_subset_then_mapping(
                pattern,
                hardware,
                available,
                subset_key=lambda sm: self._measure(hardware, sm.subset),
            )
            scores = {"measured_bw": self._measure(hardware, best.subset)}
        else:
            best, preserved = most_preserving_match(pattern, hardware, available)
            scores = {"preserved_bw": preserved}
        scores["agg_bw"] = best.agg_bw
        return _allocation(pattern, best, scores)


def scalar_policy(
    name: str, model: EffectiveBandwidthModel = PAPER_MODEL
) -> AllocationPolicy:
    """The scalar-walk twin of ``make_policy(name, model)``.

    Baseline and Topo-aware never scan, so they come from the registry.
    """
    key = name.lower()
    if key == "greedy":
        return ScalarGreedy()
    if key in ("preserve", "preservation"):
        return ScalarPreserve(model)
    if key == "oracle":
        return ScalarOracle()
    return make_policy(name, model)
