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
bit-identical decisions, complete score vector included: the scalar
policies score their winner with
:func:`~repro.scoring.census.census_of_allocation` and
:func:`~repro.scoring.preserved.preserved_bandwidth`, in the key order
the production proposals carry.  :func:`scalar_policy` builds one by
registry name, which is how :class:`reference.replay.ReferenceScheduler`
replays a whole fleet on the scalar walk (``engine="scalar"``).

:class:`BatchScan` keeps the dense per-scan arrays (subsets, censuses,
match censuses, AggBW, pair bandwidths) that a restriction of a
:class:`~repro.policies.scan.MatchTable` used to expose, computed from
the table's rows, so the tests can compare a restriction with a dense
build attribute by attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.appgraph.application import ApplicationGraph
from repro.comm.microbench import peak_effective_bandwidth
from repro.matching.candidates import Match, match_from_mapping, orbit_permutations
from repro.policies import scan as production
from repro.policies.base import Allocation, AllocationPolicy, AllocationRequest
from repro.policies.registry import make_policy
from repro.policies.scan import MatchTable, _orbit_incidence, _orbit_index_pairs
from repro.scoring import batch as batch_scoring
from repro.scoring.aggregate import aggregated_bandwidth
from repro.scoring.census import LinkCensus, census_of_allocation
from repro.scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from repro.scoring.preserved import preserved_bandwidth, remaining_bandwidth
from repro.topology.hardware import HardwareGraph


@dataclass(frozen=True)
class ScoredMatch:
    """A candidate match with its cheap scores precomputed.

    ``census`` is the induced (x, y, z) census of the matched GPU set —
    the Eq. 2 input; ``match_census`` counts only the links the pattern's
    edges occupy; ``agg_bw`` is Eq. 1 over those same mapped edges.
    """

    subset: Tuple[int, ...]
    mapping: Tuple[int, ...]
    census: LinkCensus
    match_census: LinkCensus
    agg_bw: float


def scored_match(table: MatchTable, row: int, o: int) -> ScoredMatch:
    """Table match ``(row, orbit o)`` as a :class:`ScoredMatch`.

    The match census is counted from the link classes of the orbit's
    edges.
    """
    local = table.subsets[row].tolist()
    subset = tuple(table.verts[i] for i in local)
    counts = [0, 0, 0]
    for a, b in _orbit_index_pairs(table.pattern)[o]:
        counts[int(table.codes[local[a], local[b]])] += 1
    x, y, z = table.census[row].tolist()
    return ScoredMatch(
        subset=subset,
        mapping=tuple(subset[p] for p in table.orbits[o]),
        census=LinkCensus(x, y, z),
        match_census=LinkCensus(counts[0], counts[1], counts[2]),
        agg_bw=float(table.agg_bw[row, o]),
    )


class BatchScan:
    """The dense candidate space of one scan: a restriction of a table.

    ``(table, kept rows, free mask)``: restricted subset ``s`` is table
    row ``kept[s]``, and match ``(s, o)`` is the ``s * num_orbits +
    o``-th match in candidate order.  The array attributes equal
    (order, dtype, values) a dense build over the free GPUs.

    Attributes
    ----------
    verts:
        The free GPUs, sorted ascending (the subset universe).
    subsets_local:
        ``(S, k)`` candidate subsets as indices into ``verts``.
    induced_census:
        ``(S, 3)`` induced (x, y, z) census of each subset.
    match_census:
        ``(S, O, 3)`` census of the links each match's edges occupy.
    agg_bw:
        ``(S, O)`` Eq. 1 AggBW per match.
    subset_pair_bw:
        ``(S, P)`` pairwise bandwidths of each subset.
    free_bandwidth:
        ``(m, m)`` bandwidth matrix over ``verts`` (zero diagonal).
    """

    def __init__(self, table: MatchTable, kept: np.ndarray, free_mask: int) -> None:
        self.table = table
        self.kept = kept
        self.free_mask = free_mask

    @property
    def pattern(self) -> ApplicationGraph:
        return self.table.pattern

    @property
    def orbits(self) -> Tuple[Tuple[int, ...], ...]:
        return self.table.orbits

    @property
    def num_subsets(self) -> int:
        return self.kept.shape[0]

    @property
    def num_orbits(self) -> int:
        return len(self.table.orbits)

    @property
    def num_matches(self) -> int:
        return self.num_subsets * self.num_orbits

    @cached_property
    def free_index(self) -> np.ndarray:
        """Table-universe indices of the free GPUs, ascending."""
        mask = self.free_mask
        return np.array(
            [i for i in range(len(self.table.verts)) if mask >> i & 1],
            dtype=np.intp,
        )

    @cached_property
    def verts(self) -> Tuple[int, ...]:
        verts = self.table.verts
        return tuple([verts[i] for i in self.free_index.tolist()])

    @property
    def _subsets(self) -> np.ndarray:
        return self.table.subsets[self.kept]

    @cached_property
    def subsets_local(self) -> np.ndarray:
        rank = np.full(len(self.table.verts), -1, dtype=np.intp)
        rank[self.free_index] = np.arange(self.free_index.size, dtype=np.intp)
        return rank[self._subsets]

    @cached_property
    def induced_census(self) -> np.ndarray:
        return self.table.census[self.kept]

    @cached_property
    def agg_bw(self) -> np.ndarray:
        return self.table.agg_bw[self.kept]

    @cached_property
    def match_census(self) -> np.ndarray:
        a_idx, b_idx = batch_scoring.pair_slots(self.pattern.num_gpus)
        subsets = self._subsets
        codes = self.table.codes[subsets[:, a_idx], subsets[:, b_idx]]
        incidence = _orbit_incidence(self.pattern)
        out = np.empty((self.num_subsets, self.num_orbits, 3), dtype=np.int64)
        for axis, c in enumerate(batch_scoring.CLASS_CODES):
            out[..., axis] = (codes == c) @ incidence
        return out

    @cached_property
    def subset_pair_bw(self) -> np.ndarray:
        a_idx, b_idx = batch_scoring.pair_slots(self.pattern.num_gpus)
        subsets = self._subsets
        return self.table.bandwidth[subsets[:, a_idx], subsets[:, b_idx]]

    @cached_property
    def free_bandwidth(self) -> np.ndarray:
        index = self.free_index
        return self.table.bandwidth[index[:, None], index]

    def subset(self, s: int) -> Tuple[int, ...]:
        return self.table.subset(int(self.kept[s]))

    def scored_match(self, s: int, o: int) -> ScoredMatch:
        return scored_match(self.table, int(self.kept[s]), o)

    def subset_effective_bw(
        self,
        predict: Callable[[LinkCensus], float],
        token: Optional[Hashable] = None,
    ) -> np.ndarray:
        """Eq. 2 of every subset; through the table's memo under ``token``."""
        if token is None:
            return batch_scoring.map_unique_censuses(
                self.induced_census, lambda x, y, z: predict(LinkCensus(x, y, z))
            )
        return self.table.effective_bw(predict, token)[self.kept]

    def subset_preserved_bw(self) -> np.ndarray:
        """Eq. 3 of every subset against the free set."""
        table = self.table
        free = np.zeros(len(table.verts), dtype=np.float64)
        free[self.free_index] = 1.0
        return batch_scoring.batch_preserved_bw(
            table.bandwidth, free, self._subsets, table.within[self.kept]
        )


def restriction(table: MatchTable, free_mask: int) -> Optional[BatchScan]:
    """``table`` restricted to ``free_mask`` as a dense :class:`BatchScan`."""
    kept = table.restrict(free_mask)
    return None if kept is None else BatchScan(table, kept, free_mask)


def batch_scan(
    pattern: ApplicationGraph,
    hardware: HardwareGraph,
    available: FrozenSet[int] | Sequence[int],
) -> Optional[BatchScan]:
    """:func:`repro.policies.scan.batch_scan` as a dense :class:`BatchScan`."""
    table = production.batch_scan(pattern, hardware, available)
    return None if table is None else restriction(table, table.full_mask)


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


def _allocation(
    pattern: ApplicationGraph,
    hardware: HardwareGraph,
    available: FrozenSet[int] | Sequence[int],
    best: ScoredMatch,
    scores: Dict[str, float],
) -> Allocation:
    """The complete proposal: the objective's scores (ending with
    ``agg_bw``), the induced census, then Eq. 3 unless already there."""
    match = match_from_mapping(pattern, best.mapping)
    census = census_of_allocation(hardware, best.subset)
    scores["census_x"] = float(census.x)
    scores["census_y"] = float(census.y)
    scores["census_z"] = float(census.z)
    if "preserved_bw" not in scores:
        scores["preserved_bw"] = preserved_bandwidth(hardware, match, available)
    return Allocation(gpus=best.subset, match=match, scores=scores)


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
        return _allocation(
            request.pattern, hardware, available, best, {"agg_bw": best.agg_bw}
        )


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
        return _allocation(pattern, hardware, available, best, scores)


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
        return _allocation(pattern, hardware, available, best, scores)


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


def objective_scores(
    policy: str,
    sensitive: bool,
    hardware: HardwareGraph,
    match: Match,
    available: FrozenSet[int] | Sequence[int],
    model: EffectiveBandwidthModel = PAPER_MODEL,
) -> Dict[str, float]:
    """The scores a scanning policy selects by, recomputed for ``match``:
    the head of its proposal, in key order, ending with ``agg_bw``."""
    agg = aggregated_bandwidth(hardware, match)
    if policy == "greedy":
        return {"agg_bw": agg}
    head: Dict[str, float] = {}
    if not sensitive:
        head["preserved_bw"] = preserved_bandwidth(hardware, match, available)
    if policy == "oracle":
        if sensitive:
            head["measured_bw"] = peak_effective_bandwidth(hardware, match.vertices)
    else:
        census = census_of_allocation(hardware, match.vertices)
        head["effective_bw"] = model.predict_census(census)
    head["agg_bw"] = agg
    return head


def annotate(
    head: Dict[str, float],
    hardware: HardwareGraph,
    match: Match,
    available: FrozenSet[int] | Sequence[int],
    model: EffectiveBandwidthModel,
) -> Dict[str, float]:
    """The committed score vector, recomputed from scratch.

    ``head`` first, then AggBW unless present, the induced census,
    Eq. 2 under ``model`` unless present and Eq. 3 unless present —
    the key order :class:`~repro.allocator.mapa.Mapa` commits.
    """
    scores = dict(head)
    if "agg_bw" not in scores:
        scores["agg_bw"] = aggregated_bandwidth(hardware, match)
    census = census_of_allocation(hardware, match.vertices)
    scores["census_x"] = float(census.x)
    scores["census_y"] = float(census.y)
    scores["census_z"] = float(census.z)
    if "effective_bw" not in scores:
        scores["effective_bw"] = model.predict_census(census)
    if "preserved_bw" not in scores:
        scores["preserved_bw"] = preserved_bandwidth(hardware, match, available)
    return scores
