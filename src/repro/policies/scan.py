"""Fast scored scan over candidate matches.

Greedy and Preserve both reduce to "maximise a score over all matches of
the pattern on the free GPUs".  MAPA's scores are functions of two
things only:

* the **induced census** of the matched vertex set — the paper defines a
  match ``M`` with ``E(P) ⊆ E(M)``, i.e. ``M`` is the induced subgraph
  over the chosen GPUs, and Eq. 2's (x, y, z) counts *its* links (that is
  also what the NCCL microbenchmark that trains the model exercises);
* the **mapped pattern edges** ``E(P) ∩ E(M)`` — what AggBW (Eq. 1) sums.

Every match of a pattern is scored once, in a :class:`MatchTable` built
against the topology's precomputed
:class:`~repro.topology.linktable.LinkTable`: the dense builder
enumerates the k-subsets of a GPU universe as numpy index matrices and
reduces them through :mod:`repro.scoring.batch` — induced censuses via
one gather, AggBW for every orbit via one product, Eq. 2 via
unique-census lookup.  A scan (:class:`BatchScan`) is a *restriction*
of a table: the rows whose subset lies inside the free set, selected by
bitmask.  The ``best_*`` selectors read table rows and materialise only
the winner.

A scanning policy (:class:`~repro.policies.base.ScanningPolicy`) gets
its scans from one of two *scan sources*, picked once by ``engine=``:

* :class:`CachedScan` (``engine="cached"``, what the policies run in
  production) holds one table per (wiring, pattern), built over the
  whole server on first contact and kept in the
  :class:`~repro.scoring.memo.ScanCache`'s ``aux`` side-car, and answers
  each scan by restricting it to the free mask.  The restrictions — and
  the argmax winners selected from them — are stored in the cache keyed
  by ``(topology_hash, pattern_id, free_set_bitmask)``, so a server that
  returns to a previously seen free set replays the stored winner
  without even filtering;
* :class:`UncachedScan` (``engine="batch"``) builds a table over the
  free GPUs on every call (:func:`batch_scan`) and keeps all of its
  rows.

A restriction of the server-wide table equals a table built over the
free GPUs alone, so both sources select bit-identical winners.  Both
also agree with the one-match-at-a-time walk that the differential
tests keep as their oracle (``tests/reference/scan.py``): subsets
ascend lexicographically over the sorted free GPUs, orbit permutations
keep their :func:`~repro.matching.candidates.orbit_permutations` order
within each subset, and every selector breaks score ties towards the
*earliest* candidate, so "first argmax" reproduces the walk's
tuple-comparison tie-breaks exactly (see :mod:`repro.scoring.batch` for
why the scores are bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..appgraph.application import ApplicationGraph
from ..matching.candidates import orbit_permutations
from ..scoring import batch as batch_scoring
from ..scoring.census import LinkCensus
from ..scoring.memo import CacheEntry, ScanCache, pattern_id
from ..topology.hardware import HardwareGraph

Pair = Tuple[int, int]


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


@lru_cache(maxsize=256)
def _orbit_index_pairs(
    pattern: ApplicationGraph,
) -> Tuple[Tuple[Pair, ...], ...]:
    """Per orbit permutation, the pattern edges as subset-index pairs.

    Memoized alongside :func:`~repro.matching.candidates.orbit_permutations`
    (patterns hash by structure): every scan of the same pattern reuses
    one table.
    """
    out: List[Tuple[Pair, ...]] = []
    for perm in orbit_permutations(pattern):
        pairs = tuple(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in pattern.edges
        )
        out.append(pairs)
    return tuple(out)


@lru_cache(maxsize=512)
def _subset_matrix(m: int, k: int) -> np.ndarray:
    """All ``C(m, k)`` ascending index subsets as a read-only int matrix.

    A pure function of the two sizes, shared by every scan with ``m``
    free GPUs and a ``k``-slot pattern — the single most expensive
    constant of a cold scan at fleet scale (a 16-GPU server has 1820
    4-subsets).
    """
    subsets = np.array(
        list(combinations(range(m), k)), dtype=np.intp
    ).reshape(-1, k)
    subsets.flags.writeable = False
    return subsets


# ---------------------------------------------------------------------- #
# per-wiring match tables and their restrictions
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=256)
def _orbit_incidence(pattern: ApplicationGraph) -> np.ndarray:
    """``(P, O)`` 0/1 matrix: column ``o`` marks orbit ``o``'s pair slots.

    Rows follow :func:`~repro.scoring.batch.pair_slots` order
    (``P = k·(k-1)/2``).  A ``(S, P)`` matrix of per-subset pair values
    times this matrix sums each orbit's mapped pattern edges — Eq. 1 for
    every match in one product, exact because bandwidths are
    integer-valued.  Memoized (read-only) beside :func:`_orbit_index_pairs`.
    """
    k = pattern.num_gpus
    pos = batch_scoring.pair_slot_positions(k)
    orbit_pairs = _orbit_index_pairs(pattern)
    incidence = np.zeros((k * (k - 1) // 2, len(orbit_pairs)), dtype=np.float64)
    for o, pairs in enumerate(orbit_pairs):
        for a, b in pairs:
            incidence[pos[a, b], o] = 1.0
    incidence.flags.writeable = False
    return incidence


@lru_cache(maxsize=512)
def _subset_masks(m: int, k: int) -> np.ndarray:
    """Bitmask of every row of ``_subset_matrix(m, k)``: bit ``i`` is index ``i``.

    Int64 while ``m`` bits fit one; Python ints beyond, so a wider
    custom wiring still filters exactly.  Memoized and read-only.
    """
    subsets = _subset_matrix(m, k)
    if m < 63:
        masks = np.left_shift(1, subsets).sum(axis=1, dtype=np.int64)
    else:
        masks = np.array(
            [sum(1 << i for i in row) for row in subsets.tolist()], dtype=object
        )
    masks.flags.writeable = False
    return masks


def _predict_rows(
    census: np.ndarray, predict: Callable[[LinkCensus], float]
) -> np.ndarray:
    """``predict`` over census rows, once per unique census."""
    return batch_scoring.map_unique_censuses(
        census, lambda x, y, z: predict(LinkCensus(x, y, z))
    )


class MatchTable:
    """Every match of one pattern on one GPU universe, scored once.

    Rows are the ``C(n, k)`` k-subsets of ``verts`` in lexicographic
    order.  Per row the table holds the subset's bitmask over ``verts``
    (bit ``i`` is ``verts[i]``; over a whole server that is the
    :attr:`AllocationState.free_bitmask
    <repro.allocator.state.AllocationState.free_bitmask>` convention),
    its induced census, its pairwise-bandwidth sum and the AggBW of each
    orbit permutation.  None of these depend on which *other* GPUs are
    free, so one table answers every scan of its (wiring, pattern):
    :meth:`restrict` keeps the rows whose mask lies inside the free set.
    Those are exactly the k-subsets of the free GPUs, in the same
    lexicographic order, so every argmax and tie-break over a
    restriction is the one a build over the free GPUs alone would make.
    Only PreservedBW (Eq. 3) reads the free set; the restriction
    computes it from the free mask.

    Attributes
    ----------
    pattern, verts, orbits:
        The pattern, the universe (ascending GPU ids) and the pattern's
        orbit permutations in enumeration order.
    subsets:
        ``(S, k)`` read-only index rows into ``verts``.
    masks, full_mask:
        ``(S,)`` read-only bitmask of each row, and the mask of the
        whole universe.
    census:
        ``(S, 3)`` int64 induced (x, y, z) census (the Eq. 2 input).
    within:
        ``(S,)`` float64 sum of the row's pairwise bandwidths.
    agg_bw:
        ``(S, O)`` float64 Eq. 1 AggBW per (row, orbit).
    agg_best, agg_max:
        Per row, the first orbit attaining the row's largest AggBW and
        that value — the mapping tie-break every selector applies.
    bandwidth, codes:
        ``(n, n)`` bandwidth (zero diagonal) and link-class matrices
        over ``verts``.
    """

    def __init__(
        self,
        pattern: ApplicationGraph,
        hardware: HardwareGraph,
        verts: Sequence[int],
    ) -> None:
        k = pattern.num_gpus
        n = len(verts)
        link = hardware.link_table
        rows = link.rows_of(verts)
        grid = (rows[:, None], rows)
        codes = link.codes_matrix[grid]
        bandwidth = link.bandwidth_matrix[grid]
        np.fill_diagonal(bandwidth, 0.0)
        subsets = _subset_matrix(n, k)
        a_idx, b_idx = batch_scoring.pair_slots(k)
        sub_a = subsets[:, a_idx]
        sub_b = subsets[:, b_idx]
        pair_bw = bandwidth[sub_a, sub_b]  # (S, P)
        self.pattern = pattern
        self.verts: Tuple[int, ...] = tuple(verts)
        self.orbits = orbit_permutations(pattern)
        self.subsets = subsets
        self.masks = _subset_masks(n, k)
        self.full_mask = (1 << n) - 1
        self.census = batch_scoring.batch_census(codes[sub_a, sub_b])
        self.within = pair_bw.sum(axis=1, dtype=np.float64)
        self.agg_bw = pair_bw @ _orbit_incidence(pattern)
        self.agg_best = self.agg_bw.argmax(axis=1)
        self.agg_max = self.agg_bw.max(axis=1)
        self.bandwidth = bandwidth
        self.codes = codes
        self._code_rows = codes.tolist()
        self._orbit_pairs = _orbit_index_pairs(pattern)
        self._effective: Dict[Hashable, np.ndarray] = {}

    def restrict(self, free_mask: int) -> Optional["BatchScan"]:
        """The scan of the free set ``free_mask`` (bits over ``verts``).

        ``None`` when the pattern does not fit the free set.
        """
        busy = self.full_mask & ~free_mask
        kept = np.flatnonzero((self.masks & busy) == 0)
        if kept.size == 0:
            return None
        return BatchScan(self, kept, free_mask)

    def effective_bw(
        self, predict: Callable[[LinkCensus], float], token: Hashable
    ) -> np.ndarray:
        """Eq. 2 score of every row, memoized per ``token``.

        ``token`` must identify ``predict`` (the policies pass the
        model's coefficient vector).
        """
        scores = self._effective.get(token)
        if scores is None:
            scores = self._effective[token] = _predict_rows(self.census, predict)
        return scores

    # ------------------------------------------------------------------ #
    def subset(self, row: int) -> Tuple[int, ...]:
        """GPU ids of row ``row`` (ascending)."""
        verts = self.verts
        return tuple([verts[i] for i in self.subsets[row].tolist()])

    def scored_match(self, row: int, o: int) -> ScoredMatch:
        """Materialise match ``(row, orbit o)`` as a :class:`ScoredMatch`.

        Only ever called for selected winners.  The match census is
        counted from the link classes of the orbit's edges rather than
        stored per match.
        """
        local = self.subsets[row].tolist()
        verts = self.verts
        subset = tuple([verts[i] for i in local])
        codes = self._code_rows
        counts = [0, 0, 0]
        for a, b in self._orbit_pairs[o]:
            counts[codes[local[a]][local[b]]] += 1
        x, y, z = self.census[row].tolist()
        return ScoredMatch(
            subset=subset,
            mapping=tuple([subset[p] for p in self.orbits[o]]),
            census=LinkCensus(x, y, z),
            match_census=LinkCensus(counts[0], counts[1], counts[2]),
            agg_bw=float(self.agg_bw[row, o]),
        )


class BatchScan:
    """The whole candidate space of one scan: a restriction of a table.

    A :class:`BatchScan` is ``(table, kept rows, free mask)``: the
    :class:`MatchTable` rows whose subsets lie inside the free set.
    Restricted subset ``s`` is table row ``kept[s]``, and match
    ``(s, o)`` is the ``s * num_orbits + o``-th match in candidate
    order.  The array attributes below are computed on first access,
    equal (order, dtype, values) to a dense build over the free GPUs;
    the selectors never touch them and read the table's rows instead.

    Attributes
    ----------
    pattern:
        The application pattern being matched.
    verts:
        The free GPUs, sorted ascending (the subset universe).
    orbits:
        Orbit permutations of the pattern, in enumeration order.
    subsets_local:
        ``(S, k)`` int array of candidate subsets as indices into
        ``verts`` (rows ascend lexicographically).
    induced_census:
        ``(S, 3)`` int array — the induced (x, y, z) census of each
        subset, shared by all of its mappings (the Eq. 2 input).
    match_census:
        ``(S, O, 3)`` int array — the census of the links each match's
        pattern edges occupy (``E(P) ∩ E(M)``).
    agg_bw:
        ``(S, O)`` float array — Eq. 1 AggBW per match.
    subset_pair_bw:
        ``(S, P)`` float array of per-subset pairwise bandwidths
        (``P = k·(k-1)/2``).
    free_bandwidth:
        ``(m, m)`` bandwidth matrix over ``verts`` (zero diagonal).
    """

    def __init__(self, table: MatchTable, kept: np.ndarray, free_mask: int) -> None:
        self.table = table
        self.kept = kept
        self.free_mask = free_mask

    @property
    def pattern(self) -> ApplicationGraph:
        """The application pattern being matched."""
        return self.table.pattern

    @property
    def orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """Orbit permutations of the pattern, in enumeration order."""
        return self.table.orbits

    @property
    def num_subsets(self) -> int:
        """Number of candidate GPU subsets (``C(m, k)``)."""
        return self.kept.shape[0]

    @property
    def num_orbits(self) -> int:
        """Distinct orbit permutations of the pattern."""
        return len(self.table.orbits)

    @property
    def num_matches(self) -> int:
        """Total candidates scored: subsets × orbit permutations."""
        return self.num_subsets * self.num_orbits

    # ------------------------------------------------------------------ #
    # lazy dense views
    # ------------------------------------------------------------------ #
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
        """The free GPUs, ascending."""
        verts = self.table.verts
        return tuple([verts[i] for i in self.free_index.tolist()])

    @property
    def _subsets(self) -> np.ndarray:
        """Kept rows as table-universe indices (not kept on the entry)."""
        return self.table.subsets[self.kept]

    @cached_property
    def subsets_local(self) -> np.ndarray:
        """``(S, k)`` candidate subsets as indices into :attr:`verts`."""
        rank = np.full(len(self.table.verts), -1, dtype=np.intp)
        rank[self.free_index] = np.arange(self.free_index.size, dtype=np.intp)
        return rank[self._subsets]

    @cached_property
    def induced_census(self) -> np.ndarray:
        """``(S, 3)`` induced census of each candidate subset."""
        return self.table.census[self.kept]

    @cached_property
    def agg_bw(self) -> np.ndarray:
        """``(S, O)`` Eq. 1 AggBW per match."""
        return self.table.agg_bw[self.kept]

    @cached_property
    def match_census(self) -> np.ndarray:
        """``(S, O, 3)`` census of the links each match's edges occupy."""
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
        """``(S, P)`` pairwise bandwidths of each candidate subset."""
        a_idx, b_idx = batch_scoring.pair_slots(self.pattern.num_gpus)
        subsets = self._subsets
        return self.table.bandwidth[subsets[:, a_idx], subsets[:, b_idx]]

    @cached_property
    def free_bandwidth(self) -> np.ndarray:
        """``(m, m)`` bandwidth matrix over :attr:`verts`."""
        index = self.free_index
        return self.table.bandwidth[index[:, None], index]

    # ------------------------------------------------------------------ #
    def subset(self, s: int) -> Tuple[int, ...]:
        """GPU ids of candidate subset ``s`` (ascending)."""
        return self.table.subset(int(self.kept[s]))

    def scored_match(self, s: int, o: int) -> ScoredMatch:
        """Materialise match ``(subset s, orbit o)`` as a :class:`ScoredMatch`."""
        return self.table.scored_match(int(self.kept[s]), o)

    # ------------------------------------------------------------------ #
    def subset_effective_bw(
        self,
        predict: Callable[[LinkCensus], float],
        token: Optional[Hashable] = None,
    ) -> np.ndarray:
        """Eq. 2 score of every subset's induced census, via ``predict``.

        ``predict`` is called once per *unique* census (so a policy's
        memo cache keeps working across events) and the results are
        broadcast back over the subsets via
        :func:`repro.scoring.batch.map_unique_censuses` — batch values
        are therefore bit-identical to one ``predict`` call per match.
        With a ``token`` identifying ``predict`` the whole table's
        scores are memoized under it and a later scan of the table only
        filters them.
        """
        if token is None:
            return _predict_rows(self.induced_census, predict)
        return self.table.effective_bw(predict, token)[self.kept]

    def subset_preserved_bw(self) -> np.ndarray:
        """Eq. 3 score of every subset against the current free set."""
        table = self.table
        free = np.zeros(len(table.verts), dtype=np.float64)
        free[self.free_index] = 1.0
        return batch_scoring.batch_preserved_bw(
            table.bandwidth, free, self._subsets, table.within[self.kept]
        )


def batch_scan(
    pattern: ApplicationGraph,
    hardware: HardwareGraph,
    available: FrozenSet[int] | Sequence[int],
) -> Optional[BatchScan]:
    """Score every match of ``pattern`` on the free GPUs in one shot.

    Builds a :class:`MatchTable` over the free GPUs and keeps all of its
    rows — :class:`UncachedScan` and :class:`CachedScan`'s server-wide
    tables share this one builder.  Returns ``None`` when the pattern
    cannot fit the available GPUs.
    """
    verts = tuple(sorted(set(available)))
    if pattern.num_gpus > len(verts):
        return None
    table = MatchTable(pattern, hardware, verts)
    return table.restrict(table.full_mask)


# ---------------------------------------------------------------------- #
# the scan sources a scanning policy decides through
# ---------------------------------------------------------------------- #
#: The ``engine=`` names of the scan sources.
SCAN_ENGINES = ("cached", "batch")


class UncachedScan:
    """The ``engine="batch"`` scan source: a fresh scan on every call."""

    cache = None

    def decide(
        self,
        pattern: ApplicationGraph,
        hardware: HardwareGraph,
        available: FrozenSet[int] | Sequence[int],
        free_mask: Optional[int],
        token: Hashable,
        proposal: Callable[[BatchScan], object],
    ):
        """``proposal`` of the scan of ``available``; ``None`` if it cannot fit."""
        scan = batch_scan(pattern, hardware, available)
        return None if scan is None else proposal(scan)


class CachedScan:
    """Content-addressed front-end over per-wiring match tables.

    The ``engine="cached"`` scan source of the scanning policies
    (Greedy, Preserve, Oracle): :meth:`entry` resolves the request's
    ``(topology_hash, pattern_id, free_set_bitmask)`` key against a
    :class:`~repro.scoring.memo.ScanCache`, restricting the
    (wiring, pattern)'s :class:`MatchTable` only on a miss, and the
    returned :class:`~repro.scoring.memo.CacheEntry` additionally
    memoizes each policy's argmax winner per objective token — a hit
    skips the scan *and* the selection pass.

    The tables live in the cache's ``aux`` side-car under
    ``("match-table", topology_hash, pattern_id)``: each cache builds a
    table once, on its first miss for that pair, and
    :meth:`~repro.scoring.memo.ScanCache.clear` drops them with
    everything else.

    Invalidation is implicit: placement and release deltas flip bits in
    the server's free mask (see
    :attr:`repro.allocator.state.AllocationState.free_bitmask`), so a
    changed free set routes to a different key and cached winners are
    consulted only while their server's free set is genuinely
    unchanged — exactly the dirty-set protocol the allocator publishes.

    Parameters
    ----------
    cache:
        The backing store.  Pass a shared instance to pool scans across
        policies or across the servers of a fleet (sound because the
        key partitions by wiring and pattern, and winner tokens carry
        the objective and model identity); omit for a private cache.
    """

    def __init__(self, cache: Optional[ScanCache] = None) -> None:
        self.cache = cache if cache is not None else ScanCache()

    def table(
        self, pattern: ApplicationGraph, hardware: HardwareGraph
    ) -> MatchTable:
        """The cache's table of ``(wiring, pattern)``, built on first use."""
        key = ("match-table", hardware.topology_hash, pattern_id(pattern))
        aux = self.cache.aux
        table = aux.get(key)
        if table is None:
            table = aux[key] = MatchTable(pattern, hardware, hardware.gpus)
        return table

    def entry(
        self,
        pattern: ApplicationGraph,
        hardware: HardwareGraph,
        available: FrozenSet[int] | Sequence[int],
        free_mask: Optional[int] = None,
    ) -> Optional[CacheEntry]:
        """The cached (or freshly restricted) scan for one request.

        ``free_mask`` is the caller's incrementally maintained free-set
        bitmask; when omitted it is derived from ``available``.  The
        caller must pass a mask consistent with ``available`` — the
        allocator threads :attr:`AllocationState.free_bitmask
        <repro.allocator.state.AllocationState.free_bitmask>` down,
        keeping key construction O(1), and the mask is what restricts
        the table.  Returns ``None`` when the pattern cannot fit the
        free set (never cached: the feasibility pre-check makes it
        rare).
        """
        cache = self.cache
        if free_mask is None:
            free_mask = cache.free_mask(hardware, available)
        key = cache.key(hardware, pattern, free_mask)
        entry = cache.lookup(key)
        if entry is None:
            if pattern.num_gpus > len(available):
                return None
            scan = self.table(pattern, hardware).restrict(free_mask)
            entry = cache.insert(key, scan)
        elif entry.value is None:
            # Spill-rehydrated entry: it carries winners but not the
            # scan.  Install (or refresh) the lazy restriction of this
            # cache's table — the key pins the exact free set, so it is
            # bit-identical to the spilled scan — which fires only if a
            # novel objective token asks.
            entry.loader = lambda: self.table(pattern, hardware).restrict(
                free_mask
            )
        return entry

    def decide(
        self,
        pattern: ApplicationGraph,
        hardware: HardwareGraph,
        available: FrozenSet[int] | Sequence[int],
        free_mask: Optional[int],
        token: Hashable,
        proposal: Callable[[BatchScan], object],
    ):
        """The winner ``proposal`` selects from the request's scan,
        memoized on its cache entry under ``token``; ``None`` if the
        pattern cannot fit."""
        entry = self.entry(pattern, hardware, available, free_mask)
        return None if entry is None else entry.winner(token, proposal)


def best_match_by_agg(scan: BatchScan) -> ScoredMatch:
    """The match maximising AggBW (Greedy's objective).

    The first maximum in subset-major, orbit-minor order — the
    tie-break towards the lexicographically smallest (subset, mapping)
    — lies in the first kept row whose best AggBW is maximal,
    at that row's first best orbit.
    """
    table = scan.table
    rows = scan.kept
    row = int(rows[np.argmax(table.agg_max[rows])])
    return table.scored_match(row, int(table.agg_best[row]))


def best_match_by_subset_score(
    scan: BatchScan, subset_scores: np.ndarray
) -> ScoredMatch:
    """Maximise a subset-level score, then AggBW.

    Among the subsets attaining the maximal ``subset_scores`` value,
    pick the match with the highest AggBW, ties towards the earliest
    candidate.
    """
    table = scan.table
    cand = scan.kept[subset_scores == subset_scores.max()]
    row = int(cand[np.argmax(table.agg_max[cand])])
    return table.scored_match(row, int(table.agg_best[row]))


def best_match_by_preserved(scan: BatchScan) -> Tuple[ScoredMatch, float]:
    """The Eq. 3 selection of the insensitive branch.

    Deliberately *not* :func:`best_match_by_subset_score`: Algorithm 1's
    insensitive branch picks the **first** subset attaining the maximal
    PreservedBW and only then tie-breaks mappings by AggBW *within that
    subset* — AggBW never arbitrates between equally-preserving
    subsets.  Both Preserve and Oracle share this selector so the
    subtle tie-break lives in exactly one place.

    Returns
    -------
    tuple
        The selected :class:`ScoredMatch` and its PreservedBW score.
    """
    table = scan.table
    preserved = scan.subset_preserved_bw()
    s = int(np.argmax(preserved))
    row = int(scan.kept[s])
    return (
        table.scored_match(row, int(table.agg_best[row])),
        float(preserved[s]),
    )
