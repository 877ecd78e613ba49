"""MAPA Preserve policy (paper Algorithm 1).

The headline policy.  For a bandwidth-*sensitive* job, select the match
with the highest *predicted effective bandwidth* (Eq. 2).  For a
bandwidth-*insensitive* job, select the match that leaves the most
aggregate bandwidth available to future jobs (*Preserved Bandwidth*,
Eq. 3) — deliberately steering insensitive jobs onto the poorly-connected
corners of the machine so the fast links stay whole for jobs that need
them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Optional, Tuple

from ..matching.candidates import match_from_mapping
from ..scoring.census import LinkCensus
from ..scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from ..scoring.memo import ScanCache
from ..scoring.preserved import remaining_bandwidth
from ..topology.hardware import HardwareGraph
from .base import Allocation, AllocationPolicy, AllocationRequest
from .greedy import SCAN_ENGINES
from .scan import (
    BatchScan,
    CachedScan,
    batch_scan,
    best_match_by_preserved,
    best_match_by_subset_score,
    best_subset_then_mapping,
)


class PreservePolicy(AllocationPolicy):
    """Algorithm 1: EffBW for sensitive jobs, PreservedBW for insensitive.

    Parameters
    ----------
    model:
        The Eq. 2 effective-bandwidth model used to score matches for
        sensitive jobs.  Defaults to the paper's published coefficients;
        simulations typically pass a model refit against the simulated
        microbenchmark (see :func:`repro.scoring.regression.fit_for_hardware`).
    engine:
        ``"cached"`` (default) serves repeated (wiring, pattern,
        free-set) scans and their Algorithm-1 winners from a
        content-addressed :class:`~repro.scoring.memo.ScanCache` —
        winner memo tokens carry the model's coefficient vector, so a
        cache shared across differently fitted policies stays sound;
        ``"batch"`` rescans as dense arrays each call; ``"scalar"`` is
        the original per-match walk, kept as the bit-identical
        reference oracle.  All engines share the per-census prediction
        cache.
    cache:
        Backing :class:`~repro.scoring.memo.ScanCache` for the cached
        engine (fleet-shared when the multi-server scheduler passes one
        in); private when omitted.  Ignored by the other engines.
    """

    name = "preserve"

    def __init__(
        self,
        model: EffectiveBandwidthModel = PAPER_MODEL,
        engine: str = "cached",
        cache: Optional[ScanCache] = None,
    ) -> None:
        if engine not in SCAN_ENGINES:
            raise ValueError(f"unknown scan engine {engine!r}")
        self.model = model
        self.engine = engine
        self._predict_cache: Dict[Tuple[int, int, int], float] = {}
        self.scan_cache: Optional[ScanCache] = None
        self._cached: Optional[CachedScan] = None
        if engine == "cached":
            self._cached = CachedScan(cache)
            self.scan_cache = self._cached.cache

    def _predict(self, census: LinkCensus) -> float:
        """Memoised Eq. 2 prediction for one (x, y, z) census."""
        key = census.as_tuple()
        cached = self._predict_cache.get(key)
        if cached is None:
            cached = self.model.predict_census(census)
            self._predict_cache[key] = cached
        return cached

    def allocate(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: FrozenSet[int],
        free_mask: Optional[int] = None,
    ) -> Optional[Allocation]:
        """Propose the Algorithm-1 match for ``request``, or ``None``."""
        if not self._feasible(request, available):
            return None
        if request.bandwidth_sensitive:
            return self._allocate_sensitive(
                request, hardware, available, free_mask
            )
        return self._allocate_insensitive(
            request, hardware, available, free_mask
        )

    # ------------------------------------------------------------------ #
    def _sensitive_proposal(self, scan: BatchScan) -> Allocation:
        """The Eq. 2 winning proposal of one scan (memoized per entry)."""
        best = best_match_by_subset_score(
            scan,
            scan.subset_effective_bw(self._predict, self.model.coefficients),
        )
        match = match_from_mapping(scan.pattern, best.mapping)
        return Allocation(
            gpus=best.subset,
            match=match,
            scores={
                "effective_bw": self._predict(best.census),
                "agg_bw": best.agg_bw,
            },
        )

    def _insensitive_proposal(self, scan: BatchScan) -> Allocation:
        """The Eq. 3 winning proposal of one scan (memoized per entry)."""
        best, best_score = best_match_by_preserved(scan)
        match = match_from_mapping(scan.pattern, best.mapping)
        return Allocation(
            gpus=best.subset,
            match=match,
            scores={
                "preserved_bw": best_score,
                "effective_bw": self._predict(best.census),
                "agg_bw": best.agg_bw,
            },
        )

    def _allocate_sensitive(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: FrozenSet[int],
        free_mask: Optional[int] = None,
    ) -> Optional[Allocation]:
        """Maximise the predicted EffBW of the induced census (Eq. 2)."""
        if self.engine == "cached":
            entry = self._cached.entry(
                request.pattern, hardware, available, free_mask
            )
            if entry is None:
                return None
            return entry.winner(
                ("effbw", self.model.coefficients), self._sensitive_proposal
            )
        if self.engine == "batch":
            scan = batch_scan(request.pattern, hardware, available)
            if scan is None:
                return None
            best = best_match_by_subset_score(
                scan, scan.subset_effective_bw(self._predict)
            )
        else:
            best = best_subset_then_mapping(
                request.pattern,
                hardware,
                available,
                subset_key=lambda sm: self._predict(sm.census),
            )
        if best is None:
            return None
        match = match_from_mapping(request.pattern, best.mapping)
        return Allocation(
            gpus=best.subset,
            match=match,
            scores={
                "effective_bw": self._predict(best.census),
                "agg_bw": best.agg_bw,
            },
        )

    def _allocate_insensitive(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: FrozenSet[int],
        free_mask: Optional[int] = None,
    ) -> Optional[Allocation]:
        """Maximise the bandwidth preserved for future jobs (Eq. 3)."""
        if self.engine == "cached":
            entry = self._cached.entry(
                request.pattern, hardware, available, free_mask
            )
            if entry is None:
                return None
            return entry.winner(
                ("preserved", self.model.coefficients),
                self._insensitive_proposal,
            )
        if self.engine == "batch":
            scan = batch_scan(request.pattern, hardware, available)
            if scan is None:
                return None
            best, best_score = best_match_by_preserved(scan)
        else:
            # Preserved bandwidth depends only on the chosen vertex set,
            # so the subset scan skips mapping enumeration entirely.
            free = set(available)
            k = request.num_gpus
            best_subset: Optional[Tuple[int, ...]] = None
            best_score = float("-inf")
            for subset in combinations(sorted(free), k):
                score = remaining_bandwidth(hardware, free - set(subset))
                if score > best_score:
                    best_score = score
                    best_subset = subset
            if best_subset is None:
                return None
            # Any mapping on the chosen subset preserves the same
            # bandwidth; break the tie in the job's favour by aligning
            # its pattern edges with the fastest links it got.
            best = best_subset_then_mapping(
                request.pattern,
                hardware,
                frozenset(best_subset),
                subset_key=lambda sm: self._predict(sm.census),
            )
            assert best is not None
        match = match_from_mapping(request.pattern, best.mapping)
        return Allocation(
            gpus=best.subset,
            match=match,
            scores={
                "preserved_bw": best_score,
                "effective_bw": self._predict(best.census),
                "agg_bw": best.agg_bw,
            },
        )
