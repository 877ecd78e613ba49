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

from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from ..scoring.census import LinkCensus
from ..scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from ..scoring.memo import ScanCache
from ..topology.hardware import HardwareGraph
from .base import Allocation, AllocationRequest, ScanningPolicy
from .scan import MatchTable, best_row_by_preserved, best_row_by_subset_score


class PreservePolicy(ScanningPolicy):
    """Algorithm 1: EffBW for sensitive jobs, PreservedBW for insensitive.

    Parameters
    ----------
    model:
        The Eq. 2 effective-bandwidth model used to score matches for
        sensitive jobs.  Defaults to the paper's published coefficients;
        simulations typically pass a model refit against the simulated
        microbenchmark (see :func:`repro.scoring.regression.fit_for_hardware`).
        Winner tokens carry its coefficient vector, so a cache shared
        across differently fitted policies stays sound.
    engine, cache:
        The scan source (:class:`~repro.policies.base.ScanningPolicy`).
    """

    name = "preserve"

    def __init__(
        self,
        model: EffectiveBandwidthModel = PAPER_MODEL,
        engine: str = "cached",
        cache: Optional[ScanCache] = None,
    ) -> None:
        super().__init__(engine, cache)
        self.model = model
        self._predict_cache: Dict[Tuple[int, int, int], float] = {}

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
            token = ("effbw", self.model.coefficients)
            proposal = self._sensitive_proposal
        else:
            token = ("preserved", self.model.coefficients)
            proposal = self._insensitive_proposal
        return self._scans.decide(
            request.pattern, hardware, available, free_mask, token, proposal
        )

    def _sensitive_proposal(
        self, table: MatchTable, kept: np.ndarray, free_mask: int
    ) -> Allocation:
        """Maximise the predicted EffBW of the induced census (Eq. 2)."""
        eff = table.effective_bw(self._predict, self.model.coefficients)
        row = best_row_by_subset_score(table, kept, eff[kept])
        return self._allocation(
            table,
            row,
            free_mask,
            {"effective_bw": float(eff[row]), "agg_bw": float(table.agg_max[row])},
        )

    def _insensitive_proposal(
        self, table: MatchTable, kept: np.ndarray, free_mask: int
    ) -> Allocation:
        """Maximise the bandwidth preserved for future jobs (Eq. 3)."""
        row, preserved = best_row_by_preserved(table, kept, free_mask)
        eff = table.effective_bw(self._predict, self.model.coefficients)
        return self._allocation(
            table,
            row,
            free_mask,
            {
                "preserved_bw": preserved,
                "effective_bw": float(eff[row]),
                "agg_bw": float(table.agg_max[row]),
            },
        )
