"""Oracle policy: score candidate subsets with the *measured* bandwidth.

An upper bound for ablations: where Preserve ranks matches with the
Eq. 2 prediction, the oracle runs the (simulated) NCCL microbenchmark on
every candidate subset.  The gap between Preserve and the oracle is the
cost of Eq. 2's modelling error — impossible to deploy on real hardware
(the paper's whole point is that measuring EffBW at scheduling time is
infeasible), but free in simulation.
"""

from __future__ import annotations

import numpy as np

from typing import Dict, FrozenSet, Optional, Tuple

from ..comm.microbench import peak_effective_bandwidth
from ..scoring.memo import ScanCache
from ..topology.hardware import HardwareGraph
from .base import Allocation, AllocationRequest, ScanningPolicy
from .scan import MatchTable, best_row_by_preserved, best_row_by_subset_score


class OraclePolicy(ScanningPolicy):
    """Algorithm 1 with measured effective bandwidth instead of Eq. 2.

    ``engine`` and ``cache`` pick the scan source
    (:class:`~repro.policies.base.ScanningPolicy`).  The microbenchmark
    is a pure function of the wiring and the subset, so cached winners
    replay it exactly; it stays scalar, memoised per subset.
    """

    name = "oracle"

    def __init__(
        self, engine: str = "cached", cache: Optional[ScanCache] = None
    ) -> None:
        super().__init__(engine, cache)
        self._cache: Dict[Tuple[HardwareGraph, Tuple[int, ...]], float] = {}

    def _measure(self, hardware: HardwareGraph, subset: Tuple[int, ...]) -> float:
        """Memoised simulated-NCCL bandwidth of one GPU subset."""
        key = (hardware, subset)
        bw = self._cache.get(key)
        if bw is None:
            bw = peak_effective_bandwidth(hardware, subset)
            self._cache[key] = bw
        return bw

    def allocate(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: FrozenSet[int],
        free_mask: Optional[int] = None,
    ) -> Optional[Allocation]:
        """Propose the measured-EffBW-optimal match, or ``None``."""
        if not self._feasible(request, available):
            return None
        if request.bandwidth_sensitive:
            token = ("oracle-measured",)
            proposal = lambda table, kept, mask: self._sensitive_proposal(
                table, kept, mask, hardware
            )
        else:
            token = ("oracle-preserved",)
            proposal = self._insensitive_proposal
        return self._scans.decide(
            request.pattern, hardware, available, free_mask, token, proposal
        )

    def _sensitive_proposal(
        self,
        table: MatchTable,
        kept: np.ndarray,
        free_mask: int,
        hardware: HardwareGraph,
    ) -> Allocation:
        """Maximise the *measured* bandwidth over candidate subsets."""
        measured = np.array(
            [self._measure(hardware, table.subset(row)) for row in kept.tolist()],
            dtype=np.float64,
        )
        row = best_row_by_subset_score(table, kept, measured)
        return self._allocation(
            table,
            row,
            free_mask,
            {
                "measured_bw": self._measure(hardware, table.subset(row)),
                "agg_bw": float(table.agg_max[row]),
            },
        )

    @classmethod
    def _insensitive_proposal(
        cls, table: MatchTable, kept: np.ndarray, free_mask: int
    ) -> Allocation:
        """Insensitive branch identical to Preserve (Eq. 3 is exact anyway)."""
        row, preserved = best_row_by_preserved(table, kept, free_mask)
        return cls._allocation(
            table,
            row,
            free_mask,
            {"preserved_bw": preserved, "agg_bw": float(table.agg_max[row])},
        )
