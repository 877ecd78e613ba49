"""MAPA Greedy policy: maximise Aggregated Bandwidth (paper section 4).

The first of the two MAPA pattern-selection policies: among all matches
of the application pattern on the free GPUs, pick the one with the most
total allocated bandwidth (Eq. 1).  The paper shows this already beats
Baseline and Topo-aware by a wide margin (it is application- and
hardware-topology aware) but, because AggBW does not track effective
bandwidth, it can starve later bandwidth-sensitive jobs — the motivation
for Preserve.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

import numpy as np

from ..topology.hardware import HardwareGraph
from .base import Allocation, AllocationRequest, ScanningPolicy
from .scan import MatchTable, best_row_by_agg


class GreedyPolicy(ScanningPolicy):
    """Pick the match with the highest Aggregated Bandwidth.

    ``engine`` and ``cache`` pick the scan source
    (:class:`~repro.policies.base.ScanningPolicy`).
    """

    name = "greedy"

    @classmethod
    def _proposal(
        cls, table: MatchTable, kept: np.ndarray, free_mask: int
    ) -> Allocation:
        """The AggBW-winning proposal of one scan."""
        row = best_row_by_agg(table, kept)
        return cls._allocation(
            table, row, free_mask, {"agg_bw": float(table.agg_max[row])}
        )

    def allocate(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: FrozenSet[int],
        free_mask: Optional[int] = None,
    ) -> Optional[Allocation]:
        """Propose the AggBW-maximal match on the free GPUs, or ``None``."""
        if not self._feasible(request, available):
            return None
        return self._scans.decide(
            request.pattern, hardware, available, free_mask, ("agg",), self._proposal
        )
