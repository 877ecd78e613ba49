"""Metric-correlation analyses (paper Figs. 11, 12, 15 and 16).

These helpers produce the scatter series behind the paper's methodology
figures: how AggBW fails to track execution time, how EffBW tracks it,
how the Eq. 2 prediction tracks the (simulated) measurement, and how the
simulator's effective bandwidth agrees with "real" runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.microbench import peak_effective_bandwidth
from ..scoring.aggregate import allocation_aggregate_bandwidth
from ..scoring.census import census_of_allocation
from ..scoring.effective import EffectiveBandwidthModel
from ..sim.records import SimulationLog
from ..topology.hardware import HardwareGraph
from ..workloads.catalog import Workload
from ..workloads.exectime import execution_time


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (0 when either side is constant)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equal-length series of ≥ 2 points")
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation — robust to the nonlinear (hyperbolic)
    EffBW→time relationship of Fig. 11c.

    :func:`pearson` over average ranks, so a constant series gives 0.0
    (``scipy.stats.spearmanr`` gives ``nan`` there).
    """
    return pearson(_average_ranks(xs), _average_ranks(ys))


@dataclass(frozen=True)
class AllocationPoint:
    """One enumerated allocation with all three quantities of Fig. 11."""

    gpus: Tuple[int, ...]
    agg_bw: float
    effective_bw: float
    exec_time: float


def enumerate_allocation_points(
    hardware: HardwareGraph,
    workload: Workload,
    sizes: Sequence[int] = (4, 5),
) -> List[AllocationPoint]:
    """AggBW / EffBW / exec-time for every allocation of the given sizes.

    Mirrors the paper's Fig. 11 experiment: run the workload (here: the
    execution-time model) on many candidate allocations and record both
    scoring metrics.  AggBW here is the induced aggregate over the
    allocation, matching how the microbenchmark exercises every link.
    """
    points: List[AllocationPoint] = []
    for k in sizes:
        for subset in combinations(hardware.gpus, k):
            agg = allocation_aggregate_bandwidth(hardware, subset)
            eff = peak_effective_bandwidth(hardware, subset)
            t = execution_time(workload, k, eff)
            points.append(AllocationPoint(subset, agg, eff, t))
    return points


def metric_correlations(points: Sequence[AllocationPoint]) -> Dict[str, float]:
    """The correlations the paper reads off Fig. 11 (a)–(c)."""
    agg = [p.agg_bw for p in points]
    eff = [p.effective_bw for p in points]
    t = [p.exec_time for p in points]
    return {
        "aggbw_vs_time": spearman(agg, t),
        "aggbw_vs_effbw": spearman(agg, eff),
        "effbw_vs_time": spearman(eff, t),
    }


def predicted_vs_actual(
    hardware: HardwareGraph,
    model: EffectiveBandwidthModel,
    sizes: Sequence[int] = (2, 3, 4, 5),
) -> Dict[int, List[Tuple[float, float]]]:
    """(actual, predicted) EffBW pairs per job size — Fig. 12's scatter."""
    out: Dict[int, List[Tuple[float, float]]] = {k: [] for k in sizes}
    for k in sizes:
        for subset in combinations(hardware.gpus, k):
            actual = peak_effective_bandwidth(hardware, subset)
            census = census_of_allocation(hardware, subset)
            out[k].append((actual, model.predict_census(census)))
    return out


def simulated_vs_reference(
    log: SimulationLog,
) -> List[Tuple[float, float]]:
    """(reference, simulated) EffBW pairs from a trace — Fig. 15's scatter.

    The simulator logs both the microbenchmark-model bandwidth (standing
    in for the real measurement) and the Eq. 2 prediction it used for
    scoring; their agreement validates the effective-bandwidth proxy.
    """
    return [
        (r.measured_effective_bw, r.predicted_effective_bw)
        for r in log.multi_gpu()
    ]


def effbw_time_curve(
    workload: Workload,
    effective_bws: Sequence[float],
    num_gpus: int = 4,
) -> List[Tuple[float, float]]:
    """(EffBW, exec time) series for one workload — one Fig. 16 curve."""
    return [
        (bw, execution_time(workload, num_gpus, bw)) for bw in effective_bws
    ]
