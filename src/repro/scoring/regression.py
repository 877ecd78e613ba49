"""Fitting the Eq. 2 effective-bandwidth model (paper section 3.4.3).

The paper trains Eq. 2 on an exhaustive sweep of 2–5-GPU DGX-V
allocations deduplicated by link census — 31 unique (x, y, z) samples —
with the NCCL all-reduce microbenchmark providing the target effective
bandwidth.  We reproduce the procedure against the simulated
microbenchmark: enumerate allocations, deduplicate censuses, "measure"
each representative with :func:`repro.comm.microbench.
peak_effective_bandwidth` and solve the (linear-in-θ) least-squares
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..comm.microbench import peak_effective_bandwidth
from ..topology.hardware import HardwareGraph
from .census import LinkCensus, census_of_allocation
from .effective import EffectiveBandwidthModel, feature_matrix


@dataclass(frozen=True)
class CensusSample:
    """One regression sample: a link census, a representative allocation
    that realises it, and the measured effective bandwidth."""

    census: LinkCensus
    allocation: Tuple[int, ...]
    effective_bw: float


def exhaustive_census_samples(
    hardware: HardwareGraph,
    sizes: Sequence[int] = (2, 3, 4, 5),
) -> List[CensusSample]:
    """Enumerate allocations of the given sizes, dedupe by unique (x, y, z)
    and measure each census's effective bandwidth.

    Mirrors the paper's training-set construction: "an exhaustive set of
    allocations with unique (x, y, z)".  Distinct allocations can share a
    census yet differ slightly in ring structure, so the recorded target
    is the mean measured bandwidth over the census group (the first
    allocation in sorted order is kept as the representative).
    """
    groups: Dict[LinkCensus, List[float]] = {}
    reps: Dict[LinkCensus, Tuple[int, ...]] = {}
    for size in sizes:
        if size > hardware.num_gpus:
            raise ValueError(
                f"cannot sample {size}-GPU allocations on "
                f"{hardware.num_gpus}-GPU server"
            )
        for subset in combinations(hardware.gpus, size):
            census = census_of_allocation(hardware, subset)
            bw = peak_effective_bandwidth(hardware, subset)
            groups.setdefault(census, []).append(bw)
            reps.setdefault(census, subset)
    samples = [
        CensusSample(census, reps[census], sum(bws) / len(bws))
        for census, bws in groups.items()
    ]
    return sorted(samples, key=lambda s: s.census.as_tuple())


def fit_effbw_model(
    samples: Sequence[CensusSample], source: str = "refit"
) -> EffectiveBandwidthModel:
    """Ordinary least squares over the Eq. 2 features.

    Eq. 2 is linear in θ, so the "non-linear polynomial regression" of the
    paper reduces to a linear solve once the features are materialised.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples to fit the model")
    X = feature_matrix([s.census.as_tuple() for s in samples])
    y = np.array([s.effective_bw for s in samples])
    theta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return EffectiveBandwidthModel(tuple(float(t) for t in theta), source=source)


@dataclass(frozen=True)
class FitQuality:
    """Error metrics the paper reports for its fit (section 3.4.3).

    ``rank`` is the rank of the census design matrix and
    ``residual_dof`` is ``num_samples - rank``.  At zero residual
    degrees of freedom the fit interpolates its samples, so R² = 1 and
    a near-zero RMSE say nothing about how good the model is.
    """

    relative_error: float
    rmse: float
    mae: float
    r_squared: float
    num_samples: int
    rank: int
    residual_dof: int


def evaluate_fit(
    model: EffectiveBandwidthModel, samples: Sequence[CensusSample]
) -> FitQuality:
    """Relative error, RMSE, MAE, R² and design rank on a sample set."""
    actual = np.array([s.effective_bw for s in samples])
    censuses = [s.census.as_tuple() for s in samples]
    predicted = model.predict_batch(censuses)
    resid = predicted - actual
    nonzero = actual != 0
    rel = (
        float(np.mean(np.abs(resid[nonzero]) / np.abs(actual[nonzero])))
        if nonzero.any()
        else 0.0
    )
    rmse = float(np.sqrt(np.mean(resid**2)))
    mae = float(np.mean(np.abs(resid)))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    rank = int(np.linalg.matrix_rank(feature_matrix(censuses)))
    return FitQuality(
        relative_error=rel,
        rmse=rmse,
        mae=mae,
        r_squared=r2,
        num_samples=len(samples),
        rank=rank,
        residual_dof=len(samples) - rank,
    )


def fit_for_hardware(
    hardware: HardwareGraph, sizes: Sequence[int] = (2, 3, 4, 5)
) -> Tuple[EffectiveBandwidthModel, FitQuality, List[CensusSample]]:
    """End-to-end: sample, fit and score a model for one server topology."""
    samples = exhaustive_census_samples(hardware, sizes)
    model = fit_effbw_model(samples, source=f"refit:{hardware.name}")
    quality = evaluate_fit(model, samples)
    return model, quality, samples
