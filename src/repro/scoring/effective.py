"""Predicted Effective Bandwidth model (paper Eq. 2 and Table 2).

Effective bandwidth — what an NCCL all-reduce actually sustains on an
allocation — cannot be measured at scheduling time, so the paper fits a
polynomial model over the link-mix features of a matching pattern:
``(x, y, z)`` = (#double NVLinks, #single NVLinks, #PCIe links).  Eq. 2 is
*linear in its 14 coefficients*; the features themselves are nonlinear:

====  ==============  ====  ==============
θ₁    x               θ₈    y·z
θ₂    y               θ₉    z·x
θ₃    z               θ₁₀   1/(x·y + 1)
θ₄    1/(x + 1)       θ₁₁   1/(y·z + 1)
θ₅    1/(y + 1)       θ₁₂   1/(z·x + 1)
θ₆    1/(z + 1)       θ₁₃   x·y·z
θ₇    x·y             θ₁₄   1/(x·y·z + 1)
====  ==============  ====  ==============

:data:`PAPER_COEFFICIENTS` reproduces Table 2 verbatim.  Models refit
against this repository's simulated microbenchmark are produced by
:mod:`repro.scoring.regression`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..topology.hardware import HardwareGraph
from .census import LinkCensus, census_of_allocation

#: Table 2 of the paper: θ₁ … θ₁₄.
PAPER_COEFFICIENTS: Tuple[float, ...] = (
    16.396,
    4.536,
    1.556,
    -20.694,
    -9.467,
    7.615,
    -7.973,
    12.733,
    -4.195,
    -8.413,
    62.851,
    27.418,
    -5.114,
    -46.973,
)

NUM_FEATURES = 14

FEATURE_NAMES: Tuple[str, ...] = (
    "x",
    "y",
    "z",
    "1/(x+1)",
    "1/(y+1)",
    "1/(z+1)",
    "x*y",
    "y*z",
    "z*x",
    "1/(x*y+1)",
    "1/(y*z+1)",
    "1/(z*x+1)",
    "x*y*z",
    "1/(x*y*z+1)",
)


def feature_vector(x: float, y: float, z: float) -> np.ndarray:
    """The 14 Eq. 2 features of a link census (x, y, z)."""
    return np.array(
        [
            x,
            y,
            z,
            1.0 / (x + 1.0),
            1.0 / (y + 1.0),
            1.0 / (z + 1.0),
            x * y,
            y * z,
            z * x,
            1.0 / (x * y + 1.0),
            1.0 / (y * z + 1.0),
            1.0 / (z * x + 1.0),
            x * y * z,
            1.0 / (x * y * z + 1.0),
        ],
        dtype=float,
    )


def feature_matrix(censuses: Sequence[Tuple[float, float, float]]) -> np.ndarray:
    """Stack feature vectors for a batch of censuses (rows)."""
    return np.array([feature_vector(*c) for c in censuses], dtype=float)


@dataclass(frozen=True)
class EffectiveBandwidthModel:
    """Eq. 2 with a concrete coefficient vector θ.

    Predictions are clamped at zero: a bandwidth can't be negative, and
    far outside the training envelope the polynomial may dip below it.
    """

    coefficients: Tuple[float, ...]
    source: str = "paper"

    def __post_init__(self) -> None:
        """Reject coefficient vectors of the wrong length."""
        if len(self.coefficients) != NUM_FEATURES:
            raise ValueError(
                f"expected {NUM_FEATURES} coefficients, got {len(self.coefficients)}"
            )

    def predict(self, x: float, y: float, z: float) -> float:
        """Predicted effective bandwidth (GB/s) for a link census."""
        raw = float(np.dot(feature_vector(x, y, z), self.coefficients))
        return max(raw, 0.0)

    def predict_census(self, census: LinkCensus) -> float:
        """Predicted effective bandwidth of a :class:`LinkCensus`."""
        return self.predict(census.x, census.y, census.z)

    def predict_allocation(
        self, hardware: HardwareGraph, gpus: Iterable[int]
    ) -> float:
        """Score an allocated GPU set by its induced link census."""
        return self.predict_census(census_of_allocation(hardware, gpus))

    def predict_batch(
        self, censuses: Sequence[Tuple[float, float, float]]
    ) -> np.ndarray:
        """Clamped predictions for a sequence of census tuples."""
        raw = feature_matrix(censuses) @ np.asarray(self.coefficients)
        return np.maximum(raw, 0.0)


#: The model exactly as published (Table 2).
PAPER_MODEL = EffectiveBandwidthModel(PAPER_COEFFICIENTS, source="paper")
