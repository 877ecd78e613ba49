"""Top500 accelerator census (paper Fig. 3).

Fig. 3 motivates the work with two trends from the June Top500 lists,
2017–2021: (a) the number of accelerator-equipped systems, split into GPU
and other accelerators, and (b) the share of those GPU systems whose
nodes use heterogeneous interconnects (mixed NVLink generations / PCIe).
The paper plots the survey without tabulating it; the figures below are
digitised from the plot and embedded so the figure can be regenerated
offline (DESIGN.md substitution note — this is survey data, not a system
under test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class YearCensus:
    """One year of the accelerator survey."""

    year: int
    gpu_systems: int
    other_accelerator_systems: int
    heterogeneous_interconnect_pct: float


#: June-list census, 2017–2021 (digitised from paper Fig. 3).
TOP500_CENSUS: Tuple[YearCensus, ...] = (
    YearCensus(2017, gpu_systems=74, other_accelerator_systems=17, heterogeneous_interconnect_pct=28.0),
    YearCensus(2018, gpu_systems=98, other_accelerator_systems=12, heterogeneous_interconnect_pct=42.0),
    YearCensus(2019, gpu_systems=125, other_accelerator_systems=9, heterogeneous_interconnect_pct=55.0),
    YearCensus(2020, gpu_systems=140, other_accelerator_systems=6, heterogeneous_interconnect_pct=68.0),
    YearCensus(2021, gpu_systems=147, other_accelerator_systems=4, heterogeneous_interconnect_pct=78.0),
)


def census_by_year() -> Dict[int, YearCensus]:
    return {c.year: c for c in TOP500_CENSUS}


def gpu_trend() -> List[Tuple[int, int]]:
    """(year, GPU-system count) — Fig. 3a's dominant series."""
    return [(c.year, c.gpu_systems) for c in TOP500_CENSUS]


def heterogeneity_trend() -> List[Tuple[int, float]]:
    """(year, % heterogeneous interconnect) — Fig. 3b."""
    return [(c.year, c.heterogeneous_interconnect_pct) for c in TOP500_CENSUS]


def is_monotonic_growth() -> bool:
    """The claim Fig. 3 supports: both trends grow monotonically."""
    gpus = [c.gpu_systems for c in TOP500_CENSUS]
    het = [c.heterogeneous_interconnect_pct for c in TOP500_CENSUS]
    return all(a < b for a, b in zip(gpus, gpus[1:])) and all(
        a < b for a, b in zip(het, het[1:])
    )
