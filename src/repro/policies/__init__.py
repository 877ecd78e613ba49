"""Allocation policies: Baseline, Topo-aware, and MAPA's Greedy/Preserve."""

from .base import Allocation, AllocationPolicy, AllocationRequest, ScanningPolicy
from .baseline import BaselinePolicy
from .greedy import GreedyPolicy
from .oracle import OraclePolicy
from .preserve import PreservePolicy
from .topo_aware import TopoAwarePolicy
from .registry import POLICY_NAMES, all_policies, make_policy
from .scan import (
    SCAN_ENGINES,
    BatchScan,
    CachedScan,
    MatchTable,
    ScoredMatch,
    UncachedScan,
    batch_scan,
)

__all__ = [
    "Allocation",
    "AllocationPolicy",
    "AllocationRequest",
    "ScanningPolicy",
    "BaselinePolicy",
    "GreedyPolicy",
    "OraclePolicy",
    "PreservePolicy",
    "TopoAwarePolicy",
    "POLICY_NAMES",
    "all_policies",
    "make_policy",
    "SCAN_ENGINES",
    "BatchScan",
    "CachedScan",
    "MatchTable",
    "ScoredMatch",
    "UncachedScan",
    "batch_scan",
]
