"""Allocation policies: Baseline, Topo-aware, and MAPA's Greedy/Preserve."""

from .base import Allocation, AllocationPolicy, AllocationRequest
from .baseline import BaselinePolicy
from .greedy import GreedyPolicy
from .oracle import OraclePolicy
from .preserve import PreservePolicy
from .topo_aware import TopoAwarePolicy
from .registry import POLICY_NAMES, all_policies, make_policy
from .scan import (
    BatchScan,
    CachedScan,
    MatchTable,
    ScoredMatch,
    batch_scan,
    best_scored_match,
    best_subset_then_mapping,
    scan_scored_matches,
)

__all__ = [
    "Allocation",
    "AllocationPolicy",
    "AllocationRequest",
    "BaselinePolicy",
    "GreedyPolicy",
    "OraclePolicy",
    "PreservePolicy",
    "TopoAwarePolicy",
    "POLICY_NAMES",
    "all_policies",
    "make_policy",
    "BatchScan",
    "CachedScan",
    "MatchTable",
    "ScoredMatch",
    "batch_scan",
    "best_scored_match",
    "best_subset_then_mapping",
    "scan_scored_matches",
]
