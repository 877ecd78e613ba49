"""Policy registry: the four policies of the paper's evaluation, by name."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..scoring.effective import EffectiveBandwidthModel
from ..scoring.memo import ScanCache
from .base import AllocationPolicy
from .baseline import BaselinePolicy
from .greedy import GreedyPolicy
from .preserve import PreservePolicy
from .topo_aware import TopoAwarePolicy

#: Evaluation order used throughout the paper's figures.
POLICY_NAMES: List[str] = ["baseline", "topo-aware", "greedy", "preserve"]


def make_policy(
    name: str,
    model: Optional[EffectiveBandwidthModel] = None,
    engine: str = "cached",
    cache: Optional[ScanCache] = None,
) -> AllocationPolicy:
    """Instantiate a policy by name.

    Parameters
    ----------
    name:
        One of :data:`POLICY_NAMES` or ``"oracle"`` (case-insensitive;
        a few spelling aliases are accepted).
    model:
        Configures the Preserve policy's Eq. 2 predictor; ignored by
        the others.
    engine:
        The scan source of the scanning policies (Greedy, Preserve,
        Oracle), one of :data:`~repro.policies.scan.SCAN_ENGINES`:
        ``"cached"`` (content-addressed scan and winner memoization,
        the default) or ``"batch"`` (rescans every call).  Anything
        else raises ``ValueError``.  Ignored by Baseline and
        Topo-aware, which never scan.
    cache:
        A shared :class:`~repro.scoring.memo.ScanCache` for the cached
        source — the multi-server scheduler pools one across a fleet's
        policies, and the sweep runner reuses one per worker process.
        Omitted → each scanning policy gets its own.  Ignored unless
        ``engine="cached"``.
    """
    key = name.lower()
    if key == "baseline":
        return BaselinePolicy()
    if key in ("topo-aware", "topo_aware", "topoaware"):
        return TopoAwarePolicy()
    if key == "greedy":
        return GreedyPolicy(engine=engine, cache=cache)
    if key in ("preserve", "preservation"):
        if model is not None:
            return PreservePolicy(model, engine=engine, cache=cache)
        return PreservePolicy(engine=engine, cache=cache)
    if key == "oracle":
        from .oracle import OraclePolicy

        return OraclePolicy(engine=engine, cache=cache)
    known = ", ".join(POLICY_NAMES + ["oracle"])
    raise KeyError(f"unknown policy {name!r}; known: {known}")


def all_policies(
    model: Optional[EffectiveBandwidthModel] = None,
    engine: str = "cached",
    cache: Optional[ScanCache] = None,
) -> Dict[str, AllocationPolicy]:
    """All four evaluation policies keyed by name."""
    return {
        name: make_policy(name, model, engine=engine, cache=cache)
        for name in POLICY_NAMES
    }
