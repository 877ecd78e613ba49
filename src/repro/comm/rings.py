"""NCCL-style ring construction over an allocation's interconnect.

NCCL implements all-reduce (the dominant collective in ML training) by
building *rings* over the participating GPUs — one ring per available
NVLink channel — and streaming data around them.  A ring's throughput is
capped by its slowest hop, and total bus bandwidth is the sum across
edge-disjoint rings.  This is the mechanism behind the paper's central
observation: effective bandwidth depends on the *mix* of links in an
allocation, not on their aggregate sum.  A fragmented allocation whose
GPUs lack an all-NVLink cycle collapses to a host-routed PCIe ring no
matter how much NVLink bandwidth dangles unused off its vertices.

We model the allocation's NVLink capacity as a channel multigraph (a
double NVLink-v2 edge contributes two 25 GB/s channels) and peel
edge-disjoint Hamiltonian cycles from it by backtracking search — exact
and fast for the ≤16-GPU servers studied in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..topology.hardware import HardwareGraph
from ..topology.links import LinkType, bandwidth_of

Pair = FrozenSet[int]


@dataclass(frozen=True)
class Ring:
    """One NCCL ring: a cyclic GPU order and its bottleneck bandwidth."""

    order: Tuple[int, ...]
    bottleneck_gbps: float
    uses_pcie: bool = False

    @property
    def num_gpus(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class RingDecomposition:
    """The set of rings NCCL would build over an allocation."""

    gpus: Tuple[int, ...]
    rings: Tuple[Ring, ...]

    @property
    def total_bandwidth_gbps(self) -> float:
        """Sum of the per-ring bottleneck bandwidths (peak bus bandwidth)."""
        return sum(r.bottleneck_gbps for r in self.rings)


class _ChannelGraph:
    """Mutable multigraph of remaining NVLink channels over an allocation."""

    def __init__(self, hardware: HardwareGraph, gpus: Sequence[int]) -> None:
        self.gpus = tuple(sorted(gpus))
        self.channels: Dict[Pair, int] = {}
        self.channel_bw: Dict[Pair, float] = {}
        # Read channel counts / per-channel bandwidths from the topology's
        # precomputed link table instead of resolving each pair.
        table = hardware.link_table
        idx = table.index
        n = table.n
        for i, u in enumerate(self.gpus):
            ru = idx[u] * n
            for v in self.gpus[i + 1 :]:
                p = ru + idx[v]
                if table.nvlink[p]:
                    key = frozenset((u, v))
                    self.channels[key] = table.channels[p]
                    self.channel_bw[key] = table.per_channel[p]

    def available(self, u: int, v: int) -> bool:
        return self.channels.get(frozenset((u, v)), 0) > 0

    def bw(self, u: int, v: int) -> float:
        return self.channel_bw[frozenset((u, v))]

    def consume_cycle(self, order: Sequence[int]) -> None:
        n = len(order)
        for i in range(n):
            key = frozenset((order[i], order[(i + 1) % n]))
            self.channels[key] -= 1
            assert self.channels[key] >= 0


def _find_hamiltonian_cycle(
    cg: _ChannelGraph, prefer: str = "scarcity"
) -> Optional[Tuple[int, ...]]:
    """Find one Hamiltonian cycle through the remaining NVLink channels.

    Backtracking search anchored at the lowest GPU id.  ``prefer``
    controls the neighbour ordering heuristic:

    * ``"scarcity"`` — try edges with the most remaining channels first,
      so scarce single links are saved for later rings (better peels);
    * ``"bandwidth"`` — try the fastest channels first;
    * ``"id"`` — plain vertex-id order.
    """
    gpus = cg.gpus
    n = len(gpus)
    if n < 3:
        return None
    start = gpus[0]
    path = [start]
    on_path = {start}

    def neighbours(u: int) -> List[int]:
        out = [v for v in gpus if v != u and v not in on_path and cg.available(u, v)]
        if prefer == "scarcity":
            out.sort(key=lambda v: (-cg.channels[frozenset((u, v))], v))
        elif prefer == "bandwidth":
            out.sort(key=lambda v: (-cg.bw(u, v), v))
        else:
            out.sort()
        return out

    def backtrack() -> bool:
        if len(path) == n:
            return cg.available(path[-1], start)
        for v in neighbours(path[-1]):
            path.append(v)
            on_path.add(v)
            if backtrack():
                return True
            path.pop()
            on_path.discard(v)
        return False

    if backtrack():
        return tuple(path)
    return None


def _peel_rings(
    hardware: HardwareGraph, verts: Tuple[int, ...], prefer: str
) -> List[Ring]:
    """Peel edge-disjoint NVLink Hamiltonian cycles under one heuristic."""
    cg = _ChannelGraph(hardware, verts)
    rings: List[Ring] = []
    while True:
        cycle = _find_hamiltonian_cycle(cg, prefer)
        if cycle is None:
            break
        n = len(cycle)
        bottleneck = min(cg.bw(cycle[i], cycle[(i + 1) % n]) for i in range(n))
        cg.consume_cycle(cycle)
        rings.append(Ring(order=cycle, bottleneck_gbps=bottleneck))
    return rings


def build_rings(
    hardware: HardwareGraph,
    gpus: Iterable[int],
    pcie_bandwidth_gbps: float = bandwidth_of(LinkType.PCIE),
) -> RingDecomposition:
    """Decompose an allocation into NCCL rings.

    Rules (mirroring NCCL channel construction):

    * 1 GPU: no rings (no inter-GPU communication).
    * 2 GPUs: one ring per channel of the connecting link; a pure-PCIe pair
      gets the single host-routed ring.
    * ≥3 GPUs: peel edge-disjoint all-NVLink Hamiltonian cycles; if none
      exists the allocation is *fragmented* and all traffic shares one
      host-routed ring whose bottleneck is PCIe.  (A ring with even one
      PCIe hop runs at PCIe speed end-to-end, so mixed rings are never
      better than the host ring — we model them as the host ring.)
    """
    verts = tuple(sorted(set(gpus)))
    for g in verts:
        if g not in hardware:
            raise KeyError(f"unknown GPU {g}")
    if len(verts) < 2:
        return RingDecomposition(gpus=verts, rings=())

    if len(verts) == 2:
        u, v = verts
        table = hardware.link_table
        if table.has_nvlink(u, v):
            per = table.channel_bandwidth(u, v)
            rings = tuple(
                Ring(order=verts, bottleneck_gbps=per)
                for _ in range(table.num_channels(u, v))
            )
        else:
            rings = (Ring(order=verts, bottleneck_gbps=pcie_bandwidth_gbps, uses_pcie=True),)
        return RingDecomposition(gpus=verts, rings=rings)

    # A greedy peel can pick a first cycle that strands channels a better
    # decomposition would have used; try the three deterministic heuristics
    # and keep the decomposition with the highest total bandwidth.
    best: List[Ring] = []
    for prefer in ("scarcity", "bandwidth", "id"):
        rings = _peel_rings(hardware, verts, prefer)
        if sum(r.bottleneck_gbps for r in rings) > sum(
            r.bottleneck_gbps for r in best
        ):
            best = rings
    if not best:
        best = [Ring(order=verts, bottleneck_gbps=pcie_bandwidth_gbps, uses_pcie=True)]
    return RingDecomposition(gpus=verts, rings=tuple(best))
