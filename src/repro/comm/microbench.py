"""Simulated NCCL all-reduce microbenchmark (the paper's EffBW ground truth).

The paper measures an allocation's *effective bandwidth* by running the
NCCL all-reduce microbenchmark on it (section 3.4.1).  With no GPUs, we
simulate the benchmark: ring decomposition (:mod:`repro.comm.rings`)
gives the peak bus bandwidth, and an alpha–beta (latency–bandwidth) cost
model reproduces the data-size dependence of Fig. 2a:

    time(S) = α + S / (η · peak)          per ring traversal
    bw(S)   = S / time(S) = η·peak · S / (S + α·η·peak)

so small transfers are launch-latency bound and *link independent* (all
of Fig. 2a's curves converge at the left), while large transfers approach
η·peak.  η = 0.92 captures protocol overhead (a measured double
NVLink-v2 pair tops out near 46 GB/s, not 50); α = 20 µs per collective.

The ring peel is a backtracking search, and fitting Eq. 2 measures
every 2–5-GPU subset of a server (6,868 on a 16-GPU wiring).  Peak
bandwidths are therefore memoised twice: per ``(topology, GPU set)``
for the simulators' repeated placements, and behind that per channel
*shape* — the order-preserving induced NVLink channel graph of the
subset — so the peel runs once per distinct shape, with bit-identical
results (see :func:`_ring_bandwidth`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Sequence, Tuple

from ..topology.hardware import HardwareGraph
from .rings import RingDecomposition, build_rings

#: Fraction of theoretical link bandwidth an all-reduce actually sustains.
PROTOCOL_EFFICIENCY = 0.92

#: Launch + protocol latency of one collective call, seconds.
LAUNCH_LATENCY_SECONDS = 20e-6

#: Data size used when reporting "the" effective bandwidth of an
#: allocation — deep in the saturated regime, like the paper's peak numbers.
SATURATED_SIZE_BYTES = 256 * 2**20


def size_efficiency(
    data_size_bytes: float,
    peak_gbps: float,
    alpha_seconds: float = LAUNCH_LATENCY_SECONDS,
) -> float:
    """Fraction of ``peak_gbps`` achieved at a given transfer size.

    Derived from the alpha–beta model: the half-saturation size is
    ``α · peak`` — faster links need larger transfers to saturate, which is
    exactly the shape of Fig. 2a.
    """
    if data_size_bytes <= 0:
        return 0.0
    half_saturation = alpha_seconds * peak_gbps * 1e9
    return data_size_bytes / (data_size_bytes + half_saturation)


#: Bound of the shape memo; it is cleared when full, like the
#: scheduler's decision memo.
_SHAPE_MEMO_CAP = 8192

#: ``shape key -> peak bus bandwidth`` of every ring peel so far.
_SHAPE_MEMO: Dict[tuple, float] = {}


@lru_cache(maxsize=8192)
def _ring_bandwidth(hardware: HardwareGraph, gpus: Tuple[int, ...]) -> float:
    """Memoised peak bus bandwidth of one allocation's ring decomposition.

    Two memos sit in front of :func:`~repro.comm.rings.build_rings`.
    The front one is this ``lru_cache`` on ``(hardware, gpus)``: the
    simulators re-measure the same allocations for every job placement,
    and a hit costs one hash.  Keyed by graph equality, it is shared
    across equal topology instances.

    Behind it, a miss looks up the allocation's *shape*: ``(k, e01, e02,
    …)`` with one entry per GPU pair ``i < j`` in sorted-GPU order, read
    from the topology's :class:`~repro.topology.linktable.LinkTable` —
    ``(channels, per_channel)`` for an NVLink pair, ``0`` otherwise.
    The ring peel reads nothing else (the 2-GPU branch reads the same
    three fields) and compares GPU ids only by their order, so every
    subset of the same shape peels to the identical float, on any
    wiring.  The shape is deliberately not canonicalised up to
    isomorphism: the peel's tie-breaks follow label order, so a
    relabelled subset may peel differently.  Only a new shape runs the
    backtracking peel — 4 of the 6,868 subsets a DGX-2 refit measures.
    """
    table = hardware.link_table
    index = table.index
    if any(g not in index for g in gpus):  # let the peel raise its error
        return build_rings(hardware, gpus).total_bandwidth_gbps
    rows = [index[g] for g in gpus]
    n = table.n
    nvlink, channels, per_channel = table.nvlink, table.channels, table.per_channel
    key = [len(gpus)]
    for i, row in enumerate(rows):
        base = row * n
        for col in rows[i + 1 :]:
            p = base + col
            key.append((channels[p], per_channel[p]) if nvlink[p] else 0)
    shape = tuple(key)
    bandwidth = _SHAPE_MEMO.get(shape)
    if bandwidth is None:
        bandwidth = build_rings(hardware, gpus).total_bandwidth_gbps
        if len(_SHAPE_MEMO) >= _SHAPE_MEMO_CAP:
            _SHAPE_MEMO.clear()
        _SHAPE_MEMO[shape] = bandwidth
    return bandwidth


def release_graph_memo() -> None:
    """Drop both ring-bandwidth memos and every graph reference they pin.

    The front memo's keys hold :class:`HardwareGraph` instances — and
    through their cached link tables, whatever buffers those tables
    view.  A shard worker whose tables are zero-copy views of a
    shared-memory segment (:mod:`repro.cluster.sharding`) must release
    those exports before the segment can be unmapped, so its teardown
    calls this before closing the mapping.  The shape memo holds only
    ints and floats, but is cleared too so that a released process
    starts from nothing.  Purely a lifecycle hook: the next measurement
    simply repopulates both.
    """
    _ring_bandwidth.cache_clear()
    _SHAPE_MEMO.clear()


def peak_effective_bandwidth(
    hardware: HardwareGraph,
    gpus: Iterable[int],
    efficiency: float = PROTOCOL_EFFICIENCY,
) -> float:
    """Saturated all-reduce bus bandwidth of an allocation, in GB/s.

    Single-GPU allocations have no inter-GPU traffic and report 0.
    """
    return _ring_bandwidth(hardware, tuple(sorted(set(gpus)))) * efficiency


def effective_bandwidth(
    hardware: HardwareGraph,
    gpus: Iterable[int],
    data_size_bytes: float = SATURATED_SIZE_BYTES,
    efficiency: float = PROTOCOL_EFFICIENCY,
    alpha_seconds: float = LAUNCH_LATENCY_SECONDS,
) -> float:
    """Simulated NCCL all-reduce bandwidth for an allocation and size."""
    peak = peak_effective_bandwidth(hardware, gpus, efficiency)
    return peak * size_efficiency(data_size_bytes, peak, alpha_seconds)


def bandwidth_sweep(
    hardware: HardwareGraph,
    gpus: Sequence[int],
    data_sizes_bytes: Sequence[float],
) -> Tuple[Tuple[float, float], ...]:
    """(size, bandwidth) series for one allocation — one Fig. 2a curve."""
    peak = peak_effective_bandwidth(hardware, gpus)
    return tuple((s, peak * size_efficiency(s, peak)) for s in data_sizes_bytes)


def allreduce_time_seconds(
    hardware: HardwareGraph,
    gpus: Sequence[int],
    data_size_bytes: float,
    alpha_seconds: float = LAUNCH_LATENCY_SECONDS,
) -> float:
    """Time for one ring all-reduce of ``data_size_bytes`` over ``gpus``.

    Ring all-reduce moves ``2·(k-1)/k`` of the buffer through the
    bottleneck at the allocation's peak bandwidth, plus ``(k-1)`` latency
    hops.  Single-GPU "collectives" are free.
    """
    k = len(set(gpus))
    if k < 2:
        return 0.0
    peak = peak_effective_bandwidth(hardware, gpus)
    if peak <= 0:
        raise ValueError(f"allocation {tuple(gpus)} has zero effective bandwidth")
    volume = 2.0 * (k - 1) / k * data_size_bytes
    return volume / (peak * 1e9) + (k - 1) * alpha_seconds
