"""Allocation-policy interface shared by MAPA and the comparators.

A policy receives an :class:`AllocationRequest` (how many GPUs, which
communication pattern, whether the job is bandwidth sensitive) plus the
hardware graph and the set of currently free GPUs, and proposes an
:class:`Allocation` — or ``None`` when the request cannot be satisfied.
Policies are stateless with respect to jobs; hardware bookkeeping lives in
:class:`repro.allocator.state.AllocationState`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Sequence, Tuple

from ..appgraph.application import ApplicationGraph
from ..matching.candidates import Match
from ..scoring.memo import ScanCache
from ..topology.hardware import HardwareGraph
from .scan import SCAN_ENGINES, CachedScan, MatchTable, UncachedScan


@dataclass(frozen=True)
class AllocationRequest:
    """One job's resource request.

    ``job_id`` is any hashable identifier — the simulators use the
    integer ids from :class:`~repro.workloads.jobs.Job`, but callers
    driving the scheduler directly may use whatever they track jobs by.
    """

    pattern: ApplicationGraph
    bandwidth_sensitive: bool = True
    job_id: Optional[Hashable] = None

    def __post_init__(self) -> None:
        # Cached: a fleet replay probes num_gpus on every placement
        # attempt and candidate-server pass, so one attribute read
        # beats chasing pattern.num_gpus each time.  Not a field —
        # eq/hash/repr are unaffected.
        object.__setattr__(self, "_num_gpus", self.pattern.num_gpus)

    @property
    def num_gpus(self) -> int:
        """GPUs the pattern needs."""
        return self._num_gpus


@dataclass(frozen=True)
class Allocation:
    """A policy's decision for one request.

    Fully immutable: ``scores`` is wrapped in a read-only mapping view
    at construction, so a committed allocation can never be reshaped by
    downstream annotation or logging code.

    ``job_id`` is the handle the allocation was committed under.
    Policies leave it ``None`` (they only propose); the
    :class:`~repro.allocator.mapa.Mapa` engine fills it in when it
    commits — including the generated handle for anonymous requests —
    so the caller can always ``release()`` what it was given.
    """

    gpus: Tuple[int, ...]
    match: Optional[Match] = None
    scores: Mapping[str, float] = field(default_factory=dict)
    job_id: Optional[Hashable] = None

    def __post_init__(self) -> None:
        """Freeze ``scores`` behind a read-only mapping view."""
        object.__setattr__(self, "scores", MappingProxyType(dict(self.scores)))

    def rebind(self, job_id: Optional[Hashable]) -> "Allocation":
        """A copy of this allocation committed under ``job_id``.

        Shares the existing read-only ``scores`` view instead of
        re-copying the dict through ``__post_init__`` — the memoised
        decision paths re-commit identical winners thousands of times
        per replay, and every field of the clone is as immutable as the
        original's.
        """
        clone = object.__new__(Allocation)
        object.__setattr__(clone, "gpus", self.gpus)
        object.__setattr__(clone, "match", self.match)
        object.__setattr__(clone, "scores", self.scores)
        object.__setattr__(clone, "job_id", job_id)
        return clone

    @property
    def num_gpus(self) -> int:
        """GPUs this allocation holds."""
        return len(self.gpus)


class AllocationPolicy(abc.ABC):
    """Base class for allocation policies."""

    #: Short policy name used in logs, tables and the CLI.
    name: str = "abstract"

    @abc.abstractmethod
    def allocate(
        self,
        request: AllocationRequest,
        hardware: HardwareGraph,
        available: "FrozenSet[int] | Sequence[int]",
    ) -> Optional[Allocation]:
        """Propose GPUs for ``request`` from ``available``, or ``None``.

        ``available`` is any collection of free GPU ids — the
        :class:`~repro.allocator.mapa.Mapa` engine passes the
        allocation state's cached sorted tuple; policies normalise
        (sort / set-convert) as they need.

        Policies that memoize scans may additionally accept a
        ``free_mask`` keyword — the caller's incrementally maintained
        free-set bitmask (see
        :attr:`repro.allocator.state.AllocationState.free_bitmask`),
        which must describe exactly ``available``.  The engine detects
        support by signature inspection, so policies with the plain
        three-argument form keep working unchanged.
        """

    def _feasible(self, request: AllocationRequest, available: FrozenSet[int]) -> bool:
        """Cheap necessary condition: enough free GPUs at all."""
        return request.num_gpus <= len(available)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class ScanningPolicy(AllocationPolicy):
    """A policy that maximises a score over every match of the pattern.

    Greedy, Preserve and Oracle differ only in the objective.  Each
    ``allocate`` checks feasibility, picks an objective — a winner-memo
    token and a ``proposal(table, kept, free_mask) -> Allocation``
    selector — and asks the scan source for its decision.  The source
    is picked once, here.  A selector picks one table row and returns
    :meth:`_allocation` of it: one complete proposal whose scores all
    come off the table, which :class:`~repro.allocator.mapa.Mapa`
    commits without re-scoring.

    Parameters
    ----------
    engine:
        One of :data:`~repro.policies.scan.SCAN_ENGINES`.  ``"cached"``
        (default) decides through a
        :class:`~repro.policies.scan.CachedScan`, which memoizes each
        (wiring, pattern, free-set) scan and its winner per token in a
        content-addressed :class:`~repro.scoring.memo.ScanCache`;
        ``"batch"`` decides through an
        :class:`~repro.policies.scan.UncachedScan`, which rescans on
        every call.  Both select identical allocations; anything else
        raises ``ValueError``.
    cache:
        Backing :class:`~repro.scoring.memo.ScanCache` for the cached
        source (the multi-server scheduler shares one across a fleet's
        policies); private when omitted, ignored by ``"batch"``.
    """

    def __init__(
        self, engine: str = "cached", cache: Optional[ScanCache] = None
    ) -> None:
        if engine not in SCAN_ENGINES:
            raise ValueError(
                f"unknown scan engine {engine!r}; known: {', '.join(SCAN_ENGINES)}"
            )
        self.engine = engine
        self._scans = CachedScan(cache) if engine == "cached" else UncachedScan()
        #: The backing cache, or ``None`` under ``engine="batch"``.
        self.scan_cache: Optional[ScanCache] = self._scans.cache

    @staticmethod
    def _allocation(
        table: MatchTable, row: int, free_mask: int, head: Dict[str, float]
    ) -> Allocation:
        """The proposal of ``table`` row ``row``, scored in full.

        ``head`` is the objective's own scores, ending with ``agg_bw``
        (:meth:`~repro.policies.scan.MatchTable.scores` appends the
        rest).
        """
        match = table.match(row)
        return Allocation(
            gpus=match.vertices,
            match=match,
            scores=table.scores(row, free_mask, head),
        )
