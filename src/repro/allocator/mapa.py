"""The MAPA framework (paper Fig. 7): match → score → select → update.

:class:`Mapa` wires together the pieces: it owns the server's
:class:`~repro.allocator.state.AllocationState`, runs the configured
pattern-selection policy over the free GPUs for each request, commits the
chosen allocation, and restores the hardware graph when jobs finish.  It
also annotates every successful allocation with the full score vector
(AggBW, predicted EffBW, PreservedBW) so downstream logging (the
simulator's Fig. 14 log file) needs no recomputation.
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Dict, Hashable, Optional, Tuple

from ..policies.base import Allocation, AllocationPolicy, AllocationRequest
from ..scoring.aggregate import aggregated_bandwidth
from ..scoring.census import LinkCensus, census_of_allocation
from ..scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from ..scoring.preserved import preserved_bandwidth
from ..topology.hardware import HardwareGraph
from .state import AllocationState


@lru_cache(maxsize=128)
def _takes_free_mask(allocate) -> bool:
    """Whether an ``allocate`` function accepts ``free_mask=``.

    Memoised per underlying function, so a fleet of servers sharing a
    policy class probes its signature once, not once per server.
    """
    try:
        return "free_mask" in inspect.signature(allocate).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


class Mapa:
    """Multi-Accelerator Pattern Allocation engine for one server.

    Parameters
    ----------
    hardware:
        The server's hardware graph.
    policy:
        Pattern-selection policy (Baseline / Topo-aware / Greedy /
        Preserve).
    model:
        Eq. 2 model used to annotate allocations with a predicted
        effective bandwidth (independent of whatever the policy used
        internally), so every policy's decisions are scored on the same
        yardstick — exactly how Fig. 13(c, d) compares policies.
    """

    def __init__(
        self,
        hardware: HardwareGraph,
        policy: AllocationPolicy,
        model: EffectiveBandwidthModel = PAPER_MODEL,
    ) -> None:
        self.hardware = hardware
        self.policy = policy
        self.model = model
        self.state = AllocationState(hardware)
        self._anon_counter = 0
        # Annotation memos: each score component keyed by exactly what
        # it depends on.  aggregated_bandwidth reads only the match's
        # edges; census_of_allocation / Eq. 2 read only the GPU tuple;
        # Eq. 3 PreservedBW is remaining_bandwidth of the
        # *post-allocation* free set, so its key is the pre-commit
        # bitmask with the matched vertices' bits cleared.
        self._agg_memo: Dict[Tuple, float] = {}
        self._census_memo: Dict[Tuple[int, ...], Tuple[float, float, float, float]] = {}
        self._preserved_memo: Dict[int, float] = {}
        # Eq. 2 under this engine's model for proposals scored off a
        # match table, keyed by their (census_x, census_y, census_z).
        self._effective_memo: Dict[Tuple[float, float, float], float] = {}
        # Bit per GPU, same convention as AllocationState.free_bitmask
        # (bit i = i-th GPU of the sorted GPU tuple); plus a per-vertex-
        # tuple mask memo so recurring winners clear their bits in O(1).
        self._gpu_bit: Dict[int, int] = {
            g: 1 << i for i, g in enumerate(hardware.gpus)
        }
        self._vertex_mask_memo: Dict[Tuple[int, ...], int] = {}
        # Scan-memoizing policies take the state's incremental free-set
        # bitmask so their cache key costs O(1); detected by signature
        # so third-party three-argument policies keep working.
        allocate = policy.allocate
        self._policy_takes_mask = _takes_free_mask(
            getattr(allocate, "__func__", allocate)
        )

    # ------------------------------------------------------------------ #
    def can_ever_fit(self, request: AllocationRequest) -> bool:
        """Whether the request fits an *idle* server at all."""
        return request.num_gpus <= self.hardware.num_gpus

    def propose(self, request: AllocationRequest) -> Optional[Allocation]:
        """Run the policy on the current free GPUs without committing.

        The uncommitted proposal the policy selected, or ``None`` when
        the request cannot be satisfied.  The free pool is served as
        the state's cached sorted tuple, and scan-memoizing policies
        additionally receive the incrementally maintained free-set
        bitmask — the key of the content-addressed scan cache — so a
        repeat of a previously seen free set costs one cache lookup.
        Callers that commit (``try_allocate``, the multi-server
        best-score prober) annotate and apply the proposal themselves.
        """
        available = self.state.free_sorted
        if self._policy_takes_mask:
            return self.policy.allocate(
                request,
                self.hardware,
                available,
                free_mask=self.state.free_bitmask,
            )
        return self.policy.allocate(request, self.hardware, available)

    def decide(self, request: AllocationRequest) -> Optional[Allocation]:
        """The complete, uncommitted decision for ``request``, or ``None``.

        The policy's proposal with its full score vector
        (:meth:`_annotate`) and no ``job_id``; the state is untouched.
        A proposal scored off a match table is returned as is, so the
        scan cache's winner memo and the scheduler's decision memo
        share one object.
        """
        proposal = self.propose(request)
        if proposal is None:
            return None
        return self._annotate(proposal, self.state.free_sorted)

    def try_allocate(self, request: AllocationRequest) -> Optional[Allocation]:
        """Attempt to place ``request`` on the currently free GPUs.

        On success the allocation is committed to the state and returned
        with a complete score annotation; on failure (not enough suitable
        GPUs) the state is untouched and ``None`` is returned.
        """
        if not self.can_ever_fit(request):
            raise ValueError(
                f"job needs {request.num_gpus} GPUs but "
                f"{self.hardware.name} has only {self.hardware.num_gpus}"
            )
        decision = self.decide(request)
        if decision is None:
            return None
        job_id: Hashable = request.job_id
        if job_id is None:
            # Anonymous request: mint a handle and hand it back on the
            # allocation so the caller can release the job later.
            self._anon_counter += 1
            job_id = ("anon", self._anon_counter)
        self.state.allocate(job_id, decision.gpus)
        return decision.rebind(job_id)

    def release(self, job_id: Hashable) -> Tuple[int, ...]:
        """Hand a finished job's GPUs back (the "Job Finished" signal)."""
        return self.state.release(job_id)

    def reset(self) -> None:
        """Release every job (e.g. between simulation runs)."""
        self.state.reset()

    # ------------------------------------------------------------------ #
    def _annotate(self, alloc: Allocation, available) -> Allocation:
        """``alloc`` with the full score vector (AggBW, census, Eq. 2, Eq. 3).

        The result is uncommitted: callers commit its
        :meth:`~repro.policies.base.Allocation.rebind` to the job.

        A scanning policy's proposal is scored off its match table and
        already carries every key (:meth:`MatchTable.scores
        <repro.policies.scan.MatchTable.scores>`) except, for Greedy
        and Oracle, ``effective_bw`` under this engine's model: that is
        read from a census-keyed memo and inserted after ``census_z``.
        A complete proposal is returned as is.

        Any other proposal (Baseline, Topo-aware, a spilled winner
        without census keys) is scored here.  Each component is
        memoized by its own minimal key — AggBW by the match's edge
        tuple, census/Eq. 2 by the GPU tuple, Eq. 3 PreservedBW by the
        post-allocation free bitmask — and every cached value is the
        exact result of the uncached call.  Policy-filled scores win
        (``agg_bw``, ``effective_bw`` and ``preserved_bw`` are only
        filled in when absent); census_x/y/z are always (re)written
        from the induced census, since Eq. 2 operates on the matched
        GPU set (E(P) ⊆ E(M): the match is the induced subgraph).

        A completed copy is pinned onto the proposal *object* (keyed by
        the model's coefficient vector).  Scan-cache winner objects
        live exactly as long as their content-addressed ``(wiring,
        pattern, free set)`` entry — every input of the annotation is
        fixed for the object's lifetime — so a recurring winner
        completes in one dict lookup, across replays when the cache is
        shared.
        """
        match = alloc.match
        if match is None:
            return alloc
        scores = alloc.scores
        scored = "census_z" in scores and "preserved_bw" in scores
        if scored and "effective_bw" in scores:
            return alloc
        memo: Optional[Dict[Tuple[float, ...], Allocation]] = getattr(
            alloc, "_annotated", None
        )
        if memo is not None:
            done = memo.get(self.model.coefficients)
            if done is not None:
                return done
        if scored:
            census = (scores["census_x"], scores["census_y"], scores["census_z"])
            effective = self._effective_memo.get(census)
            if effective is None:
                x, y, z = (int(c) for c in census)
                effective = self.model.predict_census(LinkCensus(x, y, z))
                self._effective_memo[census] = effective
            completed: Dict[str, float] = {}
            for key, value in scores.items():
                completed[key] = value
                if key == "census_z":
                    completed["effective_bw"] = effective
        else:
            completed = self._rescore(alloc, available)
        done = Allocation(gpus=alloc.gpus, match=match, scores=completed)
        if memo is None:
            memo = {}
            object.__setattr__(alloc, "_annotated", memo)
        memo[self.model.coefficients] = done
        return done

    def _rescore(self, alloc: Allocation, available) -> Dict[str, float]:
        """The score vector of a proposal that carries no census."""
        match = alloc.match
        scores = dict(alloc.scores)
        if "agg_bw" not in scores:
            agg = self._agg_memo.get(match.edges)
            if agg is None:
                agg = aggregated_bandwidth(self.hardware, match)
                self._agg_memo[match.edges] = agg
            scores["agg_bw"] = agg
        census = self._census_memo.get(alloc.gpus)
        if census is None:
            induced = census_of_allocation(self.hardware, alloc.gpus)
            census = (
                float(induced.x),
                float(induced.y),
                float(induced.z),
                self.model.predict_census(induced),
            )
            self._census_memo[alloc.gpus] = census
        scores["census_x"] = census[0]
        scores["census_y"] = census[1]
        scores["census_z"] = census[2]
        if "effective_bw" not in scores:
            scores["effective_bw"] = census[3]
        if "preserved_bw" not in scores:
            vmask = self._vertex_mask_memo.get(match.vertices)
            if vmask is None:
                vmask = 0
                for g in match.vertices:
                    vmask |= self._gpu_bit[g]
                self._vertex_mask_memo[match.vertices] = vmask
            remaining_mask = self.state.free_bitmask & ~vmask
            preserved = self._preserved_memo.get(remaining_mask)
            if preserved is None:
                preserved = preserved_bandwidth(self.hardware, match, available)
                self._preserved_memo[remaining_mask] = preserved
            scores["preserved_bw"] = preserved
        return scores
