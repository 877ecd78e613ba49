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
from typing import Dict, Hashable, Optional, Tuple

from ..policies.base import Allocation, AllocationPolicy, AllocationRequest
from ..scoring.aggregate import aggregated_bandwidth
from ..scoring.census import census_of_allocation
from ..scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from ..scoring.preserved import preserved_bandwidth
from ..topology.hardware import HardwareGraph
from .state import AllocationState


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
        try:
            self._policy_takes_mask = (
                "free_mask" in inspect.signature(policy.allocate).parameters
            )
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            self._policy_takes_mask = False

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
        available = self.state.free_sorted
        proposal = self.propose(request)
        if proposal is None:
            return None
        job_id: Hashable = request.job_id
        if job_id is None:
            # Anonymous request: mint a handle and hand it back on the
            # allocation so the caller can release the job later.
            self._anon_counter += 1
            job_id = ("anon", self._anon_counter)
        annotated = self._annotate(proposal, available, job_id)
        self.state.allocate(job_id, annotated.gpus)
        return annotated

    def release(self, job_id: Hashable) -> Tuple[int, ...]:
        """Hand a finished job's GPUs back (the "Job Finished" signal)."""
        return self.state.release(job_id)

    def reset(self) -> None:
        """Release every job (e.g. between simulation runs)."""
        self.state.reset()

    # ------------------------------------------------------------------ #
    def _annotate(
        self, alloc: Allocation, available, job_id: Hashable
    ) -> Allocation:
        """Fill in the full score vector and the committed ``job_id``.

        Each component is memoized by its own minimal key — AggBW by
        the match's edge tuple, census/Eq. 2 by the GPU tuple, Eq. 3
        PreservedBW by the post-allocation free bitmask — so a winner
        commits cheaply even on a never-seen free set, as long as any
        component recurred.  Every cached value is the exact result of
        the uncached call.  Policy-filled scores win (``agg_bw``,
        ``effective_bw`` and ``preserved_bw`` are only filled in when
        absent); census_x/y/z are always (re)written from the induced
        census, since Eq. 2 operates on the matched GPU set (E(P) ⊆
        E(M): the match is the induced subgraph).

        The finished score vector is additionally pinned onto the
        proposal *object* (keyed by the model's coefficient vector).
        Scan-cache winner objects live exactly as long as their
        content-addressed ``(wiring, pattern, free set)`` entry — every
        input of the annotation is fixed for the object's lifetime — so
        a recurring winner re-annotates in one dict lookup, across
        replays when the cache is shared.  Policies that build fresh
        proposals per call (``engine="batch"``) simply never hit this
        memo.
        The memoized dict is shared read-only — :class:`Allocation`
        copies it into its frozen mapping view at construction.
        """
        match = alloc.match
        if match is None:
            return Allocation(
                gpus=alloc.gpus,
                match=None,
                scores=dict(alloc.scores),
                job_id=job_id,
            )
        memo: Optional[Dict[Tuple[float, ...], Dict[str, float]]] = getattr(
            alloc, "_annotated", None
        )
        if memo is not None:
            scores = memo.get(self.model.coefficients)
            if scores is not None:
                return Allocation(
                    gpus=alloc.gpus, match=match, scores=scores, job_id=job_id
                )
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
        if memo is None:
            memo = {}
            object.__setattr__(alloc, "_annotated", memo)
        memo[self.model.coefficients] = scores
        return Allocation(
            gpus=alloc.gpus, match=match, scores=scores, job_id=job_id
        )
