"""Multi-server scheduling: MAPA inside each node, placement across nodes.

The paper scopes MAPA to fragmentation *within* one server and calls
cross-node scheduling complementary (Philly / Gandiva, section 6).  This
extension composes them: a cluster of MAPA-managed servers, a node-
selection policy that picks which server hosts each job, and MAPA
choosing the GPUs within the chosen server.

Node-selection policies:

* ``first-fit``  — lowest-index server that can place the job now;
* ``pack``       — feasible server with the fewest free GPUs (bin-packing:
  keeps whole servers idle for large jobs, Philly's locality goal);
* ``spread``     — feasible server with the most free GPUs;
* ``best-score`` — run MAPA's policy speculatively on every feasible
  server and take the placement with the highest predicted effective
  bandwidth (costlier, topology-aware across nodes).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from itertools import chain
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..allocator.mapa import Mapa
from ..policies.base import Allocation, AllocationPolicy, AllocationRequest
from ..policies.registry import make_policy
from ..scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from ..scoring.memo import CacheStats, ScanCache
from ..topology.hardware import HardwareGraph

NODE_POLICIES = ("first-fit", "pack", "spread", "best-score")

#: Safety bound on the first-fit decision memo (a steady-state fleet
#: revisits a few thousand (server, free-mask, pattern) keys; the cap
#: only matters for adversarially long non-recurring traces, where the
#: memo is simply dropped and rebuilt).
_DECISION_MEMO_CAP = 1 << 17


class CandidateServerIndex:
    """Incremental index of servers by free-GPU count.

    At fleet scale the scheduler used to test every server's free count
    on every event (an O(fleet) scan per arrival, completion and
    backfill probe).  This index buckets server indices by their current
    free-GPU count — bucket ``f`` holds, in ascending index order, the
    servers with exactly ``f`` GPUs free — and is maintained from
    placement/release *deltas*: a server moves between two buckets when
    its free count changes, everything else stays untouched.

    A request for ``k`` GPUs is feasible on exactly the servers in
    buckets ``k .. max_capacity`` (a server's free count never exceeds
    its capacity, so no separate capacity check is needed), and every
    node policy's preference order falls out of how the buckets are
    walked:

    * ascending index (``first-fit`` / ``best-score``): a lazy merge of
      the sorted buckets;
    * ``pack`` — ``(free, index)``: buckets walked smallest-count first;
    * ``spread`` — ``(-free, index)``: buckets walked largest-count
      first.

    Per-event cost is O(buckets + candidates actually consumed) instead
    of O(fleet); the caller usually stops at the first feasible server.
    """

    def __init__(
        self,
        free_counts: Sequence[int],
        capacities: Optional[Sequence[int]] = None,
    ) -> None:
        self._free: List[int] = list(free_counts)
        if capacities is None:
            # Best guess without hardware knowledge: a server can hold
            # at least what it currently has free.  Callers that may
            # construct mid-run (resync after out-of-band mutation)
            # pass the true per-server capacities explicitly.
            self._capacity: List[int] = list(self._free)
        else:
            self._capacity = list(capacities)
            if len(self._capacity) != len(self._free):
                raise ValueError(
                    f"{len(self._capacity)} capacities for "
                    f"{len(self._free)} servers"
                )
        for server, free in enumerate(self._free):
            if free < 0:
                raise ValueError(
                    f"negative free count {free} for server {server}"
                )
            if free > self._capacity[server]:
                raise ValueError(
                    f"free count {free} exceeds capacity "
                    f"{self._capacity[server]} for server {server}"
                )
        cap = max(self._capacity, default=0)
        self._buckets: List[List[int]] = [[] for _ in range(cap + 1)]
        for server, free in enumerate(self._free):
            self._buckets[free].append(server)
        # Fleet-dynamics membership: an inactive server (failed or
        # drained) keeps its index slot and its free count but lives in
        # no bucket, so it is invisible to every candidate walk while
        # releases on it still book-keep correctly.
        self._active: List[bool] = [True] * len(self._free)
        # Largest free count in the fleet, maintained by set_free(): the
        # O(1) infeasibility test.  A saturated fleet retries its queue
        # head after every completion, and most retries are infeasible —
        # this scalar answers them without walking any buckets.
        self._max_free: int = max(self._free, default=0)

    # ------------------------------------------------------------------ #
    @property
    def num_servers(self) -> int:
        """Servers tracked by the index."""
        return len(self._free)

    def free_count(self, server: int) -> int:
        """The index's view of one server's free-GPU count."""
        return self._free[server]

    def capacity(self, server: int) -> int:
        """The index's view of one server's total GPU count."""
        return self._capacity[server]

    @property
    def max_free(self) -> int:
        """The largest free count over all *active* servers (O(1))."""
        return self._max_free

    def is_active(self, server: int) -> bool:
        """Whether ``server`` currently participates in candidate walks."""
        return self._active[server]

    def _drop_max_free(self, old: int) -> None:
        """Walk ``_max_free`` down after the top bucket lost a member.

        Amortised O(1) — the walk only covers ground a matching sequence
        of upward moves paid for.
        """
        if old == self._max_free and not self._buckets[old]:
            top = old
            while top > 0 and not self._buckets[top]:
                top -= 1
            self._max_free = top

    def set_free(self, server: int, free: int) -> None:
        """Move ``server`` to bucket ``free`` (no-op if unchanged).

        This is the delta update: O(log bucket + bucket shift) for the
        two touched buckets, nothing else moves.  ``free`` must lie in
        ``0 .. capacity(server)`` — a count above the server's capacity
        is exactly as corrupt as a negative one (it would route
        infeasible requests at the server forever) and raises the same
        :class:`ValueError` shape.  An inactive server only records the
        count (a drained server's jobs keep finishing); its bucket
        placement happens at :meth:`activate` time.
        """
        old = self._free[server]
        if free == old:
            return
        if free < 0:
            raise ValueError(f"negative free count {free} for server {server}")
        if free > self._capacity[server]:
            raise ValueError(
                f"free count {free} exceeds capacity "
                f"{self._capacity[server]} for server {server}"
            )
        if not self._active[server]:
            self._free[server] = free
            return
        bucket = self._buckets[old]
        del bucket[bisect_left(bucket, server)]
        if free >= len(self._buckets):  # pragma: no cover - unreachable
            self._buckets.extend(
                [] for _ in range(free - len(self._buckets) + 1)
            )
        insort(self._buckets[free], server)
        self._free[server] = free
        if free > self._max_free:
            self._max_free = free
        else:
            self._drop_max_free(old)

    # ------------------------------------------------------------------ #
    # fleet-dynamics membership
    # ------------------------------------------------------------------ #
    def add_server(self, free: int, capacity: int) -> int:
        """Append a new (active) server; returns its index.

        The autoscale-grow path: the server lands in bucket ``free``
        with the highest index, so every candidate order sees it after
        the incumbents it ties with — deterministic and
        insertion-stable.
        """
        if free < 0 or free > capacity:
            raise ValueError(
                f"free count {free} out of range for capacity {capacity}"
            )
        server = len(self._free)
        self._free.append(free)
        self._capacity.append(capacity)
        self._active.append(True)
        if capacity >= len(self._buckets):
            self._buckets.extend(
                [] for _ in range(capacity - len(self._buckets) + 1)
            )
        self._buckets[free].append(server)  # highest index: stays sorted
        if free > self._max_free:
            self._max_free = free
        return server

    def deactivate(self, server: int) -> None:
        """Remove ``server`` from every candidate walk (keep its slot).

        Failure and drain both route through here: the server's free
        count stays tracked (releases on a draining server still update
        it via :meth:`set_free`) but no placement will ever consider it.
        No-op if already inactive.
        """
        if not self._active[server]:
            return
        old = self._free[server]
        bucket = self._buckets[old]
        del bucket[bisect_left(bucket, server)]
        self._active[server] = False
        self._drop_max_free(old)

    def activate(self, server: int, free: Optional[int] = None) -> None:
        """Return ``server`` to candidate walks (the repair path).

        ``free`` overrides the tracked free count (a repaired server
        comes back empty, i.e. fully free).  No-op if already active.
        """
        if self._active[server]:
            return
        if free is not None:
            if free < 0 or free > self._capacity[server]:
                raise ValueError(
                    f"free count {free} out of range for server {server}"
                )
            self._free[server] = free
        count = self._free[server]
        insort(self._buckets[count], server)
        self._active[server] = True
        if count > self._max_free:
            self._max_free = count

    def first(self, num_gpus: int) -> Optional[int]:
        """Lowest-index server with ≥ ``num_gpus`` free, or ``None``.

        The O(buckets) fast path for ``first-fit``: the answer is the
        smallest bucket *head* among the feasible buckets (buckets are
        sorted ascending), so no merge iterator is built.  Equivalent to
        ``next(candidates(num_gpus, "index"), None)``.  An infeasible
        request — the common case when a saturated fleet retries its
        queue head after a completion — is rejected in O(1) off the
        maintained max free count, before any bucket is touched.
        """
        if num_gpus > self._max_free:
            return None
        best: Optional[int] = None
        for bucket in self._buckets[max(num_gpus, 0) : self._max_free + 1]:
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        return best

    # ------------------------------------------------------------------ #
    def candidates(self, num_gpus: int, order: str = "index") -> Iterator[int]:
        """Servers with ≥ ``num_gpus`` GPUs free, in preference order.

        ``order`` is ``"index"`` (ascending server index), ``"pack"``
        (fewest free GPUs first) or ``"spread"`` (most free GPUs first);
        ties always break by ascending index.  The iterator is lazy —
        consuming only the first candidate costs only that candidate —
        but the caller must not mutate the index while advancing it
        further (committing a placement and *then* abandoning the
        iterator, as ``try_place`` does, is fine).
        """
        if num_gpus > self._max_free:
            return iter(())
        feasible = self._buckets[max(num_gpus, 0) : self._max_free + 1]
        if order == "index":
            nonempty = [b for b in feasible if b]
            if len(nonempty) == 1:
                return iter(nonempty[0])
            return heapq.merge(*nonempty)
        if order == "pack":
            return chain.from_iterable(feasible)
        if order == "spread":
            return chain.from_iterable(reversed(feasible))
        raise ValueError(f"unknown candidate order {order!r}")

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Tuple[int, ...]:
        """The per-server free counts the index currently believes."""
        return tuple(self._free)

    def bucket_summary(self) -> Tuple[int, Tuple[int, ...]]:
        """``(max_free, histogram)`` — the index compressed to O(capacity).

        ``histogram[f]`` is the number of servers with exactly ``f``
        GPUs free (one entry per bucket, ``0 .. max capacity``).  This
        is the routing summary sharded fleets exchange: it is enough to
        answer every node policy's *shard*-level question — first-fit
        feasibility is ``max_free >= k``, pack wants the smallest
        non-empty bucket ``>= k``, spread the largest — without
        shipping per-server state, and cheap enough to piggyback on
        every placement/release reply.
        """
        return self._max_free, tuple(len(b) for b in self._buckets)

    def check(
        self,
        expected_free: Iterable[int],
        expected_active: Optional[Iterable[bool]] = None,
    ) -> None:
        """Assert the index equals one recomputed from scratch.

        Property tests drive random place/release sequences through the
        scheduler and call this after every step: the per-server counts
        must match ``expected_free`` exactly, and every bucket must hold
        exactly the *active* servers with that free count, sorted
        ascending.  ``expected_active`` defaults to all-active (the
        static-fleet contract).
        """
        expected = list(expected_free)
        if self._free != expected:
            raise AssertionError(
                f"index free counts {self._free} != actual {expected}"
            )
        active = (
            [True] * len(expected)
            if expected_active is None
            else list(expected_active)
        )
        if self._active != active:
            raise AssertionError(
                f"index activity {self._active} != actual {active}"
            )
        seen: List[int] = []
        for free, bucket in enumerate(self._buckets):
            if bucket != sorted(bucket):
                raise AssertionError(f"bucket {free} not sorted: {bucket}")
            for server in bucket:
                if self._free[server] != free:
                    raise AssertionError(
                        f"server {server} in bucket {free} but has "
                        f"{self._free[server]} free"
                    )
            seen.extend(bucket)
        expected_members = [s for s, up in enumerate(active) if up]
        if sorted(seen) != expected_members:
            raise AssertionError(
                f"buckets cover {sorted(seen)}, expected exactly the "
                f"active servers {expected_members}"
            )
        true_max = max(
            (f for s, f in enumerate(self._free) if active[s]), default=0
        )
        if self._max_free != true_max:
            raise AssertionError(
                f"maintained max free {self._max_free} != actual {true_max}"
            )


@dataclass(frozen=True)
class ClusterPlacement:
    """Where a job landed: which server, which GPUs, with what scores."""

    server_index: int
    allocation: Allocation

    @property
    def gpus(self) -> Tuple[int, ...]:
        """The GPUs the job received on its server."""
        return self.allocation.gpus


class MultiServerScheduler:
    """A fleet of MAPA-managed servers behind one queue."""

    def __init__(
        self,
        servers: Sequence[HardwareGraph],
        gpu_policy: str = "preserve",
        node_policy: str = "first-fit",
        model: EffectiveBandwidthModel = PAPER_MODEL,
        engine: str = "cached",
        scan_cache: Optional[ScanCache] = None,
        scan_spill: Optional[object] = None,
    ) -> None:
        if not servers:
            raise ValueError("cluster needs at least one server")
        if node_policy not in NODE_POLICIES:
            raise ValueError(
                f"unknown node policy {node_policy!r}; known: {NODE_POLICIES}"
            )
        self.node_policy = node_policy
        # The candidate order is fixed by the node policy; resolve it
        # once instead of rebuilding the dispatch dict per placement.
        self._order = {
            "first-fit": "index",
            "best-score": "index",
            "pack": "pack",
            "spread": "spread",
        }[node_policy]
        self.model = model
        # One scan cache for the whole fleet: the content-addressed key
        # partitions by wiring hash, so every server with identical
        # wiring (the common case — fleets are built from a few server
        # groups) shares scans and winners, extending the FleetSpec's
        # link-table sharing to scores.  Callers that replay the same
        # fleet repeatedly may pass their own cache to keep it warm
        # across runs (the fleet-scale benchmark's steady-state gate).
        self.scan_cache: Optional[ScanCache] = (
            (scan_cache if scan_cache is not None else ScanCache())
            if engine == "cached"
            else None
        )
        # Construction knobs retained for autoscale grow: add_server()
        # builds the new engine exactly as __init__ does.
        self._gpu_policy = gpu_policy
        self._engine_kind = engine
        self.engines: List[Mapa] = [self._make_engine(hw) for hw in servers]
        # Fleet-dynamics membership: one status per engine ("up",
        # "failed" or "drained"), plus the construction-time fleet size
        # so reset() can truncate grown servers.
        self._status: List[str] = ["up"] * len(self.engines)
        self._initial_servers = len(self.engines)
        self._max_capacity = max(e.hardware.num_gpus for e in self.engines)
        # Decision memo (first-fit fast path only): for a fixed policy
        # and model, the committed winner — GPUs, match and the full
        # annotated score vector — is a pure function of (server
        # wiring, its free bitmask, bandwidth sensitivity, pattern
        # structure).  Steady-state replays re-commit the same few
        # thousand decisions, so a hit skips the whole propose→annotate
        # chain and rebinds the memoised allocation to the new job id
        # (job_id never influences the decision; only the rebound copy
        # carries it).  When a shared scan cache is attached, the memo
        # lives in its content-addressed ``aux`` side-car under a
        # policy/model fingerprint — the cache object is exactly what
        # callers thread through repeated replays, so decisions stay
        # warm across runs just like scans do.
        if self.scan_cache is not None:
            policy_type = type(self.engines[0].policy)
            fingerprint = (
                "first-fit-decisions",
                f"{policy_type.__module__}.{policy_type.__qualname__}",
                model.coefficients,
            )
            self._decision_memo: Dict[
                Tuple, Tuple[Allocation, Tuple[int, ...], int]
            ] = self.scan_cache.aux.setdefault(fingerprint, {})
        else:
            self._decision_memo = {}
        # Optional persistent scan-cache tier (duck-typed so the cluster
        # layer never imports the experiments layer): anything with
        # ``load(cache, topology_hashes)`` / ``spill(cache)`` — in
        # practice :class:`repro.experiments.spill.ScanSpillStore`.
        # Loading at construction warm-starts the fleet-shared cache
        # from disk; ``spill_scan_cache()`` writes it back.
        self.scan_spill = scan_spill
        if scan_spill is not None and self.scan_cache is not None:
            scan_spill.load(
                self.scan_cache,
                {e.hardware.topology_hash for e in self.engines},
            )
        # Per-engine topology hashes, resolved once: the decision-memo
        # key is built on every first-fit placement, and the hash is
        # immutable per engine.
        self._topo_hashes: List[str] = [
            e.hardware.topology_hash for e in self.engines
        ]
        self._job_server: Dict[Hashable, int] = {}
        # Candidate-server index, maintained incrementally from the
        # placement/release dirty sets the engine states publish.  State
        # must be mutated *through* the scheduler (try_place/release/
        # reset) for the index to stay exact; resync_index() recovers
        # from out-of-band engine mutation (e.g. tests poking at
        # engines).
        self._index = CandidateServerIndex(
            [e.state.num_free for e in self.engines],
            capacities=[e.hardware.num_gpus for e in self.engines],
        )

    # ------------------------------------------------------------------ #
    @property
    def num_servers(self) -> int:
        """Servers in the fleet."""
        return len(self.engines)

    @property
    def total_gpus(self) -> int:
        """Fleet-wide GPU count."""
        return sum(e.hardware.num_gpus for e in self.engines)

    @property
    def total_free(self) -> int:
        """Fleet-wide free-GPU count."""
        return sum(e.state.num_free for e in self.engines)

    def _make_engine(self, hardware: HardwareGraph) -> Mapa:
        """One server's MAPA engine, on the fleet-shared scan cache."""
        return Mapa(
            hardware,
            make_policy(
                self._gpu_policy,
                self.model,
                engine=self._engine_kind,
                cache=self.scan_cache,
            ),
            self.model,
        )

    def can_ever_fit(self, request: AllocationRequest) -> bool:
        """Whether any (idle) server could host the request (O(1))."""
        return request.num_gpus <= self._max_capacity

    # ------------------------------------------------------------------ #
    # PlacementBackend protocol (repro.sim.core) — the scheduler plugs
    # straight into the unified simulation core.
    # ------------------------------------------------------------------ #
    def free_gpu_counts(self) -> Tuple[int, ...]:
        """Free GPUs per server, indexed like ``engines``."""
        return tuple(e.state.num_free for e in self.engines)

    def max_free_count(self) -> int:
        """Largest per-server free-GPU count, O(1) off the index.

        The optional :class:`~repro.sim.core.PlacementBackend` hook the
        built-in disciplines use to reject doomed attempts on a
        saturated fleet without touching the placement path.  Failed
        and drained servers do not count.
        """
        return self._index.max_free

    def hardware_for(self, server_index: int) -> HardwareGraph:
        """The hardware graph of one server."""
        return self.engines[server_index].hardware

    def scan_cache_stats(self) -> Optional[CacheStats]:
        """Counters of the fleet-shared scan cache (``None`` uncached).

        The simulation core snapshots this into
        :attr:`repro.sim.records.SimulationLog.cache_stats` at the end
        of a run.
        """
        return self.scan_cache.stats if self.scan_cache is not None else None

    def spill_scan_cache(self) -> int:
        """Write the fleet-shared scan cache to the persistent tier.

        Returns the number of entries spilled (0 when no spill store or
        no cache is configured).  The counterpart of the load performed
        at construction — call it after a replay to make the next
        process (or machine: the key is content-addressed by wiring
        hash) start warm.
        """
        if self.scan_spill is None or self.scan_cache is None:
            return 0
        return self.scan_spill.spill(self.scan_cache)

    # ------------------------------------------------------------------ #
    # the incremental candidate-server index
    # ------------------------------------------------------------------ #
    @property
    def candidate_index(self) -> CandidateServerIndex:
        """The fleet's free-GPU-count index (read-only for callers)."""
        return self._index

    def _sync_index(self, server_index: int) -> None:
        """Re-bucket one server from its published placement/release delta.

        Consumes the state's dirty set: an empty drain means the free
        set did not actually change (nothing to re-bucket — and any
        cached winner for the server's current free mask stays live).
        """
        state = self.engines[server_index].state
        if state.consume_dirty():
            self._index.set_free(server_index, state.num_free)

    def resync_index(self) -> None:
        """Rebuild the index from the engines' actual free counts.

        Only needed after engine state was mutated *around* the
        scheduler (direct ``engines[i]`` pokes); normal operation keeps
        the index exact from deltas.  Drains every engine's dirty set
        so stale deltas cannot double-apply later.
        """
        for e in self.engines:
            e.state.drain_dirty()
        self._index = CandidateServerIndex(
            [e.state.num_free for e in self.engines],
            capacities=[e.hardware.num_gpus for e in self.engines],
        )
        for server, status in enumerate(self._status):
            if status != "up":
                self._index.deactivate(server)

    def check_index(self) -> None:
        """Assert the delta-maintained index matches a from-scratch scan."""
        self._index.check(
            (e.state.num_free for e in self.engines),
            (status == "up" for status in self._status),
        )

    # ------------------------------------------------------------------ #
    # fleet dynamics: failure / repair / autoscale
    # ------------------------------------------------------------------ #
    def server_status(self, server: int) -> str:
        """``"up"``, ``"failed"`` or ``"drained"``."""
        return self._status[server]

    def max_active_capacity(self, exclude: Optional[int] = None) -> int:
        """Largest GPU capacity over up servers (optionally minus one).

        The deadlock guard: before failing or draining a server the
        caller checks the *remaining* fleet can still host the largest
        request in play; removing the last big server would strand its
        jobs forever.
        """
        return max(
            (
                e.hardware.num_gpus
                for i, e in enumerate(self.engines)
                if self._status[i] == "up" and i != exclude
            ),
            default=0,
        )

    def fail_server(self, server: int) -> List[Hashable]:
        """Take ``server`` down instantly; returns its casualties.

        Every allocation on the server is released (so the shared
        :class:`~repro.scoring.memo.ScanCache` bitmask keys and the
        candidate index stay exact) and the job ids are returned in
        allocation order — the caller decides their fate (requeue or
        kill) per the scenario's casualty policy.  No-op (empty list) on
        a server that is not up.
        """
        if self._status[server] != "up":
            return []
        casualties = list(self.engines[server].state.active_jobs)
        for job_id in casualties:
            del self._job_server[job_id]
            self.engines[server].release(job_id)
        self._sync_index(server)
        self._index.deactivate(server)
        self._status[server] = "failed"
        return casualties

    def repair_server(self, server: int) -> bool:
        """Bring a failed server back (empty, schedulable).  No-op
        unless currently failed."""
        if self._status[server] != "failed":
            return False
        # The failure released everything, so the engine is already
        # empty; activation re-buckets it at its (full) free count.
        self._index.activate(
            server, free=self.engines[server].state.num_free
        )
        self._status[server] = "up"
        return True

    def drain_server(self, server: int) -> bool:
        """Autoscale shrink: stop placing on ``server``; jobs finish
        naturally.  No-op unless currently up."""
        if self._status[server] != "up":
            return False
        self._index.deactivate(server)
        self._status[server] = "drained"
        return True

    def add_server(self, hardware: HardwareGraph) -> int:
        """Autoscale grow: a new server joins, immediately schedulable.

        The engine is built with the construction-time policy/model
        knobs and the fleet-shared scan cache, so the newcomer's scans
        land in (and hit) the same content-addressed entries as its
        wiring twins.  Returns the new server index (always the highest:
        membership history never renumbers incumbents).
        """
        engine = self._make_engine(hardware)
        self.engines.append(engine)
        self._status.append("up")
        self._topo_hashes.append(hardware.topology_hash)
        if hardware.num_gpus > self._max_capacity:
            self._max_capacity = hardware.num_gpus
        if self.scan_spill is not None and self.scan_cache is not None:
            self.scan_spill.load(self.scan_cache, {hardware.topology_hash})
        return self._index.add_server(
            engine.state.num_free, hardware.num_gpus
        )

    def grow_server(self, topology: str) -> int:
        """:meth:`add_server` by topology *name* (the autoscale event).

        Reuses an incumbent's (immutable, shareable)
        :class:`~repro.topology.hardware.HardwareGraph` instance when
        one of the same name exists — the
        :meth:`~repro.scenarios.fleet.FleetSpec.build` sharing
        discipline — and otherwise builds the graph fresh, adopting the
        precomputed link table of any wiring twin already in the fleet.
        """
        for e in self.engines:
            if e.hardware.name == topology:
                return self.add_server(e.hardware)
        from ..topology.builders import by_name

        hardware = by_name(topology)
        wiring = hardware.topology_hash
        for e in self.engines:
            if e.hardware.topology_hash == wiring:
                hardware.adopt_link_table(e.hardware.link_table)
                break
        return self.add_server(hardware)

    def _candidates(self, request: AllocationRequest) -> Iterator[int]:
        """Feasible servers in the node policy's preference order.

        Served by the incremental index: servers whose free-GPU count
        cannot fit the request are never visited, so cost scales with
        the candidates consumed rather than the fleet size.  (A server's
        free count never exceeds its capacity, so the old per-server
        capacity check is subsumed by the bucket lower bound.)
        """
        return self._index.candidates(request.num_gpus, self._order)

    def _candidate_order(self, request: AllocationRequest) -> List[int]:
        """Materialised :meth:`_candidates` (kept for introspection)."""
        return list(self._candidates(request))

    def try_place(self, request: AllocationRequest) -> Optional[ClusterPlacement]:
        """Place a job on some server, committing the allocation."""
        if request.job_id is None:
            raise ValueError("cluster placement requires a job_id")
        if self.node_policy == "best-score":
            return self._place_best_score(request)
        if self._order == "index":
            # first-fit fast path: the registered policies match every
            # k-subset of the free GPUs (absent links score zero, they
            # never make a subset infeasible), so the first candidate
            # server virtually always commits — resolve it in O(buckets)
            # without building the bucket-merge iterator.  A policy that
            # does decline falls through to the full candidate walk.
            idx = self._index.first(request.num_gpus)
            if idx is None:
                return None
            engine = self.engines[idx]
            key = (
                self._topo_hashes[idx],
                engine.state.free_bitmask,
                request.bandwidth_sensitive,
                request.pattern,
            )
            entry = self._decision_memo.get(key)
            if entry is not None:
                # Memoized winner: re-commit with the stored canonical
                # GPU tuple and its prebuilt bitmask (one intersection
                # validates the whole set), then re-bucket the index
                # directly — the state change is exactly the delta, so
                # no dirty-set round trip is needed.
                template, chosen, delta = entry
                state = engine.state
                state.allocate_prevalidated(request.job_id, chosen, delta)
                self._index.set_free(idx, state.num_free)
                self._job_server[request.job_id] = idx
                return ClusterPlacement(
                    server_index=idx, allocation=template.rebind(request.job_id)
                )
            allocation = engine.try_allocate(request)
            if allocation is not None:
                if len(self._decision_memo) >= _DECISION_MEMO_CAP:
                    self._decision_memo.clear()
                chosen = tuple(sorted(set(allocation.gpus)))
                self._decision_memo[key] = (
                    allocation,
                    chosen,
                    engine.state.mask_of(chosen),
                )
                self._sync_index(idx)
                self._job_server[request.job_id] = idx
                return ClusterPlacement(server_index=idx, allocation=allocation)
        for idx in self._candidates(request):
            allocation = self.engines[idx].try_allocate(request)
            if allocation is not None:
                # The candidate iterator is abandoned here, so mutating
                # the index mid-iteration is safe.
                self._sync_index(idx)
                self._job_server[request.job_id] = idx
                return ClusterPlacement(server_index=idx, allocation=allocation)
        return None

    def _place_best_score(
        self, request: AllocationRequest
    ) -> Optional[ClusterPlacement]:
        """Speculatively run MAPA on every feasible server, keep the best."""
        best_idx: Optional[int] = None
        best_alloc: Optional[Allocation] = None
        best_score = float("-inf")
        for idx in self._candidates(request):
            engine = self.engines[idx]
            free = engine.state.free_sorted  # cached by the free-GPU index
            # propose() threads the state's free-set bitmask down to
            # scan-memoizing policies, so speculative probes of an
            # unchanged server are cache hits, not rescans.
            proposal = engine.propose(request)
            if proposal is None:
                continue
            annotated = engine._annotate(proposal, free, request.job_id)
            score = annotated.scores.get("effective_bw", 0.0)
            if score > best_score:
                best_score = score
                best_idx = idx
                best_alloc = annotated
        if best_idx is None or best_alloc is None:
            return None
        self.engines[best_idx].state.allocate(request.job_id, best_alloc.gpus)
        self._sync_index(best_idx)
        self._job_server[request.job_id] = best_idx
        return ClusterPlacement(server_index=best_idx, allocation=best_alloc)

    def release(self, job_id: Hashable) -> Tuple[int, Tuple[int, ...]]:
        """Free a finished job; returns (server index, freed GPUs)."""
        try:
            idx = self._job_server.pop(job_id)
        except KeyError:
            raise KeyError(f"job {job_id!r} is not placed") from None
        freed = self.engines[idx].release(job_id)
        self._sync_index(idx)
        return idx, freed

    def reset(self) -> None:
        """Release every job and undo fleet-dynamics history.

        Grown servers are truncated, failed/drained servers come back
        up: the scheduler returns to its construction-time fleet.
        """
        del self.engines[self._initial_servers :]
        del self._topo_hashes[self._initial_servers :]
        del self._status[self._initial_servers :]
        for e in self.engines:
            e.reset()
        self._status = ["up"] * len(self.engines)
        self._max_capacity = max(e.hardware.num_gpus for e in self.engines)
        self._job_server.clear()
        self.resync_index()
