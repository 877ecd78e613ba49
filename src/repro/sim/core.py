"""The unified simulation core: one event loop, pluggable everything.

Every replay — the paper's single-server experiments
(:mod:`repro.sim.cluster`) and fleet replays
(:mod:`repro.cluster.simulator`) alike — runs this one loop,
parameterised on two axes:

* a :class:`PlacementBackend` — *where* jobs land.  Production replays
  place through :class:`~repro.cluster.scheduler.MultiServerScheduler`;
  a paper cell is a one-server fleet, so the same loop and the same
  placement memos drive one DGX or a whole fleet;
* a :class:`~repro.sim.disciplines.QueueDiscipline` — *when* queued jobs
  start.  Disciplines drive the core through a small toolkit
  (:meth:`SimulationCore.place` / :meth:`~SimulationCore.commit` /
  :meth:`~SimulationCore.abort`, runtime estimates and shadow times), so
  every discipline works with every backend: multi-server runs get
  backfill, SJF and EASY for free, and new disciplines never need to be
  written twice.

The loop itself is unchanged from the paper's Fig. 14 dispatcher: jobs
arrive into a queue, the discipline starts what it can, completions
return GPUs to the backend ("Job Finished Signal") and wake the
discipline again.  Per-job records carry the allocation, AggBW, the
Eq. 2 *predicted* effective bandwidth and the microbenchmark *measured*
effective bandwidth — the columns behind the validation scatter of
Fig. 15.

The loop is struct-of-arrays throughout: arrivals are bulk-scheduled
into the tuple-heap :class:`~repro.sim.engine.EventEngine` (one
``heapify`` instead of N heap pushes), allocation requests are
built once per job, running jobs are plain field tuples, and
completions append straight into the
:class:`~repro.sim.records.SimulationLog` column buffers — no
:class:`JobRecord` / :class:`PlacementRecord` objects exist unless
someone asks for them (``placements`` materialises lazily).  Its
reference oracle — a heap engine, place-and-commit FIFO, no memo
anywhere — lives in ``tests/reference/replay.py``; the property tests
replay random traces through both and compare serialisations.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import (
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..comm.microbench import peak_effective_bandwidth
from ..policies.base import Allocation, AllocationRequest
from ..topology.hardware import HardwareGraph
from ..workloads.exectime import execution_time
from ..workloads.jobs import Job, JobFile
from .disciplines import ARRIVAL, COMPLETION, FLEET, QueueDiscipline
from .engine import FLEET_PRIORITY, EventEngine
from .records import JobRecord, SimulationLog


class Placement(Protocol):
    """Where a job landed: a server index plus the committed allocation."""

    @property
    def server_index(self) -> int:
        """Index of the hosting server (0 on a single server)."""
        ...

    @property
    def allocation(self) -> Allocation:
        """The committed allocation, with its full score annotation."""
        ...

    @property
    def gpus(self) -> Tuple[int, ...]:
        """The GPUs the job received."""
        ...


@runtime_checkable
class PlacementBackend(Protocol):
    """What the simulation core needs from an allocator.

    Implemented by :class:`~repro.cluster.scheduler.MultiServerScheduler`
    (a fleet of MAPA-managed servers; a paper cell is a one-server
    fleet).  ``try_place`` must *commit* the returned placement;
    ``release`` undoes it, both at completion time and when a discipline
    aborts a speculative placement (EASY reservations).

    Releasing a job placed *last* must restore exactly the free state
    its ``try_place`` consumed, and placement decisions must depend on
    nothing but that state.  A ``try_place`` + ``release`` pair is then
    invisible to every later decision, which is why an aborted
    placement does not void the core's futile-retry memo (see
    :meth:`SimulationCore.place`).

    The fleet hooks serve dynamics and EASY shadow times.  An optional
    ``scan_cache_stats()`` feeds :meth:`SimulationCore.cache_stats`.
    """

    def can_ever_fit(self, request: AllocationRequest) -> bool:
        """Whether some server could host ``request`` even when idle."""

    def try_place(self, request: AllocationRequest) -> Optional[Placement]:
        """Commit a placement for ``request``, or return ``None``."""

    def release(self, job_id: Hashable) -> object:
        """Return a finished (or aborted) job's GPUs to the pool."""

    def free_gpu_counts(self) -> Tuple[int, ...]:
        """Free GPUs per server, indexed by server."""

    def hardware_for(self, server_index: int) -> HardwareGraph:
        """The hardware graph of one server."""

    def max_free_count(self) -> int:
        """Largest free-GPU count over up servers, in O(1): no job asking
        for more GPUs can be placed (the disciplines' exact skip)."""

    def server_status(self, server: int) -> str:
        """``"up"``, ``"failed"`` or ``"drained"``."""

    def max_active_capacity(self, exclude: Optional[int] = None) -> int:
        """Largest GPU capacity over up servers, optionally minus one."""

    def fail_server(self, server: int) -> List[Hashable]:
        """Take a server down; returns its casualties in allocation order."""

    def repair_server(self, server: int) -> bool:
        """Bring a failed server back; ``False`` if it was not failed."""

    def drain_server(self, server: int) -> bool:
        """Stop placing on an up server; ``False`` if it was not up."""

    def grow_server(self, topology: str) -> int:
        """Add a server of ``topology``; returns its index."""


@dataclass(frozen=True)
class PlacementRecord:
    """A completed job's log record plus the server that hosted it."""

    record: JobRecord
    server_index: int


@dataclass(frozen=True)
class PlacedJob:
    """A placement committed to the backend but not yet started.

    Disciplines receive one from :meth:`SimulationCore.place`, inspect
    the exact execution time, then either :meth:`~SimulationCore.commit`
    or :meth:`~SimulationCore.abort` it.
    """

    job: Job
    placement: Placement
    exec_time: float
    measured_bw: float


class SimulationCore:
    """The shared event loop (paper Fig. 14's dispatcher).

    Parameters
    ----------
    backend:
        Placement backend (a fleet of one or more servers).
    discipline:
        Queue discipline deciding which queued jobs start after each
        arrival, completion or fleet event (the event kind is
        :attr:`cause` during the call).
    log:
        The :class:`~repro.sim.records.SimulationLog` completed jobs are
        appended to (in completion order, as the paper's logger does).
    dynamics:
        Optional fleet-dynamics axis (duck-typed
        :class:`~repro.scenarios.dynamics.DynamicsSpec`): seeded
        failure/repair, autoscale and preemption events injected into
        the run at :data:`~repro.sim.engine.FLEET_PRIORITY` (mutations
        beat same-timestamp job events deterministically), under any
        discipline.  ``None`` or an empty spec leaves every static-fleet
        path — and its event stream — untouched.
    """

    def __init__(
        self,
        backend: PlacementBackend,
        discipline: QueueDiscipline,
        log: SimulationLog,
        dynamics: Optional[object] = None,
    ) -> None:
        self.backend = backend
        self.discipline = discipline
        self.log = log
        # Fleet dynamics: _dynamic goes True inside run() when the spec
        # actually carries events.  While dynamic, completions carry
        # (job_id, start_count) incarnation payloads so a completion of
        # a preempted/failed incarnation is recognised as stale, and
        # _job_objs retains Job objects so casualties can requeue.
        self._dynamics = dynamics
        self._dynamic = False
        self._starts: Dict[Hashable, int] = {}
        self._job_objs: Dict[Hashable, Job] = {}
        self._casualty = "requeue"
        self._victim_policy = "youngest"
        self._max_request = 0
        self.engine = EventEngine()
        #: Kind of the event the discipline is being called after
        #: (ARRIVAL, COMPLETION or FLEET); None outside run().
        self.cause: Optional[str] = None
        self.queue: Deque[Job] = deque()
        self._estimates: Dict[Hashable, float] = {}
        # Running jobs and completed placements are plain field tuples
        # in row order — (server_index, *JobRecord fields);
        # PlacementRecord objects are materialised lazily through the
        # `placements` property.
        self._running: Dict[Hashable, Tuple] = {}
        self._placements: List[Tuple] = []
        self._placements_cache: Optional[List[PlacementRecord]] = None
        # Execution-time memo: execution_time is a pure function of
        # (catalogued workload, GPU count, measured BW) — workload_spec()
        # is a registry lookup by name — and a steady-state fleet hands
        # out the same few hundred placements over and over.  Cached
        # floats are the exact floats the uncached call returns, so
        # records stay bit-identical.
        self._exec_cache: Dict[Tuple[str, int, float], float] = {}
        # Measured-bandwidth memo: the simulated NCCL microbenchmark is
        # a pure function of (wiring, GPU subset), and fleet replays
        # hand out the same subsets over and over.  Keyed by the
        # name-independent wiring hash so identically wired servers
        # share entries.  Owned per core — one run, one cache lifetime.
        self._mbw_memo: Dict[Tuple[str, Tuple[int, ...]], float] = {}
        self._mbw_lookups = 0
        self._mbw_hits = 0
        # Futile-retry skip: placement feasibility only improves when
        # GPUs are released, so a job that failed to place stays
        # unplaceable until the next release.  The epoch counts
        # releases; a failed attempt records the epoch and repeat
        # attempts in the same epoch return None without re-probing
        # the backend.
        self._release_epoch = 0
        self._futile: Dict[Hashable, int] = {}
        # EASY shadow-time support: the running jobs' completions sorted
        # by (finish, server, GPUs), synced on demand and cached on
        # (release epoch, number running) — within one epoch _running
        # only grows (commits), so the pair names its contents.  A None
        # key forces a rebuild.  Per-server capacities (0 for a server
        # that is not up) are cached until the fleet changes.
        self._timeline_key: Optional[Tuple[int, int]] = None
        self._timeline: List[Tuple[float, int, int, Hashable]] = []
        self._capacities: Tuple[int, ...] = ()
        self._all_up = True
        #: Scratch a queue discipline keeps between its passes over this
        #: core (EASY's last-pass summary); owned
        #: by the run, so a discipline instance reused for another run
        #: starts clean.
        self.discipline_state: Optional[object] = None
        # Scan-cache counter snapshot taken when run() starts, so the
        # log reports *this run's* lookups/hits even when the caller
        # shares one warm cache across replays.
        self._scan_baseline: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # the one event loop
    # ------------------------------------------------------------------ #
    def run(self, job_file: JobFile) -> SimulationLog:
        """Simulate the whole trace and return the log."""
        self._scan_baseline = self._scan_counters()
        dynamics = self._dynamics
        self._dynamic = dynamics is not None and not dynamics.is_empty()
        jobs = list(job_file)
        times = []
        for job in jobs:
            if not self.backend.can_ever_fit(self._request(job)):
                raise ValueError(
                    f"job {job.job_id} requests {job.num_gpus} GPUs; "
                    "no server can ever host it"
                )
            times.append(job.submit_time)
        self.engine.schedule_many(times, ARRIVAL, jobs)
        if self._dynamic:
            self._casualty = dynamics.casualty
            self._victim_policy = dynamics.victim
            # Deadlock guard bound: fleet mutations must never strand
            # the largest request in the trace (identical computation
            # in the sharded parent, so skips replay identically).
            self._max_request = max((j.num_gpus for j in jobs), default=0)
            topologies = [
                self.backend.hardware_for(i).name
                for i in range(len(self.backend.free_gpu_counts()))
            ]
            events = dynamics.build(topologies)
            self.engine.schedule_many(
                [e.time for e in events], FLEET, events, priority=FLEET_PRIORITY
            )
        engine_pop = self.engine.pop
        complete = self._complete_dynamic if self._dynamic else self._complete
        schedule = self.discipline.schedule
        while True:
            event = engine_pop()
            if event is None:
                break
            _, kind, payload = event
            if kind == ARRIVAL:
                self.queue.append(payload)  # disciplines may rebind the deque
            elif kind == COMPLETION:
                complete(payload)
            elif kind == FLEET:
                self._apply_fleet_event(payload)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")
            self.cause = kind
            schedule(self)
        self.cause = None
        if self.queue:  # pragma: no cover - defensive
            raise RuntimeError("simulation ended with jobs still queued")
        self.log.cache_stats = self.cache_stats()
        return self.log

    def _complete(self, job_id: Hashable) -> None:
        """Handle one completion: free GPUs, move the record to the log."""
        self.backend.release(job_id)
        self._release_epoch += 1
        entry = self._running.pop(job_id)
        self._placements.append(entry)
        self._placements_cache = None
        self.log.append_fields(*entry[1:])

    def _complete_dynamic(self, payload: Tuple[Hashable, int]) -> None:
        """Dynamic-fleet completion: skip stale incarnations.

        While dynamics are active every completion carries ``(job_id,
        start_count)``.  A preempted or failed job leaves its scheduled
        completion behind; when that event pops, the job either is not
        running (killed / finished under a later incarnation whose
        completion already fired) or is running a *different*
        incarnation — both recognised here and dropped without touching
        any state, identically on every core and shard count.
        """
        job_id, count = payload
        if job_id not in self._running or self._starts.get(job_id) != count:
            return
        self._job_objs.pop(job_id, None)
        self._complete(job_id)

    # ------------------------------------------------------------------ #
    # fleet-mutation events
    # ------------------------------------------------------------------ #
    def _apply_fleet_event(self, event: object) -> None:
        """Apply one fleet mutation to the backend, casualty-aware.

        The release-epoch bump on repair/grow/preempt is load-bearing:
        those are the only fleet mutations that *improve* placement
        feasibility, which the futile-retry memo otherwise assumes only
        releases do.
        """
        backend = self.backend
        action = event.action
        self._capacities = ()  # a server may have gone down or come up
        if action == "fail":
            if not self._retire_allowed(event.server):
                return
            casualties = backend.fail_server(event.server)
            self._timeline_key = None
            requeue: List[Job] = []
            for job_id in casualties:
                self._running.pop(job_id, None)
                job = self._job_objs.pop(job_id, None)
                if job is not None and self._casualty == "requeue":
                    requeue.append(job)
            if requeue:
                # Front of the queue, allocation order preserved: the
                # earliest-placed casualty is the next head.
                self.queue.extendleft(reversed(requeue))
        elif action == "repair":
            if backend.repair_server(event.server):
                self._release_epoch += 1
        elif action == "remove":
            if self._retire_allowed(event.server):
                backend.drain_server(event.server)
        elif action == "add":
            backend.grow_server(event.topology)
            self._release_epoch += 1
        elif action == "preempt":
            self._preempt(event)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown fleet action {action!r}")

    def _retire_allowed(self, server: int) -> bool:
        """Deadlock guard for fail/remove: the remaining up servers must
        still be able to host the trace's largest request."""
        return (
            self.backend.max_active_capacity(exclude=server) >= self._max_request
        )

    def _preempt(self, event: object) -> None:
        """Evict one running job (victim policy) and requeue it (back)."""
        if not self._running:
            return
        ranked = sorted((row[7], row[1]) for row in self._running.values())
        if self._victim_policy == "youngest":
            victim_id = ranked[-1][1]
        elif self._victim_policy == "oldest":
            victim_id = ranked[0][1]
        else:  # "rank"
            victim_id = ranked[event.victim_rank % len(ranked)][1]
        self.backend.release(victim_id)
        self._release_epoch += 1
        self._timeline_key = None
        self._running.pop(victim_id)
        self.queue.append(self._job_objs.pop(victim_id))

    # ------------------------------------------------------------------ #
    # discipline toolkit
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time (seconds since trace start)."""
        return self.engine.now

    @property
    def release_epoch(self) -> int:
        """Count of events that can grow the free set so far.

        Completions, preemptions, repairs and grows bump it; commits and
        aborts do not.  While it stands still the backend's free set
        only shrinks, which is what the futile-retry memo relies on.
        """
        return self._release_epoch

    def _request(self, job: Job) -> AllocationRequest:
        """The job's allocation request, memoized on the job.

        The request is pinned on the (frozen, shared) ``Job`` object
        itself: a pure derivative of immutable fields, so replays of
        the same trace — even through different cores — reuse one
        request and one pattern object per job instead of rebuilding
        the application graph every run.
        """
        request = getattr(job, "_request_cache", None)
        if request is None:
            request = job.request()
            object.__setattr__(job, "_request_cache", request)
        return request

    def place(self, job: Job) -> Optional[PlacedJob]:
        """Commit a placement for ``job`` and evaluate its runtime.

        Returns ``None`` when the backend cannot place the job.  On
        success the backend state already holds the GPUs — the caller
        must :meth:`commit` or :meth:`abort` the result.

        Failed attempts are memoized per release epoch: free GPU
        counts only shrink between releases, and every registered
        policy's failure depends monotonically on the free set, so a
        job that failed stays unplaceable until something is released
        and the retry is answered without re-probing the backend.
        (A policy that could *fail* on a superset of a free set it
        *succeeds* on would break this assumption; none exists.)  An
        :meth:`abort` restores exactly the free set this call took, so
        it keeps the memo valid and does not start a new epoch.
        """
        if self._futile.get(job.job_id) == self._release_epoch:
            return None
        placement = self.backend.try_place(self._request(job))
        if placement is None:
            self._futile[job.job_id] = self._release_epoch
            return None
        self._futile.pop(job.job_id, None)
        measured, exec_time = self._runtime(job, placement)
        return PlacedJob(
            job=job, placement=placement, exec_time=exec_time, measured_bw=measured
        )

    def _runtime(self, job: Job, placement: Placement) -> Tuple[float, float]:
        """``(measured BW, exec_time)`` of ``job`` on ``placement``.

        ``execution_time`` is pure in the catalogued workload name, the
        GPU count and the measured bandwidth, so it is memoised on that
        triple on top of the measured-bandwidth memo.  A hit returns the
        float the uncached call returns.
        """
        gpus = placement.gpus
        n = len(gpus)
        if n == 1:
            measured = 0.0
        else:
            measured = self._measured_bw(
                self.backend.hardware_for(placement.server_index), gpus
            )
        key = (job.workload, n, measured)
        exec_time = self._exec_cache.get(key)
        if exec_time is None:
            exec_time = execution_time(
                job.workload_spec(), n, measured if n > 1 else float("inf")
            )
            self._exec_cache[key] = exec_time
        return measured, exec_time

    def _measured_bw(
        self, hardware: HardwareGraph, gpus: Tuple[int, ...]
    ) -> float:
        """Memoised microbenchmark bandwidth of one placement's GPUs.

        Content-addressed by ``(topology_hash, gpus)`` — an exact
        replay of :func:`~repro.comm.microbench.peak_effective_bandwidth`,
        so records are bit-identical to the uncached path.
        """
        key = (hardware.topology_hash, gpus)
        self._mbw_lookups += 1
        measured = self._mbw_memo.get(key)
        if measured is None:
            measured = peak_effective_bandwidth(hardware, gpus)
            self._mbw_memo[key] = measured
        else:
            self._mbw_hits += 1
        return measured

    def _scan_counters(self) -> Dict[str, float]:
        """The backend's raw scan-cache counters (empty when uncached)."""
        probe = getattr(self.backend, "scan_cache_stats", None)
        scan_stats = probe() if probe is not None else None
        if scan_stats is None:
            return {}
        counters = scan_stats.as_dict()
        counters.pop("hit_rate", None)  # derived, not a counter
        return counters

    def cache_stats(self) -> Dict[str, float]:
        """Snapshot of this run's cache counters.

        Combines the backend's scan-cache stats (when the backend
        exposes ``scan_cache_stats()``, as the multi-server scheduler
        does) with the core's
        measured-bandwidth memo counters.  Scan counters are reported
        relative to the snapshot taken when :meth:`run` started, so a
        cache kept warm across replays yields *per-run* figures — the
        steady-state hit rate the fleet benchmark gates on.  Attached
        to the log at the end of :meth:`run`.
        """
        stats: Dict[str, float] = {
            "measured_bw_lookups": self._mbw_lookups,
            "measured_bw_hits": self._mbw_hits,
        }
        counters = self._scan_counters()
        if counters:
            for key, value in counters.items():
                stats[f"scan_{key}"] = value - self._scan_baseline.get(key, 0)
            stats["scan_hit_rate"] = (
                stats["scan_hits"] / stats["scan_lookups"]
                if stats["scan_lookups"]
                else 0.0
            )
        return stats

    def commit(self, placed: PlacedJob) -> None:
        """Start a placed job: book its row, schedule its completion.

        The row holds the :class:`JobRecord` fields as a plain tuple;
        the record is materialised only if the log's ``records`` (or
        this core's ``placements``) is read later.
        """
        self._start(placed.job, placed.placement, placed.measured_bw, placed.exec_time)

    def _start(
        self, job: Job, placement: Placement, measured: float, exec_time: float
    ) -> None:
        """Book ``job``'s running row and schedule its completion."""
        job_id = job.job_id
        now = self.engine.now
        scores = placement.allocation.scores
        # Row order: (server_index, *JobRecord fields) — _complete
        # splats [1:] straight into SimulationLog.append_fields.
        self._running[job_id] = (
            placement.server_index,
            job_id,
            job.workload,
            job.num_gpus,
            job.pattern,
            job.bandwidth_sensitive,
            job.submit_time,
            now,
            now + exec_time,
            placement.gpus,
            scores.get("agg_bw", 0.0),
            scores.get("effective_bw", 0.0),
            measured,
        )
        self.engine.schedule_after_coded(
            exec_time,
            COMPLETION,
            self._incarnation(job) if self._dynamic else job_id,
        )

    def _incarnation(self, job: Job) -> Tuple[Hashable, int]:
        """The ``(job_id, start_count)`` completion payload of a start
        while fleet dynamics are active (see :meth:`_complete_dynamic`)."""
        count = self._starts.get(job.job_id, 0) + 1
        self._starts[job.job_id] = count
        self._job_objs[job.job_id] = job
        return (job.job_id, count)

    def abort(self, placed: PlacedJob) -> None:
        """Undo a speculative placement (EASY reservation miss).

        Must directly follow the :meth:`place` that produced ``placed``.
        The release hands back exactly the GPUs that placement took, so
        the free set is the one the placement saw: no job became
        placeable, the release epoch stays, and the futile-retry memo
        stays valid for the whole queue.
        """
        self.backend.release(placed.job.job_id)

    def try_start(self, job: Job) -> bool:
        """Place and immediately start ``job`` (the common case).

        Same arithmetic and memos as :meth:`place` followed by
        :meth:`commit`, without the intermediate :class:`PlacedJob`.
        Disciplines that need to *hold* a placement before starting it
        (EASY's speculative reservations) use place/commit/abort.
        """
        job_id = job.job_id
        if self._futile.get(job_id) == self._release_epoch:
            return False
        placement = self.backend.try_place(self._request(job))
        if placement is None:
            self._futile[job_id] = self._release_epoch
            return False
        self._futile.pop(job_id, None)
        measured, exec_time = self._runtime(job, placement)
        self._start(job, placement, measured, exec_time)
        return True

    def runtime_estimate(self, job: Job) -> float:
        """Ideal-bandwidth runtime lower bound, for SJF-style ordering.

        ``execution_time`` at infinite bandwidth.  Every step of the
        iteration-time model is monotone in the bandwidth, so the float
        returned is ``<=`` the exact ``exec_time`` of any placement of
        the job — a bound disciplines may compare against exactly.
        """
        estimate = self._estimates.get(job.job_id)
        if estimate is None:
            estimate = execution_time(
                job.workload_spec(), job.num_gpus, float("inf")
            )
            self._estimates[job.job_id] = estimate
        return estimate

    def earliest_fit_time(self, num_gpus: int) -> float:
        """Earliest time ``num_gpus`` GPUs are simultaneously free on one
        server — EASY's shadow time.

        Counts GPUs only (a reservation cannot see intra-server
        fragmentation); exact completion times are known in simulation.
        Only servers that are up count: a failed or drained server takes
        no placement, whatever it has free.
        """
        backend = self.backend
        frees = backend.free_gpu_counts()
        capacities = self._capacities
        if len(capacities) != len(frees):
            status = backend.server_status
            capacities = self._capacities = tuple(
                backend.hardware_for(i).num_gpus if status(i) == "up" else 0
                for i in range(len(frees))
            )
            self._all_up = 0 not in capacities
        if not self._all_up:
            frees = [free if cap else 0 for free, cap in zip(frees, capacities)]
        if max(frees) >= num_gpus:
            return self.engine.now
        frees = list(frees)
        for finish_time, server, freed, _ in self._completion_timeline():
            frees[server] += freed
            if capacities[server] >= num_gpus and frees[server] >= num_gpus:
                return finish_time
        return float("inf")

    def _completion_timeline(self) -> List[Tuple[float, int, int, Hashable]]:
        """The running jobs as ``(finish, server, GPUs, job_id)``, sorted.

        Synced lazily, not rebuilt: a completion pops at exactly its
        job's finish time, so finished jobs sit among the entries due by
        now, and the jobs started since the last sync are the newest
        entries of ``_running``.  Server failures and preemptions end
        jobs early; they clear the key, which forces a rebuild.
        """
        running = self._running
        key = (self._release_epoch, len(running))
        timeline = self._timeline
        if key == self._timeline_key:
            return timeline
        rebuild = self._timeline_key is None
        if rebuild:
            timeline.clear()
            rows = running.values()
        else:
            now = self.engine.now
            due = 0
            while due < len(timeline) and timeline[due][0] <= now:
                due += 1
            timeline[:due] = [e for e in timeline[:due] if e[3] in running]
            rows = islice(reversed(running.values()), len(running) - len(timeline))
        entries = [(row[8], row[0], row[3], row[1]) for row in rows]
        if rebuild:
            timeline.extend(entries)
            timeline.sort()
        else:
            for entry in entries:
                insort(timeline, entry)
        self._timeline_key = key
        return timeline

    # ------------------------------------------------------------------ #
    @property
    def placements(self) -> List[PlacementRecord]:
        """Completed jobs with their hosting server, in completion order.

        The :class:`PlacementRecord` objects are materialised lazily
        from the booked rows (cached until the next completion).
        """
        if self._placements_cache is None:
            self._placements_cache = [
                PlacementRecord(
                    record=JobRecord(*row[1:]), server_index=row[0]
                )
                for row in self._placements
            ]
        return self._placements_cache

    def jobs_per_server(self) -> Dict[int, int]:
        """How many completed jobs each server hosted."""
        counts: Dict[int, int] = {
            i: 0 for i in range(len(self.backend.free_gpu_counts()))
        }
        for row in self._placements:
            counts[row[0]] += 1
        return counts
