"""Reference replay: the simulation loop with every shortcut taken out.

The production replay stack (:class:`repro.sim.core.SimulationCore` on
a :class:`repro.cluster.scheduler.MultiServerScheduler`) earns its speed
from memos and fast paths: a columnar event engine, FIFO and EASY
skips keyed on the cause of each scheduling call, a max-free guard, a
futile-retry memo, measured-bandwidth and execution-time memos, a
first-fit fast path with a decision memo, and component-wise
annotation memos.  Each is claimed to be exact.  This module rebuilds
the same replay without any of them:

* :class:`HeapEventEngine` — a ``heapq`` of event objects;
* :class:`PlaceCommitFifo` — FIFO through ``place`` + ``commit`` after
  every event, with no skip; EASY runs the exhaustive
  :class:`~reference.easy_backfill.ReferenceEasyBackfill` body;
* :class:`ReferenceMapa` — scores every committed allocation from
  scratch;
* :class:`ReferenceScheduler` — places by the plain candidate walk,
  optionally with the scalar scan policies (``engine="scalar"``);
* :class:`ReferenceCore` — runs on the heap engine, re-probes the
  backend on every attempt, measures bandwidth and execution time
  afresh, and computes shadow times from a fresh sort.

:func:`assert_identical_replay` runs a trace through both stacks and
requires byte-identical canonical ``to_dict()`` JSON.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from reference.easy_backfill import ReferenceEasyBackfill, reference_earliest_fit_time
from reference.scan import scalar_policy
from repro.allocator.mapa import Mapa
from repro.cluster import run_cluster
from repro.cluster.scheduler import ClusterPlacement, MultiServerScheduler
from repro.comm.microbench import peak_effective_bandwidth
from repro.policies.base import Allocation, AllocationRequest
from repro.scoring.aggregate import aggregated_bandwidth
from repro.scoring.census import census_of_allocation
from repro.scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from repro.scoring.preserved import preserved_bandwidth
from repro.sim.core import PlacedJob, SimulationCore
from repro.sim.disciplines import COMPLETION, QueueDiscipline, make_discipline
from repro.sim.engine import _REL_EPS, DEFAULT_PRIORITY
from repro.sim.records import SimulationLog
from repro.topology.hardware import HardwareGraph
from repro.workloads.exectime import execution_time
from repro.workloads.jobs import Job, JobFile


@dataclass(order=True)
class _Entry:
    """One scheduled event; orders by (time, priority, insertion seq)."""

    time: float
    priority: int
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False)


class HeapEventEngine:
    """A ``heapq`` of `_Entry` objects: the event engine's oracle.

    Same API and past-time tolerance band as
    :class:`repro.sim.engine.EventEngine`; the property tests drive
    random schedules through both and compare pop streams.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._counter = itertools.count()
        self.now = 0.0

    def tolerance(self, time: float) -> float:
        """Past/future tolerance band at ``time``: symmetric and relative."""
        return _REL_EPS * max(1.0, abs(time), abs(self.now))

    def schedule(
        self,
        time: float,
        kind: str,
        payload: Any = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Enqueue an event at absolute ``time`` (must not be in the past).

        Times within the symmetric tolerance band *before* ``now`` —
        round-off, not logic errors — are clamped to ``now`` so the
        clock stays monotone; anything earlier raises.  ``priority``
        breaks same-timestamp ties before the insertion sequence does
        (lower pops first); job events keep the default.
        """
        if time < self.now:
            if time < self.now - self.tolerance(time):
                raise ValueError(
                    f"cannot schedule event at {time} before current time "
                    f"{self.now}"
                )
            time = self.now
        heapq.heappush(
            self._heap,
            _Entry(time, priority, next(self._counter), kind, payload),
        )

    def schedule_after(
        self,
        delay: float,
        kind: str,
        payload: Any = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Enqueue an event ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("negative delay")
        self.schedule(self.now + delay, kind, payload, priority)

    def intern_kind(self, kind: str) -> str:
        """API parity: every kind is its own code."""
        return kind

    def schedule_after_coded(self, delay: float, code: str, payload: Any) -> None:
        """:meth:`schedule_after` under a code from :meth:`intern_kind`."""
        self.schedule_after(delay, code, payload)

    def schedule_many(
        self,
        times: Sequence[float],
        kind: str,
        payloads: Optional[Sequence[Any]] = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Bulk schedule, one heap push per event (API parity)."""
        if payloads is not None and len(payloads) != len(times):
            raise ValueError(
                f"{len(payloads)} payloads for {len(times)} scheduled times"
            )
        for i, time in enumerate(times):
            self.schedule(
                float(time),
                kind,
                None if payloads is None else payloads[i],
                priority,
            )

    @property
    def pending(self) -> int:
        """Events not yet popped."""
        return len(self._heap)

    def pop(self) -> Optional[Tuple[float, str, Any]]:
        """Advance time to the next event and return it, or ``None``."""
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        self.now = entry.time
        return entry.time, entry.kind, entry.payload

    def peek_time(self) -> Optional[float]:
        """Time of the next event without popping it (``None`` if empty)."""
        return self._heap[0].time if self._heap else None


class PlaceCommitFifo(QueueDiscipline):
    """Strict FIFO through ``place`` + ``commit``.

    Tries the head after every event, whatever ``core.cause`` says: no
    skipped arrivals and no max-free guard.
    """

    name = "fifo"

    def schedule(self, core: SimulationCore) -> None:
        """Start jobs from the head until one fails to place."""
        queue = core.queue
        while queue:
            placed = core.place(queue[0])
            if placed is None:
                return
            queue.popleft()
            core.commit(placed)


#: Skip-free bodies :func:`reference_core` runs in place of the
#: production disciplines of the same name.
REFERENCE_BODIES = {"fifo": PlaceCommitFifo, "easy-backfill": ReferenceEasyBackfill}


class ReferenceMapa(Mapa):
    """MAPA that scores every committed allocation from scratch."""

    def _annotate(
        self, alloc: Allocation, available, job_id
    ) -> Allocation:
        """The full score vector, with no memo: policy-filled scores win,
        the census is always rewritten from the matched GPU set."""
        match = alloc.match
        scores = dict(alloc.scores)
        if match is not None:
            census = census_of_allocation(self.hardware, alloc.gpus)
            if "agg_bw" not in scores:
                scores["agg_bw"] = aggregated_bandwidth(self.hardware, match)
            scores["census_x"] = float(census.x)
            scores["census_y"] = float(census.y)
            scores["census_z"] = float(census.z)
            if "effective_bw" not in scores:
                scores["effective_bw"] = self.model.predict_census(census)
            if "preserved_bw" not in scores:
                scores["preserved_bw"] = preserved_bandwidth(
                    self.hardware, match, available
                )
        return Allocation(gpus=alloc.gpus, match=match, scores=scores, job_id=job_id)


class ReferenceScheduler(MultiServerScheduler):
    """Fleet placement by the plain candidate walk.

    No first-fit fast path and no decision memo: every placement walks
    the node policy's candidate order and runs MAPA on each server
    until one commits.  Engines are :class:`ReferenceMapa`.  With
    ``engine="scalar"`` their policies run the one-match-at-a-time walk
    of :mod:`reference.scan` instead of a scan source.
    """

    def _make_engine(self, hardware: HardwareGraph) -> Mapa:
        """A from-scratch-scoring engine on the fleet's scan cache."""
        if self._engine_kind == "scalar":
            policy = scalar_policy(self._gpu_policy, self.model)
        else:
            policy = super()._make_engine(hardware).policy
        return ReferenceMapa(hardware, policy, self.model)

    def try_place(self, request: AllocationRequest) -> Optional[ClusterPlacement]:
        """Place a job on the first candidate server that takes it."""
        if request.job_id is None:
            raise ValueError("cluster placement requires a job_id")
        if self.node_policy == "best-score":
            return self._place_best_score(request)
        for idx in self._candidates(request):
            allocation = self.engines[idx].try_allocate(request)
            if allocation is not None:
                self._sync_index(idx)
                self._job_server[request.job_id] = idx
                return ClusterPlacement(server_index=idx, allocation=allocation)
        return None


class ReferenceCore(SimulationCore):
    """The simulation core on the heap engine, with no memo.

    Every placement attempt reaches the backend (no futile-retry memo),
    measured bandwidth and execution time are recomputed per start,
    ``try_start`` is ``place`` + ``commit``, and shadow times come from
    a fresh sort of the running jobs.  :func:`reference_core` pairs it
    with the skip-free FIFO and EASY bodies.
    """

    def __init__(self, backend, discipline, log, dynamics=None) -> None:
        super().__init__(backend, discipline, log, dynamics=dynamics)
        self.engine = HeapEventEngine()
        self._completion_code = self.engine.intern_kind(COMPLETION)

    def place(self, job: Job) -> Optional[PlacedJob]:
        """Place ``job`` and evaluate its runtime, from scratch."""
        placement = self.backend.try_place(job.request())
        if placement is None:
            return None
        gpus = placement.gpus
        workload = job.workload_spec()
        if len(gpus) == 1:
            measured = 0.0
            exec_time = execution_time(workload, 1, float("inf"))
        else:
            hardware = self.backend.hardware_for(placement.server_index)
            measured = peak_effective_bandwidth(hardware, gpus)
            exec_time = execution_time(workload, len(gpus), measured)
        return PlacedJob(
            job=job, placement=placement, exec_time=exec_time, measured_bw=measured
        )

    def try_start(self, job: Job) -> bool:
        """Place and start ``job``: ``place`` + ``commit``."""
        placed = self.place(job)
        if placed is None:
            return False
        self.commit(placed)
        return True

    def earliest_fit_time(self, num_gpus: int) -> float:
        """EASY's shadow time from a fresh sort of the running jobs."""
        return reference_earliest_fit_time(self, num_gpus)


def reference_core(
    servers: Sequence[HardwareGraph],
    gpu_policy: str = "preserve",
    node_policy: str = "first-fit",
    model: EffectiveBandwidthModel = PAPER_MODEL,
    scheduling: str = "fifo",
    engine: str = "cached",
    dynamics=None,
) -> ReferenceCore:
    """A reference core over a fresh fleet, shaped like
    :class:`repro.cluster.MultiServerSimulator` (same log names)."""
    discipline = make_discipline(scheduling)
    if discipline.name in REFERENCE_BODIES:
        discipline = REFERENCE_BODIES[discipline.name]()
    return ReferenceCore(
        ReferenceScheduler(
            servers,
            gpu_policy=gpu_policy,
            node_policy=node_policy,
            model=model,
            engine=engine,
        ),
        discipline,
        SimulationLog(f"{gpu_policy}/{node_policy}", f"cluster[{len(servers)}]"),
        dynamics=dynamics,
    )


def reference_replay(
    servers: Sequence[HardwareGraph], trace: JobFile, **kw
) -> SimulationLog:
    """Replay ``trace`` through :func:`reference_core`; returns the log."""
    return reference_core(servers, **kw).run(trace)


def canonical(log: SimulationLog) -> str:
    """The log's canonical serialisation: equal strings, equal bytes."""
    return json.dumps(log.to_dict(), sort_keys=True)


def assert_identical_replay(
    servers: Sequence[HardwareGraph], trace: JobFile, **kw
) -> str:
    """Replay ``trace`` through ``run_cluster(servers, trace, **kw)`` and
    through the reference; require byte-identical canonical JSON.

    ``scan_cache`` and ``scan_spill`` reach only the production replay:
    the reference always starts from a fresh cache.  Returns the
    canonical JSON.
    """
    fast = run_cluster(servers, trace, **kw).log
    kw.pop("scan_cache", None)
    kw.pop("scan_spill", None)
    ref = reference_replay(servers, trace, **kw)
    fast_json = canonical(fast)
    if fast_json != canonical(ref):
        # The first differing record, not two multi-kilobyte strings.
        pairs = zip(fast.to_dict()["records"], ref.to_dict()["records"])
        diverged = next((p for p in pairs if p[0] != p[1]), "in length")
        raise AssertionError(f"replay diverged from the reference {diverged}")
    return fast_json
