"""Pluggable queue disciplines for the unified simulation core.

The paper evaluates under strict FIFO and notes MAPA "is agnostic to
scheduling policies ... and can employ reordering" (section 4).  This
module turns that observation into a strategy registry: a
:class:`QueueDiscipline` decides, after every arrival, completion and
fleet mutation, which queued jobs to start, using the
:class:`~repro.sim.core.SimulationCore` toolkit
(``place``/``commit``/``abort``, runtime estimates, shadow times) and
the cause of the call (``core.cause``).  Disciplines are
backend-agnostic — the same code schedules one DGX or a fleet of
heterogeneous servers, static or under fleet dynamics.

Built-in disciplines
--------------------
``fifo``
    Strict head-of-line blocking (the paper's setup).
``backfill``
    Later jobs may start while the head is blocked, as long as resources
    allow — no reservation, so the head can starve under adversarial
    traffic (aggressive backfilling).
``sjf``
    Shortest-job-first: like ``backfill`` but candidates are tried in
    order of estimated runtime (ideal-bandwidth execution time), so
    short jobs jump the queue.
``easy-backfill``
    EASY backfilling (Lifka '95): the blocked head holds a reservation
    at the earliest time enough GPUs will be free, and later jobs may
    start only if they finish before that shadow time.  Runtimes of
    running jobs are known exactly in simulation, so the reservation is
    exact up to GPU counts (the shadow time ignores intra-server
    fragmentation, as real EASY schedulers do).

Every discipline only attempts a placement whose outcome can change.
A job asking for more GPUs than the emptiest server has free cannot be
placed, and once no server has a free GPU the rest of the queue is not
walked at all.  FIFO does nothing on an arrival behind a blocked head;
EASY additionally skips the jobs whose runtime lower bound already
overruns the shadow time and, on an arrival, re-examines only the jobs
whose outcome can have changed (see :class:`EasyBackfillDiscipline`).
Every skip is exact: the resulting schedule is byte-identical to
attempting every job.

Use :func:`register_discipline` to add custom disciplines; they become
available to both simulators and the CLI by name.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterable, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..workloads.jobs import Job
    from .core import SimulationCore

#: Slack added to reservation comparisons so float round-off in event
#: times never flips a backfill decision.
_EPS = 1e-9

#: The event kinds a discipline can be called after (``core.cause``).
ARRIVAL = "arrival"
COMPLETION = "completion"
FLEET = "fleet"


def _max_free_probe(backend: object) -> Callable[[], int]:
    """The backend's largest per-server free-GPU count, as a callable.

    The O(1) ``max_free_count`` hook where the backend has one, else
    ``max(free_gpu_counts())``.  No job asking for more GPUs than this
    can be placed.
    """
    probe = getattr(backend, "max_free_count", None)
    if probe is None:
        return lambda: max(backend.free_gpu_counts())
    return probe


class QueueDiscipline(abc.ABC):
    """Strategy deciding which queued jobs start after each event."""

    #: Registry name used in logs and the CLI.
    name: str = "abstract"

    @abc.abstractmethod
    def schedule(self, core: "SimulationCore") -> None:
        """Start queued jobs on ``core`` according to this discipline.

        The core calls this after every event, with ``core.cause`` set
        to the kind of event it just handled (``None`` outside a run):

        * :data:`ARRIVAL` — one job joined the tail of the queue and
          nothing else changed since the previous call;
        * :data:`COMPLETION` — a job finished and released its GPUs;
        * :data:`FLEET` — a failure, repair, drain, grow or preemption:
          the free set may have grown or shrunk, and failure casualties
          may have been requeued at the *front* of the queue.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Debug representation with the discipline name."""
        return f"{type(self).__name__}(name={self.name!r})"


class FifoDiscipline(QueueDiscipline):
    """Strict FIFO with head-of-line blocking (paper section 4).

    Two exact skips keep the call after every event cheap.  An arrival
    joining a non-empty queue starts nothing: the head was tried after
    the previous event and nothing has been released since.  A head
    asking for more GPUs than any server has free is rejected by one
    integer compare, without entering the placement path (or its
    futile-retry memo, which would only reject it later).
    """

    name = "fifo"

    def schedule(self, core: "SimulationCore") -> None:
        """Start jobs from the head until one fails to place."""
        queue = core.queue
        if core.cause == ARRIVAL and len(queue) > 1:
            return
        max_free_count = core.discipline_state  # the run's probe
        if max_free_count is None:
            max_free_count = core.discipline_state = _max_free_probe(core.backend)
        while queue:
            head = queue[0]
            if head.num_gpus > max_free_count() or not core.try_start(head):
                return  # head-of-line blocking: wait for a completion
            queue.popleft()


class BackfillDiscipline(QueueDiscipline):
    """Aggressive backfill: scan past a blocked head, no reservation."""

    name = "backfill"

    def schedule(self, core: "SimulationCore") -> None:
        """Try every queued job in arrival order, keep what will not fit."""
        max_free_count = _max_free_probe(core.backend)
        max_free = max_free_count()
        queue = core.queue
        still: Deque["Job"] = deque()
        for pos, job in enumerate(queue):
            if not max_free:
                still.extend(islice(queue, pos, None))
                break
            if job.num_gpus <= max_free and core.try_start(job):
                max_free = max_free_count()
            else:
                still.append(job)
        core.queue = still


class ShortestJobFirstDiscipline(QueueDiscipline):
    """Backfill with candidates ordered by estimated runtime.

    The estimate is the job's ideal-bandwidth execution time (a lower
    bound independent of placement quality), so ordering is known before
    any allocation is attempted.  Jobs that do not start keep their
    arrival order in the queue.
    """

    name = "sjf"

    def schedule(self, core: "SimulationCore") -> None:
        """Try queued jobs shortest-estimate first, arrival order on ties."""
        max_free_count = _max_free_probe(core.backend)
        max_free = max_free_count()
        if not max_free:
            return
        order = sorted(
            enumerate(core.queue),
            key=lambda item: (core.runtime_estimate(item[1]), item[0]),
        )
        started = set()
        for pos, job in order:
            if not max_free:
                break
            if job.num_gpus <= max_free and core.try_start(job):
                started.add(pos)
                max_free = max_free_count()
        if started:
            core.queue = deque(
                job for pos, job in enumerate(core.queue) if pos not in started
            )


@dataclass
class _EasyPass:
    """What one EASY pass leaves for the next (``core.discipline_state``)."""

    #: The length of the queue as the pass left it.
    length: int
    #: The head's shadow time then.
    shadow: float
    #: Jobs started since the last full pass.  Between full passes only
    #: these commits change the free set.
    commits: int
    #: Jobs placed and then rejected on their exact ``exec_time``, in
    #: queue order, each with ``commits`` at its rejection.
    retry: List[Tuple["Job", int]]


class EasyBackfillDiscipline(QueueDiscipline):
    """EASY backfilling: reservation for the head, strict for the rest.

    The head of the queue gets a reservation at the shadow time — the
    earliest instant enough GPUs free up on one server.  A later job may
    backfill only if its placement finishes by then, so the head is
    never delayed by a backfilled job (up to intra-server fragmentation,
    which GPU-count reservations cannot see).

    A job is placed only to learn its exact runtime, and the placement
    is committed or aborted at once.  The schedule is the one produced
    by attempting every queued job in order, but the attempts whose
    outcome is already known are skipped:

    * a job asking for more GPUs than any server has free cannot be
      placed, and once no server has a free GPU the walk stops;
    * a job with ``now + runtime_estimate(job) > shadow + _EPS`` would
      be aborted if it were placed: the estimate is a float lower bound
      on every placement's ``exec_time`` and float addition is
      monotone;
    * a pass after an arrival (``core.cause == ARRIVAL``: the queue
      grew at its tail, and nothing was released or requeued since the
      last pass) re-examines only the new tail job and the jobs the
      last pass rejected on their exact ``exec_time``.  Since that pass
      the free set has only shrunk, so a job that failed, was too large
      or had no free GPU to go to still is, and the head still cannot
      start.  An estimate-skipped job stays skipped while the shadow
      time does not grow (the pass falls back to a full walk when it
      does).  A rejected job is the one non-monotone case: a smaller
      free set can route it to a different server with a shorter
      ``exec_time``.  So it is placed again — unless no job has started
      since its rejection, in which case the free set, hence its
      placement and ``exec_time``, are the ones it was rejected on.
      Every other cause forces a full pass: a failure can requeue
      casualties at the front of the queue without releasing anything.

    The skips rely on the same contract as the core's futile-retry memo:
    placement failure is monotone in the free set, placement is a pure
    function of the free set, and an abort restores the free set
    exactly (see :class:`~repro.sim.core.PlacementBackend`).
    """

    name = "easy-backfill"

    def schedule(self, core: "SimulationCore") -> None:
        """Start what fits, reserve for the head, backfill behind it."""
        max_free_count = _max_free_probe(core.backend)
        queue = core.queue
        last = core.discipline_state
        core.discipline_state = None
        shadow = None
        if core.cause == ARRIVAL and isinstance(last, _EasyPass):
            shadow = core.earliest_fit_time(queue[0].num_gpus)
            if shadow <= last.shadow:
                commits = last.commits
                rejected = {id(job): stamp for job, stamp in last.retry}
                candidates = [job for job, _ in last.retry]
                candidates.extend(islice(queue, last.length, None))
            else:
                shadow = None
        if shadow is None:
            commits = 0
            rejected = {}
            while queue:
                job = queue[0]
                if job.num_gpus > max_free_count():
                    break
                placed = core.place(job)
                if placed is None:
                    break
                queue.popleft()
                core.commit(placed)
                commits += 1
            if not queue:
                return
            shadow = core.earliest_fit_time(queue[0].num_gpus)
            candidates = islice(queue, 1, None)
        started, retry = self._backfill(
            core, candidates, shadow, max_free_count, commits, rejected
        )
        if started:
            gone = set(map(id, started))
            queue = core.queue = deque(job for job in queue if id(job) not in gone)
        core.discipline_state = _EasyPass(
            len(queue), shadow, commits + len(started), retry
        )

    @staticmethod
    def _backfill(
        core: "SimulationCore",
        candidates: Iterable["Job"],
        shadow: float,
        max_free_count: Callable[[], int],
        commits: int,
        rejected: Dict[int, int],
    ) -> Tuple[List["Job"], List[Tuple["Job", int]]]:
        """Start every candidate that fits now and finishes by ``shadow``.

        ``commits`` counts the jobs started since the last full pass;
        ``rejected`` maps ``id(job)`` to that count at the job's last
        rejection on its exact execution time.  Returns the jobs started
        and the jobs rejected (with their stamps), in candidate order.
        """
        now = core.now
        limit = shadow + _EPS
        estimate = core.runtime_estimate
        max_free = max_free_count()
        started: List["Job"] = []
        retry: List[Tuple["Job", int]] = []
        for job in candidates:
            if job.num_gpus > max_free:
                if not max_free:
                    break
                continue
            if now + estimate(job) > limit:
                continue
            if rejected.get(id(job)) == commits:
                retry.append((job, commits))  # same free set, same verdict
                continue
            placed = core.place(job)
            if placed is None:
                continue
            if now + placed.exec_time <= limit:
                core.commit(placed)
                started.append(job)
                commits += 1
                max_free = max_free_count()
            else:
                core.abort(placed)  # would delay the head's reservation
                retry.append((job, commits))
        return started, retry


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
DISCIPLINES: Dict[str, Callable[[], QueueDiscipline]] = {}

#: Alternative spellings accepted by :func:`make_discipline`.
_ALIASES: Dict[str, str] = {
    "easy": "easy-backfill",
    "easy_backfill": "easy-backfill",
    "shortest-job-first": "sjf",
    "shortest_job_first": "sjf",
}


def register_discipline(
    name: str, factory: Callable[[], QueueDiscipline]
) -> None:
    """Register a discipline factory under ``name`` (lowercase)."""
    DISCIPLINES[name.lower()] = factory


def make_discipline(name: str) -> QueueDiscipline:
    """Instantiate a queue discipline by (case-insensitive) name."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    factory = DISCIPLINES.get(key)
    if factory is None:
        known = ", ".join(DISCIPLINES)
        raise ValueError(
            f"unknown scheduling discipline {name!r}; known: {known}"
        )
    return factory()


register_discipline("fifo", FifoDiscipline)
register_discipline("backfill", BackfillDiscipline)
register_discipline("sjf", ShortestJobFirstDiscipline)
register_discipline("easy-backfill", EasyBackfillDiscipline)

#: Canonical built-in discipline names, in registration order.  A
#: snapshot taken at import time — for a live view that includes later
#: :func:`register_discipline` calls, iterate :data:`DISCIPLINES`.
DISCIPLINE_NAMES: Tuple[str, ...] = tuple(DISCIPLINES)
