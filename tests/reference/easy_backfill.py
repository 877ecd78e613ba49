"""Reference EASY backfilling: place every queued job, then decide.

The straightforward body of
:class:`repro.sim.disciplines.EasyBackfillDiscipline`, kept verbatim as
the oracle for the exact skips the production discipline makes.  Every
queued job behind the head is placed, its exact execution time
compared with the head's shadow time, and the placement committed or
aborted — no skip, no state carried between passes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.sim.disciplines import QueueDiscipline, _EPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import SimulationCore
    from repro.workloads.jobs import Job


class ReferenceEasyBackfill(QueueDiscipline):
    """EASY backfilling by exhaustive place → commit/abort."""

    name = "easy-backfill"

    def schedule(self, core: "SimulationCore") -> None:
        """Start what fits, reserve for the head, backfill behind it."""
        queue = core.queue
        while queue:
            placed = core.place(queue[0])
            if placed is None:
                break
            queue.popleft()
            core.commit(placed)
        if not queue:
            return
        head = queue.popleft()
        shadow = core.earliest_fit_time(head.num_gpus)
        rest: Deque["Job"] = deque()
        while queue:
            job = queue.popleft()
            placed = core.place(job)
            if placed is None:
                rest.append(job)
                continue
            if core.now + placed.exec_time <= shadow + _EPS:
                core.commit(placed)
            else:
                core.abort(placed)  # would delay the head's reservation
                rest.append(job)
        rest.appendleft(head)
        core.queue = rest


def reference_earliest_fit_time(core: "SimulationCore", num_gpus: int) -> float:
    """``SimulationCore.earliest_fit_time`` computed from scratch.

    Sorts the running jobs' completions on every call, as the core did
    before it kept the timeline between calls, and reads every server's
    free count and status afresh from its engine, not from the
    scheduler's candidate index: a server that is not up hosts nothing
    new.
    """
    backend = core.backend
    frees = [engine.state.num_free for engine in backend.engines]
    up = [backend.server_status(i) == "up" for i in range(len(frees))]
    if any(u and f >= num_gpus for u, f in zip(up, frees)):
        return core.engine.now
    capacities = [
        backend.hardware_for(i).num_gpus if up[i] else 0
        for i in range(len(frees))
    ]
    completions = sorted(
        (row[8], row[0], row[3]) for row in core._running.values()
    )
    for finish_time, server, freed in completions:
        frees[server] += freed
        if capacities[server] >= num_gpus and frees[server] >= num_gpus:
            return finish_time
    return float("inf")
