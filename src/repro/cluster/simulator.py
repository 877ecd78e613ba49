"""Event-driven simulation of a multi-server MAPA cluster.

A thin wrapper over the unified :class:`~repro.sim.core.SimulationCore`
with the :class:`~repro.cluster.scheduler.MultiServerScheduler` as the
placement backend.  Because the event loop and queue disciplines are
shared with the single-server simulator, multi-server runs support
every registered discipline — FIFO, backfill, SJF, EASY backfilling —
not just the FIFO loop this module used to hard-code.

Placements carry the hosting server's index so per-server utilisation
can be analysed.
"""

from __future__ import annotations

from typing import Deque, Dict, List, Sequence

from ..scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from ..sim.core import PlacementRecord, SimulationCore
from ..sim.disciplines import make_discipline
from ..sim.engine import EventEngine
from ..sim.records import SimulationLog
from ..topology.hardware import HardwareGraph
from ..workloads.jobs import Job, JobFile
from .scheduler import MultiServerScheduler

#: A completed job plus the server that hosted it.  Alias of the core's
#: :class:`~repro.sim.core.PlacementRecord`, kept under the name this
#: module has always exported.
ClusterJobRecord = PlacementRecord


class MultiServerSimulator:
    """Multi-server simulator: one queue, a fleet of MAPA-managed servers.

    ``scheduling`` selects the queue discipline by registry name; the
    default ``"fifo"`` mirrors the single-server (and paper) setup with
    head-of-line blocking across the whole cluster.
    """

    def __init__(
        self,
        servers: Sequence[HardwareGraph],
        gpu_policy: str = "preserve",
        node_policy: str = "first-fit",
        model: EffectiveBandwidthModel = PAPER_MODEL,
        scheduling: str = "fifo",
        engine: str = "cached",
        scan_cache=None,
        scan_spill=None,
        dynamics=None,
    ) -> None:
        self.scheduler = MultiServerScheduler(
            servers,
            gpu_policy=gpu_policy,
            node_policy=node_policy,
            model=model,
            engine=engine,
            scan_cache=scan_cache,
            scan_spill=scan_spill,
        )
        self.scheduling = scheduling
        self.core = SimulationCore(
            backend=self.scheduler,
            discipline=make_discipline(scheduling),
            log=SimulationLog(
                f"{gpu_policy}/{node_policy}", f"cluster[{len(servers)}]"
            ),
            dynamics=dynamics,
        )

    def run(self, job_file: JobFile) -> SimulationLog:
        """Simulate the whole trace and return the log."""
        return self.core.run(job_file)

    # ------------------------------------------------------------------ #
    def jobs_per_server(self) -> Dict[int, int]:
        """How many completed jobs each server hosted."""
        return self.core.jobs_per_server()

    # Compatibility accessors (the pre-unification simulator exposed
    # these directly).
    @property
    def placements(self) -> List[ClusterJobRecord]:
        """Completed jobs with their hosting server."""
        return self.core.placements

    @property
    def engine(self) -> EventEngine:
        """The core's event queue."""
        return self.core.engine

    @property
    def queue(self) -> Deque[Job]:
        """Jobs waiting to start."""
        return self.core.queue

    @property
    def log(self) -> SimulationLog:
        """The completed-job log."""
        return self.core.log


def run_cluster(
    servers: Sequence[HardwareGraph],
    job_file: JobFile,
    gpu_policy: str = "preserve",
    node_policy: str = "first-fit",
    model: EffectiveBandwidthModel = PAPER_MODEL,
    scheduling: str = "fifo",
    engine: str = "cached",
    scan_cache=None,
    scan_spill=None,
    dynamics=None,
) -> MultiServerSimulator:
    """Simulate a trace on a cluster; returns the simulator (log inside).

    ``engine`` selects the GPU policies' scan source: ``"cached"``
    (default, fleet-shared content-addressed scan memoization) or
    ``"batch"`` (a fresh scan per decision) — bit-identical, which is
    what the fleet-scale benchmark's cached-vs-batch gate verifies end
    to end; anything else raises ``ValueError``.
    ``scan_cache`` optionally supplies the cached source's backing
    store, letting a caller keep it warm across repeated replays of
    the same fleet (cache keys are content-addressed, so reuse can
    only ever change speed, not results).  ``scan_spill`` optionally
    attaches a persistent scan-cache tier
    (:class:`repro.experiments.spill.ScanSpillStore`): the shared cache
    is warm-started from it at construction, and
    ``sim.scheduler.spill_scan_cache()`` writes it back.  ``dynamics``
    optionally injects a seeded fleet-chaos axis
    (:class:`repro.scenarios.dynamics.DynamicsSpec`): failures,
    autoscale and preemption as first-class events, under any
    ``scheduling`` discipline.
    """
    sim = MultiServerSimulator(
        servers,
        gpu_policy,
        node_policy,
        model,
        scheduling,
        engine=engine,
        scan_cache=scan_cache,
        scan_spill=scan_spill,
        dynamics=dynamics,
    )
    sim.run(job_file)
    return sim
