"""The MAPA simulation framework (paper Fig. 14), single-server front end.

A paper cell is a one-server fleet: :func:`run_policy` places through a
:class:`~repro.cluster.scheduler.MultiServerScheduler` over one server,
driven by the unified :class:`~repro.sim.core.SimulationCore` — the
same backend, placement memos and event loop as every fleet replay.
The dispatcher reads the job file into a queue, the configured
:class:`~repro.sim.disciplines.QueueDiscipline` decides when queued jobs
start (``"fifo"`` — the paper's head-of-line-blocking setup — by
default), MAPA places each started job, and completions return GPUs to
the pool ("Job Finished Signal").

The logger records, per job, the allocation, its Aggregated Bandwidth,
the Eq. 2 *predicted* effective bandwidth (the simulator's quality
metric), and the microbenchmark-model *measured* effective bandwidth —
the pair of columns behind the validation scatter of Fig. 15.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..policies.base import AllocationPolicy
from ..scoring.effective import EffectiveBandwidthModel, PAPER_MODEL
from ..topology.hardware import HardwareGraph
from ..workloads.jobs import JobFile
from .core import SimulationCore
from .disciplines import make_discipline
from .records import SimulationLog


class _PreemptionsOnly:
    """A dynamics spec's unchanged ``build`` stream, ``preempt`` events only."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self.casualty, self.victim = spec.casualty, spec.victim
        self.is_empty = spec.is_empty

    def build(self, topologies: Sequence[str]) -> Tuple[object, ...]:
        """The spec's events, filtered: each keeps its time and victim rank."""
        return tuple(e for e in self.spec.build(topologies) if e.action == "preempt")


def run_policy(
    hardware: HardwareGraph,
    policy: AllocationPolicy,
    job_file: JobFile,
    model: EffectiveBandwidthModel = PAPER_MODEL,
    scheduling: str = "fifo",
    dynamics=None,
) -> SimulationLog:
    """Simulate one policy over one trace on one server.

    ``scheduling`` selects the queue discipline by registry name —
    ``"fifo"`` (default, the paper's setup), ``"backfill"``, ``"sjf"``,
    ``"easy-backfill"``, or anything registered via
    :func:`repro.sim.disciplines.register_discipline`.  The log is
    labelled ``(policy.name, hardware.name)``.

    ``dynamics`` (a :class:`~repro.scenarios.dynamics.DynamicsSpec`)
    lets dynamics-carrying scenarios sweep through single-server grid
    cells.  Only its preemptions reach the core: a paper cell has
    always read failures, repairs, drains and grows as no-ops on its one
    server, and a cell's config hash does not see the backend, so acting
    on them would silently change every stored dynamics cell.
    """
    from ..cluster.scheduler import MultiServerScheduler  # import cycle

    core = SimulationCore(
        backend=MultiServerScheduler([hardware], gpu_policy=policy, model=model),
        discipline=make_discipline(scheduling),
        log=SimulationLog(policy.name, hardware.name),
        dynamics=None if dynamics is None else _PreemptionsOnly(dynamics),
    )
    return core.run(job_file)


def run_all_policies(
    hardware: HardwareGraph,
    job_file: JobFile,
    model: EffectiveBandwidthModel = PAPER_MODEL,
    policy_names: Optional[list] = None,
    scheduling: str = "fifo",
) -> Dict[str, SimulationLog]:
    """Simulate the paper's four policies over the same trace."""
    from ..policies.registry import POLICY_NAMES, make_policy

    names = policy_names or POLICY_NAMES
    return {
        name: run_policy(
            hardware, make_policy(name, model), job_file, model, scheduling
        )
        for name in names
    }
