"""Multi-tenant cluster simulator (paper Fig. 14) and summary metrics."""

from .engine import EventEngine
from .records import JobRecord, SimulationLog
from .core import (
    PlacedJob,
    PlacementBackend,
    PlacementRecord,
    SimulationCore,
)
from .disciplines import (
    DISCIPLINE_NAMES,
    DISCIPLINES,
    QueueDiscipline,
    make_discipline,
    register_discipline,
)
from .cluster import run_all_policies, run_policy
from .metrics import (
    TABLE3_QUANTILES,
    PolicySummary,
    boxplot_stats,
    effective_bw_distribution,
    five_number_summary,
    per_job_speedups,
    quantiles,
    speedup_summary,
)
from .utilization import (
    UtilizationSummary,
    busy_gpus_timeline,
    gpu_utilization,
    nvlink_utilization,
    summarize_utilization,
)

__all__ = [
    "EventEngine",
    "JobRecord",
    "SimulationLog",
    "PlacedJob",
    "PlacementBackend",
    "PlacementRecord",
    "SimulationCore",
    "DISCIPLINE_NAMES",
    "DISCIPLINES",
    "QueueDiscipline",
    "make_discipline",
    "register_discipline",
    "run_all_policies",
    "run_policy",
    "TABLE3_QUANTILES",
    "PolicySummary",
    "boxplot_stats",
    "effective_bw_distribution",
    "five_number_summary",
    "per_job_speedups",
    "quantiles",
    "speedup_summary",
    "UtilizationSummary",
    "busy_gpus_timeline",
    "gpu_utilization",
    "nvlink_utilization",
    "summarize_utilization",
]
