"""Declarative experiment layer: grids, parallel sweeps, result caching.

Every figure/table of the paper is a sweep over (topology × policy ×
discipline × trace).  This package turns that observation into
infrastructure:

* :class:`~repro.experiments.spec.ExperimentSpec` — a declarative grid,
  expanded into deterministic per-cell :class:`~repro.experiments.spec.
  CellConfig`\\ s with stable content hashes;
* :class:`~repro.experiments.runner.SweepRunner` — shards cache-miss
  cells across a process pool and reuses everything else;
* :class:`~repro.experiments.store.ContentStore` — the one on-disk
  content-addressed cache (CRC'd frames, atomic writes); its clients
  are :class:`~repro.experiments.store.ResultStore` (per-cell
  ``.mlog`` logs) and :class:`~repro.experiments.spill.ScanSpillStore`
  (spilled scan winners);
* :mod:`~repro.experiments.presets` — the paper's canonical trace and
  grid constants, consumed by benchmarks and tests.

The benchmarks' shared loops (``run_all_policies`` over the evaluation
trace, the discipline/topology ablations) all route through here, and
``mapa sweep`` exposes the same machinery on the command line.
"""

from .presets import (
    CLUSTER_NUM_JOBS,
    FRAGMENTATION_MIN_GPUS,
    FRAGMENTATION_NUM_JOBS,
    GENERALIZATION_NUM_JOBS,
    GENERALIZATION_TOPOLOGIES,
    NOVEL_TOPOLOGIES,
    PAPER_MAX_GPUS,
    PAPER_MIN_GPUS,
    PAPER_NUM_JOBS,
    PAPER_SEED,
    PAPER_TOPOLOGY,
    dgx_evaluation_spec,
    paper_job_file,
    paper_trace,
    topology_evaluation_spec,
)
from .runner import (
    SUMMARY_COLUMNS,
    SweepOutcome,
    SweepRunner,
    run_experiment,
    simulate_cell,
)
from .spec import (
    CACHE_SCHEMA,
    AnyTraceSpec,
    CellConfig,
    ExperimentSpec,
    SWEEPABLE_POLICIES,
    TraceSpec,
    parse_grid,
)
from .store import (
    CellResult,
    ContentStore,
    ResultStore,
    StoreStats,
    default_cache_dir,
)

__all__ = [
    "AnyTraceSpec",
    "CACHE_SCHEMA",
    "CLUSTER_NUM_JOBS",
    "CellConfig",
    "CellResult",
    "ContentStore",
    "ExperimentSpec",
    "FRAGMENTATION_MIN_GPUS",
    "FRAGMENTATION_NUM_JOBS",
    "GENERALIZATION_NUM_JOBS",
    "GENERALIZATION_TOPOLOGIES",
    "NOVEL_TOPOLOGIES",
    "PAPER_MAX_GPUS",
    "PAPER_MIN_GPUS",
    "PAPER_NUM_JOBS",
    "PAPER_SEED",
    "PAPER_TOPOLOGY",
    "ResultStore",
    "StoreStats",
    "SUMMARY_COLUMNS",
    "SWEEPABLE_POLICIES",
    "SweepOutcome",
    "SweepRunner",
    "TraceSpec",
    "default_cache_dir",
    "dgx_evaluation_spec",
    "paper_job_file",
    "paper_trace",
    "parse_grid",
    "run_experiment",
    "simulate_cell",
    "topology_evaluation_spec",
]
