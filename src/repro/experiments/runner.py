"""Parallel, cache-backed execution of experiment grids.

:func:`simulate_cell` runs exactly one grid cell (one topology × policy
× discipline × trace simulation) and is a module-level function so a
:class:`concurrent.futures.ProcessPoolExecutor` can ship it to worker
processes.  :class:`SweepRunner` expands a spec, serves every cell it
can from the :class:`~repro.experiments.store.ResultStore`, shards the
remaining cells across workers, and returns a :class:`SweepOutcome`
whose logs are indistinguishable from a direct
:func:`repro.sim.cluster.run_all_policies` run.  Workers send each
finished cell back as ``.mlog`` bytes over the pool pipe
(:mod:`repro.experiments.transport`); the parent writes those bytes to
the store unchanged and decodes them lazily.

Determinism: a cell's trace is generated inside the worker from the
explicit seed in its :class:`~repro.experiments.spec.TraceSpec`, and the
Eq. 2 refit enumerates census samples exhaustively — so a cell's result
is a pure function of its config, which is what makes the content-hash
cache sound.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..policies.registry import make_policy
from ..scoring.effective import PAPER_MODEL
from ..scoring.memo import ScanCache
from ..scoring.regression import fit_for_hardware
from ..sim.cluster import ClusterSimulator
from ..sim.records import SimulationLog
from ..topology.builders import by_name
from .spec import CellConfig, ExperimentSpec
from .spill import ScanSpillStore
from .store import CellResult, ResultStore
from .transport import ArenaReader, CellHandle, CellReturn, pack_result

#: Environment variable naming the persistent scan-tier root.  Worker
#: processes read it (the executor's fork/spawn children inherit the
#: parent environment), so one variable warm-starts every shard.
SCAN_SPILL_ENV = "MAPA_SCAN_SPILL_DIR"


@lru_cache(maxsize=64)
def _refit_model(topology: str, fit_sizes: Tuple[int, ...]):
    """Per-process memo of the Eq. 2 refit — every cell sharing a
    topology fits the model once, not once per cell (the fit is
    deterministic, so caching cannot change results)."""
    model, _, _ = fit_for_hardware(by_name(topology), sizes=fit_sizes)
    return model


@lru_cache(maxsize=1)
def _worker_scan_cache() -> ScanCache:
    """One scan cache per worker process, reused across sweep cells.

    Cells of a sweep shard mostly differ along the policy axis while
    replaying the same trace on the same topology, so their scans share
    keys; the content-addressed key (wiring hash, pattern, free set)
    and per-model winner tokens make the sharing sound, and cached
    results are exact batch-engine replays, so cell outputs — and the
    content-hash result cache built from them — are unchanged.
    """
    return ScanCache()


@lru_cache(maxsize=1)
def _worker_scan_spill() -> Optional[ScanSpillStore]:
    """This worker's persistent scan tier, or ``None`` when disabled.

    Controlled by the :data:`SCAN_SPILL_ENV` environment variable so
    the setting crosses the process-pool boundary without touching the
    picklable :func:`simulate_cell` signature.
    """
    root = os.environ.get(SCAN_SPILL_ENV)
    return ScanSpillStore(root) if root else None


#: Topology hashes already rehydrated into this process's scan cache —
#: loading is idempotent (seeding skips live keys) but not free, so
#: each worker pays the disk walk once per wiring, not once per cell.
_spill_loaded: Set[str] = set()


def _reset_spill_state() -> None:
    """Forget the memoized spill store and load markers (test hook,
    and the runner's guard when the tier directory changes mid-process)."""
    _worker_scan_spill.cache_clear()
    _spill_loaded.clear()


def _worker_cache_probe(_token: int = 0) -> Tuple[int, int, int]:
    """``(pid, cache entries, cache lookups)`` of the calling worker.

    Module-level so a :class:`~concurrent.futures.ProcessPoolExecutor`
    can ship it; the pool-reuse regression test submits it before and
    after a sweep to prove the same worker processes — and therefore
    their warm per-worker scan caches — survive consecutive
    :meth:`SweepRunner.run` calls.  The unused ``_token`` argument only
    defeats executor-level call coalescing.
    """
    cache = _worker_scan_cache()
    return os.getpid(), len(cache.entries()), cache.stats.lookups


def _pool_mp_context():
    """The ``fork`` multiprocessing context when the platform has it.

    ``fork`` workers inherit the parent's imported modules and
    warmed-up state instead of re-importing from scratch, which is the
    cheap path for short sweep cells; platforms without ``fork``
    (Windows, some macOS configurations) fall back to the executor's
    default context.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return None


def _warmed_scan_cache(hardware) -> ScanCache:
    """The worker's shared scan cache, spill-warmed for ``hardware``."""
    cache = _worker_scan_cache()
    spill = _worker_scan_spill()
    if spill is not None:
        topology_hash = hardware.topology_hash
        if topology_hash not in _spill_loaded:
            _spill_loaded.add(topology_hash)
            spill.load(cache, [topology_hash])
    return cache


def simulate_cell(cell: CellConfig) -> CellResult:
    """Simulate one grid cell from scratch (pure function of the config).

    When the persistent scan tier is enabled (:data:`SCAN_SPILL_ENV`),
    the worker's scan cache is warm-started from the spilled partitions
    of this cell's wiring before simulating, and the cache's winners
    are spilled back afterwards — cold worker processes then start with
    the accumulated scan knowledge of every previous sweep.  Spilled
    winners are exact (content-addressed keys, bit-identical rebuilds),
    so cell outputs are unchanged either way.
    """
    hardware = by_name(cell.topology)
    if cell.model == "paper":
        model = PAPER_MODEL
    else:
        model = _refit_model(cell.topology, cell.fit_sizes)
    trace = cell.trace.build()
    policy = make_policy(cell.policy, model, cache=_warmed_scan_cache(hardware))
    simulator = ClusterSimulator(
        hardware,
        policy,
        model,
        scheduling=cell.discipline,
        # Scenario specs may carry a fleet-dynamics axis (hash-visible
        # via trace.to_dict()); on a single-server cell only preemption
        # has meaning, the fleet mutations no-op deterministically.
        dynamics=getattr(cell.trace, "dynamics", None),
    )
    log = simulator.run(trace)
    spill = _worker_scan_spill()
    if spill is not None:
        spill.spill(_worker_scan_cache())
    return CellResult(
        config_hash=cell.config_hash(), label=cell.label, log=log
    )


def simulate_cell_packed(cell: CellConfig) -> CellReturn:
    """Worker entry point: simulate the cell, return its ``.mlog`` bytes.

    Ships a :class:`~repro.experiments.transport.CellHandle` instead of
    the pickled record list (see :mod:`repro.experiments.transport`).
    Module-level so the executor can pickle it.
    """
    return pack_result(simulate_cell(cell))


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in expansion order."""

    spec: Optional[ExperimentSpec]
    cells: Tuple[CellConfig, ...]
    results: Dict[CellConfig, CellResult]
    elapsed: float = 0.0
    jobs: int = 1
    #: Decoder of the workers' returned payloads (see
    #: :class:`~repro.experiments.transport.ArenaReader`).
    transport: Optional[ArenaReader] = None

    @property
    def num_cells(self) -> int:
        """Total cells in the expanded grid."""
        return len(self.cells)

    @property
    def num_cached(self) -> int:
        """Cells served from the result store without simulating."""
        return sum(1 for r in self.results.values() if r.cached)

    @property
    def num_simulated(self) -> int:
        """Cells that had to be simulated this run."""
        return self.num_cells - self.num_cached

    # ------------------------------------------------------------------ #
    def log_for(self, cell: CellConfig) -> SimulationLog:
        """The simulation log of one grid cell."""
        return self.results[cell].log

    def logs(
        self,
        topology: Optional[str] = None,
        discipline: Optional[str] = None,
    ) -> Dict[str, SimulationLog]:
        """The ``{policy: log}`` mapping the analysis helpers consume.

        ``topology`` / ``discipline`` select one slice of the grid; they
        may be omitted only when the corresponding axis has one value.
        """
        cells = [
            c
            for c in self.cells
            if (topology is None or c.topology == topology)
            and (discipline is None or c.discipline == discipline)
        ]
        policies = [c.policy for c in cells]
        if len(set(policies)) != len(policies):
            raise ValueError(
                "slice is ambiguous: pass topology= and/or discipline= "
                "to select a single grid slice"
            )
        return {c.policy: self.results[c].log for c in cells}

    def summary_rows(self) -> List[List[object]]:
        """Per-cell summary metrics (the sweep CLI's table rows).

        Aggregates through :meth:`SimulationLog.numeric_columns`, so a
        summary-only sweep over lazily decoded ``.mlog`` logs never
        materialises a single :class:`~repro.sim.records.JobRecord`.
        The numpy reductions see the same float64 values in the same
        order as the historical per-record comprehensions, so every
        row is byte-identical to the record-at-a-time implementation.
        """
        rows: List[List[object]] = []
        for cell in self.cells:
            result = self.results[cell]
            log = result.log
            cols = log.numeric_columns()
            waits = cols["start_time"] - cols["submit_time"]
            mask = cols["bandwidth_sensitive"] & (cols["num_gpus"] > 1)
            sens = (cols["finish_time"] - cols["start_time"])[mask]
            effbw = cols["predicted_effective_bw"][mask]
            rows.append(
                [
                    cell.topology,
                    cell.policy,
                    cell.discipline,
                    len(log),
                    log.makespan,
                    float(np.mean(waits)) if waits.size else 0.0,
                    float(np.quantile(sens, 0.75)) if sens.size else 0.0,
                    float(np.mean(effbw)) if effbw.size else 0.0,
                    3600.0 * log.throughput,
                    "cached" if result.cached else "simulated",
                ]
            )
        return rows


#: Column names matching :meth:`SweepOutcome.summary_rows`.
SUMMARY_COLUMNS = (
    "topology",
    "policy",
    "discipline",
    "jobs",
    "makespan (s)",
    "mean wait (s)",
    "p75 sens exec (s)",
    "mean sens EffBW",
    "jobs/h",
    "source",
)


class SweepRunner:
    """Expand a spec, reuse cached cells, simulate the rest in parallel.

    Parameters
    ----------
    store:
        Result cache; ``None`` disables caching entirely (every cell is
        simulated, nothing is persisted).
    jobs:
        Worker processes for cache-miss cells.  ``1`` (the default) runs
        serially in-process — no executor, no pickling, easiest to
        debug.  Cells are independent simulations, so speedup is
        near-linear until topology refits dominate.
    scan_spill:
        Root directory of the persistent scan tier.  When set, workers
        warm-start their per-process scan caches from the spilled
        partitions and spill fresh winners back after each simulated
        cell; passed to workers through :data:`SCAN_SPILL_ENV`.
        ``None`` (the default) leaves the tier disabled.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        scan_spill: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be ≥ 1")
        self.store = store
        self.jobs = jobs
        self.scan_spill = scan_spill
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    # ------------------------------------------------------------------ #
    def run(
        self, spec_or_cells: Union[ExperimentSpec, Sequence[CellConfig]]
    ) -> SweepOutcome:
        """Execute a spec (or explicit cell list) and collect the results.

        Parameters
        ----------
        spec_or_cells:
            An :class:`~repro.experiments.spec.ExperimentSpec` to
            expand, or an already-expanded sequence of
            :class:`~repro.experiments.spec.CellConfig`.

        Returns
        -------
        SweepOutcome
            Results in expansion order, with cache/simulation counters
            and wall-clock timing.
        """
        started = time.perf_counter()
        if isinstance(spec_or_cells, ExperimentSpec):
            spec: Optional[ExperimentSpec] = spec_or_cells
            cells = spec_or_cells.expand()
        else:
            spec = None
            cells = tuple(spec_or_cells)

        results: Dict[CellConfig, CellResult] = {}
        missing: List[CellConfig] = []
        for cell in cells:
            cached = self.store.load(cell) if self.store is not None else None
            if cached is not None:
                results[cell] = cached
            else:
                missing.append(cell)

        reader = ArenaReader()
        for cell, returned in zip(missing, self._simulate(missing)):
            if isinstance(returned, CellHandle):
                if self.store is not None:
                    # persisted as-is: no re-encode, no record rebuild
                    self.store.save_payload(
                        returned.config_hash, returned.payload
                    )
                returned = reader.materialize(returned)
            elif self.store is not None:
                self.store.save(returned)
            results[cell] = returned

        return SweepOutcome(
            spec=spec,
            cells=cells,
            results=results,
            elapsed=time.perf_counter() - started,
            jobs=self.jobs,
            transport=reader,
        )

    def _simulate(self, cells: Sequence[CellConfig]) -> List[CellReturn]:
        """Simulate cache-miss cells, serially or across worker processes."""
        if not cells:
            return []
        if self.scan_spill is None:
            return self._simulate_cells(cells)
        # Publish the tier root through the environment so executor
        # children inherit it, and reset the in-process memos so the
        # serial path honours a changed directory too.
        previous = os.environ.get(SCAN_SPILL_ENV)
        os.environ[SCAN_SPILL_ENV] = self.scan_spill
        _reset_spill_state()
        try:
            return self._simulate_cells(cells)
        finally:
            if previous is None:
                os.environ.pop(SCAN_SPILL_ENV, None)
            else:
                os.environ[SCAN_SPILL_ENV] = previous
            _reset_spill_state()

    def _simulate_cells(self, cells: Sequence[CellConfig]) -> List[CellReturn]:
        """Run cache-miss cells; parallel runs return encoded handles.

        The serial path stays in-process — no pickling, so encoding
        would only add a copy — and returns plain results.
        """
        if self.jobs == 1 or len(cells) == 1:
            return [simulate_cell(cell) for cell in cells]
        return list(self._ensure_pool().map(simulate_cell_packed, cells))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """This runner's persistent executor, (re)built only when needed.

        Historically every :meth:`run` call spawned and tore down a
        fresh :class:`~concurrent.futures.ProcessPoolExecutor`, which
        discarded the per-worker scan caches (:func:`_worker_scan_cache`)
        between sweeps and paid process start-up per call.  The pool is
        now created once — sized to ``self.jobs``; the executor spawns
        workers lazily, so a constant size costs nothing for small cell
        lists while maximizing worker (and cache) reuse — and recreated
        only when ``self.jobs`` changes.
        """
        if self._pool is not None and self._pool_workers != self.jobs:
            self.close()
        if self._pool is None:
            ctx = _pool_mp_context()
            kwargs = {"mp_context": ctx} if ctx is not None else {}
            self._pool = ProcessPoolExecutor(max_workers=self.jobs, **kwargs)
            self._pool_workers = self.jobs
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        Runners are also context managers; ``with SweepRunner(...)``
        closes on exit.  An unclosed runner's pool is reclaimed by the
        executor's own finalization at interpreter exit, so calling
        this is an optimization, not a correctness requirement.
        """
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SweepRunner":
        """Support ``with SweepRunner(...) as runner:`` usage."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the persistent pool when the ``with`` block exits."""
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        """Best-effort pool shutdown when the runner is garbage-collected."""
        try:
            self.close()
        except Exception:
            pass


def run_experiment(
    spec: ExperimentSpec,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    scan_spill: Optional[str] = None,
) -> SweepOutcome:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    with SweepRunner(store=store, jobs=jobs, scan_spill=scan_spill) as runner:
        return runner.run(spec)
