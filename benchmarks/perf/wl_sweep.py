"""``sweep_grid``: the paper-facing grid through the sweep/cache layer.

Six topologies x four policies x FIFO over one seeded 1 000-job trace:
24 cells through ``SweepRunner(store=ResultStore(tmp), jobs=2)``.

Two timed phases share the run's budget:

* **cold sweeps** (60 %) — each into an empty store with a fresh runner
  whose two pool workers were forked by an untimed two-cell bootstrap
  (that fork + first reply is the set-up sample).  ``jobs_per_s``.
* **warm re-reads** (40 %) — the last populated store read back
  summary-only through a fresh ``ResultStore`` object per pass.
  ``latency_p50_us`` is one such pass.

Writes and lazy reads of the ``.mlog`` tier sit beside each other here,
so a transport or tier change that speeds one and slows the other shows
as the two metrics moving opposite ways.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    EXTRA_BOOTS,
    Context,
    Outcome,
    Samples,
    load_expected,
    perf,
    reap_children,
    timed,
    timed_loop,
)
from tracing import Proxy, Tracer, trace_metrics

from repro.experiments import (
    ExperimentSpec,
    ResultStore,
    SweepRunner,
    TraceSpec,
    simulate_cell,
)

TOPOLOGIES = (
    "dgx1-v100", "dgx1-p100", "dgx2", "summit", "torus-2d-16", "cube-mesh-16",
)
POLICIES = ("baseline", "topo-aware", "greedy", "preserve")
WORKERS = 2

#: Share of the run's budget spent on cold sweeps; the rest re-reads.
COLD_SHARE = 0.6


def grid(ctx: Context) -> ExperimentSpec:
    """The measured grid (4 cells under ``--quick``)."""
    quick = ctx.quick
    return ExperimentSpec(
        name="perf-grid",
        topologies=("dgx1-v100", "summit") if quick else TOPOLOGIES,
        policies=("baseline", "preserve") if quick else POLICIES,
        disciplines=("fifo",),
        trace=TraceSpec(num_jobs=ctx.scale(1000, 60), seed=ctx.seed),
    )


def bootstrap(ctx: Context) -> ExperimentSpec:
    """Two trivial cells on a topology outside the grid.

    Running them forks both pool workers and imports what a cell needs
    without warming a single scan the measured grid will ask for (scan
    keys are per wiring).
    """
    return ExperimentSpec(
        name="perf-boot",
        topologies=("big-basin",),
        policies=("baseline", "topo-aware"),
        disciplines=("fifo",),
        trace=TraceSpec(num_jobs=20, seed=ctx.seed),
        model="paper",
    )


def rows_digest(rows: List[List[object]]) -> str:
    """SHA-256 of the summary rows without their cached/simulated column."""
    body = [row[:-1] for row in rows]
    return hashlib.sha256(json.dumps(body).encode("utf-8")).hexdigest()


def p75_speedup_pct(rows: List[List[object]]) -> float:
    """% cut in p75 sensitive-job exec time, preserve vs baseline, DGX-V.

    Simulated time — the paper's Table 3 headline (12.4 %); exact for a
    given seed, so it is a correctness value here, never a speed.
    """
    p75 = {row[1]: float(row[6]) for row in rows if row[0] == "dgx1-v100"}
    base = p75["baseline"]
    return 100.0 * (base - p75["preserve"]) / base if base else 0.0


def sweep_grid(ctx: Context) -> Outcome:
    out = Outcome()
    tracer: Optional[Tracer] = ctx.tracer
    spec = grid(ctx)
    boot_spec = bootstrap(ctx)
    cells = spec.num_cells
    jobs_per_cell = spec.trace.num_jobs
    total_jobs = cells * jobs_per_cell
    setups: List[float] = []
    digests: Dict[str, str] = {}
    last: Dict[str, Any] = {}

    def traced_store(store: ResultStore) -> Any:
        if tracer is None:
            return store
        return Proxy(
            store,
            tracer,
            {"load": "store.load", "save": "store.save",
             "save_payload": "store.save_payload"},
        )

    # ---- cold sweeps ------------------------------------------------- #
    def boot(_rep: int) -> Tuple[SweepRunner, ResultStore]:
        def build() -> Tuple[SweepRunner, ResultStore]:
            store = ResultStore(ctx.subdir("store"))
            runner = SweepRunner(store=None, jobs=WORKERS)
            runner.run(boot_spec)
            return runner, store

        wall, (runner, store) = timed(build)
        setups.append(wall)
        return runner, store

    def cold(arg: Tuple[SweepRunner, ResultStore], traced: bool = False) -> Tuple[Any, ...]:
        runner, store = arg
        runner.store = traced_store(store) if traced else store
        if not traced:
            outcome = runner.run(spec)
            return runner, store, outcome, outcome.summary_rows()
        with tracer.span("rep"):
            with tracer.span("runner.run"):
                outcome = runner.run(spec)
            with tracer.span("runner.summary"):
                rows = outcome.summary_rows()
        return runner, store, outcome, rows

    def verify_cold(rep: int, result: Tuple[Any, ...]) -> None:
        runner, store, outcome, rows = result
        runner.close()
        reap_children()
        out.attempted += cells
        out.check(outcome.num_simulated == cells,
                  f"cold sweep {rep}: {outcome.num_simulated}/{cells} cells simulated",
                  cells - outcome.num_simulated)
        short = sum(1 for row in rows if row[3] != jobs_per_cell)
        out.check(short == 0, f"cold sweep {rep}: {short} cells lost jobs", short)
        digest = rows_digest(rows)
        out.check(digest == digests.setdefault("rows", digest),
                  f"cold sweep {rep}: summary rows differ from the first sweep", cells)
        if "store" in last:  # only the latest populated store is re-read
            shutil.rmtree(last["store"].root, ignore_errors=True)
        last.update(outcome=outcome, rows=rows, store=store)

    budget = ctx.seconds * COLD_SHARE
    untraced_walls: Optional[Samples] = None
    if tracer is None:
        for _ in range(ctx.scale(EXTRA_BOOTS, 0)):
            boot(-1)[0].close()
            reap_children()
        cold_walls = timed_loop(cold, budget, ctx.scale(2, 1), boot, verify_cold)
    else:
        untraced_walls = timed_loop(cold, budget * 0.25, 1, boot, verify_cold)
        cold_walls = timed_loop(
            lambda arg: cold(arg, traced=True), budget * 0.75, 1, boot, verify_cold
        )

    # ---- warm re-reads ------------------------------------------------ #
    root = last["store"].root
    cold_rows = last["rows"]

    def fresh(_rep: int) -> Tuple[SweepRunner, ResultStore]:
        store = ResultStore(root)
        return SweepRunner(store=traced_store(store), jobs=WORKERS), store

    def reread(arg: Tuple[SweepRunner, ResultStore]) -> Tuple[Any, ...]:
        runner, store = arg
        if tracer is None:
            outcome = runner.run(spec)
            return runner, store, outcome, outcome.summary_rows()
        with tracer.span("pass"):
            outcome = runner.run(spec)
            rows = outcome.summary_rows()
        return runner, store, outcome, rows

    def verify_warm(rep: int, result: Tuple[Any, ...]) -> None:
        runner, store, outcome, rows = result
        runner.close()
        out.attempted += cells
        out.check(store.hits == cells and outcome.num_cached == cells,
                  f"re-read {rep}: {store.hits}/{cells} store hits",
                  cells - min(cells, store.hits))
        out.check(rows_digest(rows) == digests["rows"],
                  f"re-read {rep}: warm summary rows differ from the cold ones", cells)
        last["warm_store"] = store

    warm_walls = timed_loop(
        reread, ctx.seconds * (1.0 - COLD_SHARE), ctx.scale(20, 3), fresh, verify_warm
    )

    speedup = p75_speedup_pct(cold_rows)
    expected = load_expected(ctx.workload, ctx.seed, ctx.quick)
    if expected is not None:
        out.check(digests["rows"] == expected["digest"],
                  "summary-row digest != expected", cells)
        out.check(speedup == expected["p75_speedup_pct"],
                  f"p75 speed-up {speedup!r} != expected "
                  f"{expected['p75_speedup_pct']!r}", cells)
    disk = last["store"].disk_stats()
    out.details.update(
        digest=digests["rows"], cells=cells, jobs=total_jobs,
        cold_sweeps=cold_walls.n, rereads=warm_walls.n,
        p75_speedup_pct=speedup, store_bytes=disk.total_bytes,
    )

    if tracer is None:
        out.samples["setup_s"] = Samples(tuple(setups))
        out.samples["cold_sweep_wall_s"] = cold_walls
        out.samples["latency_p50_us"] = Samples(
            tuple(w * 1e6 for w in warm_walls.values)
        )
        out.metrics["setup_s"] = out.samples["setup_s"].median
        out.metrics["jobs_per_s"] = total_jobs / cold_walls.median
        out.metrics["latency_p50_us"] = warm_walls.median * 1e6
        shutil.rmtree(root, ignore_errors=True)
        return out

    _layers(ctx, out, spec, untraced_walls, cold_walls, warm_walls, last, speedup, disk)
    shutil.rmtree(root, ignore_errors=True)
    return out


def _layers(
    ctx: Context,
    out: Outcome,
    spec: ExperimentSpec,
    untraced_walls: Samples,
    cold_walls: Samples,
    warm_walls: Samples,
    last: Dict[str, Any],
    speedup: float,
    disk: Any,
) -> None:
    """Per-layer metrics of the traced sweeps, plus the direct probes."""
    tracer: Tracer = ctx.tracer
    cells = spec.num_cells
    total_jobs = cells * spec.trace.num_jobs
    m = out.metrics
    cold_totals = tracer.totals(under="rep")
    reps = max(1, cold_totals["rep"][0])
    warm_totals = tracer.totals(under="pass")
    passes = max(1, warm_totals["pass"][0])
    whole, whole_busy, _ = cold_totals["store.save"]
    payloads, payload_busy, _ = cold_totals["store.save_payload"]
    m["store.save_s"] = (whole_busy + payload_busy) / reps
    m["store.load_s"] = warm_totals["store.load"][1] / passes
    warm_store = last["warm_store"]
    m["store.hits"] = warm_store.hits
    m["store.mlog_hits"] = warm_store.mlog_hits
    m["store.json_hits"] = warm_store.json_hits
    m["store.migrations"] = warm_store.migrations
    m["store.bytes_per_job"] = disk.total_bytes / total_jobs
    m["sweep.reread_cells_per_s"] = cells / warm_walls.median
    m["paper.p75_speedup_pct"] = speedup

    # Which return rung each simulated cell took, read off what reached
    # the store: a payload the parent persisted came through shared
    # memory when the outcome holds attached segments and rode the pipe
    # inline otherwise; a result saved whole took the plain-pickle rung;
    # a cell the parent never saved was spilled by its worker.
    per_sweep = payloads / reps
    plain = whole / reps
    through_shm = bool(last["outcome"].transport.segment_names())
    m["transport.rung.shm"] = per_sweep if through_shm else 0.0
    m["transport.rung.inline"] = 0.0 if through_shm else per_sweep
    m["transport.rung.plain"] = plain
    m["transport.rung.stored"] = max(0.0, cells - per_sweep - plain)

    # Serial reference: every cell simulated in this process, one after
    # the other.  After the sweeps, so the forked workers above never
    # inherited the scan cache and Eq. 2 refits this warms.
    results = []
    start = perf()
    for cell in spec.expand():
        results.append(simulate_cell(cell))
    m["runner.cell_s_sum"] = perf() - start
    m["runner.parallel_efficiency"] = m["runner.cell_s_sum"] / (
        WORKERS * untraced_walls.median
    )
    _transport_probe(out, results)
    _policy_probe(out, spec)
    m.update(trace_metrics(tracer, untraced_walls.median, cold_walls.median))


def _transport_probe(out: Outcome, results: List[Any]) -> None:
    """``transport.pack_s`` / ``materialize_s`` over the grid's results.

    ``pack_result`` is what a pool worker calls on its finished cell and
    ``ArenaReader.materialize`` what the parent calls on the descriptor;
    called here back to back in one process, on the default arena.
    """
    from repro.experiments.transport import (
        ArenaReader,
        TransportConfig,
        new_run_id,
        pack_result,
    )

    config = TransportConfig(run_id=new_run_id())
    reader = ArenaReader()
    pack_s = materialize_s = 0.0
    for result in results:
        start = perf()
        handle = pack_result(result, config)
        packed = perf()
        reader.materialize(handle).log.numeric_columns()
        materialize_s += perf() - packed
        pack_s += packed - start
    reader.close()
    out.metrics["transport.pack_s"] = pack_s
    out.metrics["transport.materialize_s"] = materialize_s


def _policy_probe(out: Outcome, spec: ExperimentSpec) -> None:
    """``policies.allocate_us.*``: one decision on a single DGX-V.

    The paper's Fig. 19 overhead, on the grid trace's own multi-GPU
    requests: each is decided once on the idle server and once with
    half the GPUs taken, by the uncached batch engine so every call
    pays its scan.
    """
    from repro.policies.registry import make_policy
    from repro.scoring.effective import PAPER_MODEL
    from repro.topology.builders import by_name

    hardware = by_name("dgx1-v100")
    idle = frozenset(hardware.gpus)
    half = frozenset(sorted(hardware.gpus)[: hardware.num_gpus // 2])
    requests = [
        job.request()
        for job in spec.trace.resolve(hardware.num_gpus).build().jobs
        if 2 <= job.num_gpus <= len(half)
    ][:200]
    for name in POLICIES:
        policy = make_policy(name, PAPER_MODEL, engine="batch")
        start = perf()
        for request in requests:
            policy.allocate(request, hardware, idle)
            policy.allocate(request, hardware, half)
        out.metrics[f"policies.allocate_us.{name}"] = (
            1e6 * (perf() - start) / (2 * len(requests))
        )
