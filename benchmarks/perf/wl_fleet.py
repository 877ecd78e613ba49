"""The four fleet-replay workloads: warm FIFO, cold FIFO, backfill, sharded.

All replay a seeded scenario on ``mixed_fleet(64)`` with
``gpu_policy="preserve"`` and ``node_policy="first-fit"``.  Untraced
repetitions go through the one-call public entry points
(:func:`repro.cluster.run_cluster`, ``ShardedFleetSimulator.run``);
traced repetitions assemble the same pieces by hand — exactly what
``MultiServerSimulator.__init__`` does — so proxies can sit on the layer
boundaries.  The log digests of both must agree, which is what proves
the traced assembly measures the same program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import (
    EXTRA_BOOTS,
    Context,
    Outcome,
    Samples,
    load_expected,
    log_digest,
    mlog_digest,
    perf,
    reap_children,
    timed,
    timed_loop,
    timed_setups,
)
from tracing import Proxy, Tracer, trace_metrics

from repro.cluster import (
    MultiServerScheduler,
    ShardedFleetScheduler,
    ShardedFleetSimulator,
    run_cluster,
)
from repro.scenarios import (
    MMPPArrivals,
    PoissonArrivals,
    ScenarioSpec,
    mixed_fleet,
    paper_mix,
)
from repro.scoring.memo import ScanCache
from repro.sim.core import SimulationCore
from repro.sim.disciplines import make_discipline
from repro.sim.records import SimulationLog

FLEET_SERVERS = 64
GPU_POLICY = "preserve"
NODE_POLICY = "first-fit"

#: Bursty arrivals far above the fleet's service rate: the queue is
#: never empty after the first burst, so ~99 % of jobs wait and the
#: replay lives in the saturated regime (head-of-line retries after
#: every completion) whatever the seed.
BURSTY = MMPPArrivals(
    quiet_rate=1.0, burst_rate=20.0, quiet_dwell=300.0, burst_dwell=60.0
)

#: The backfill trace is ~100x shorter than the FIFO ones (the
#: discipline is three orders of magnitude slower), short enough that
#: an MMPP trace is mostly its *first* dwell — quiet or bursty depending
#: on the seed — and queue depth, which drives the cost super-linearly,
#: would swing with it.  A steady 10 jobs/s builds the same deep queue
#: on every seed.
STEADY = PoissonArrivals(rate=10.0)

#: Trace ``index`` of seed ``s`` is generated from ``s * FAMILY_STRIDE +
#: index``, so families of different seeds never share a trace.
FAMILY_STRIDE = 1000

#: Every Nth successful placement of a traced cold replay is kept as a
#: ``(hardware, pattern, free set before)`` state for the scan probes.
STATE_SAMPLE_EVERY = 23


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
@dataclass
class Inputs:
    """One generated scenario: the fleet description and its trace."""

    fleet: Any
    job_file: Any
    build_s: float
    fleet_build_s: float
    seed: int
    arrival: Any
    index: int

    @property
    def num_jobs(self) -> int:
        return len(self.job_file.jobs)

    def sibling(self, index: int) -> "Inputs":
        """The ``index``-th trace of this run's family (0 is ``self``)."""
        if index == self.index:
            return self
        return build_inputs(self.seed, self.num_jobs, self.arrival, index)


def build_inputs(
    seed: int, num_jobs: int, arrival: Any = BURSTY, index: int = 0
) -> Inputs:
    """Generate fleet + trace ``index`` of the seed's family (timed per layer).

    One ``--seed`` names a *family* of independent traces.  What a
    replay costs depends on which rare states its trace happens to
    reach — a 5-GPU chain landing on an idle 16-GPU DGX-2 is a single
    ~100 ms scan, a tenth of a cold replay, and only about one trace in
    eight contains one — so a run that replayed one trace over and over
    would report that trace's luck.  Repetitions therefore walk the
    family, and the median over them describes the generator, not one
    draw from it.
    """
    fleet = mixed_fleet(FLEET_SERVERS)
    spec = ScenarioSpec(
        num_jobs=num_jobs,
        seed=seed * FAMILY_STRIDE + index,
        arrival=arrival,
        mix=paper_mix(),
        name="perf",
    ).resolve(fleet.min_gpus_per_server())
    start = perf()
    job_file = spec.build()
    built = perf()
    fleet.build()
    fleet_built = perf()
    return Inputs(fleet, job_file, built - start, fleet_built - built,
                  seed, arrival, index)


# ---------------------------------------------------------------------- #
# one replay, untraced and traced
# ---------------------------------------------------------------------- #
def replay(
    inputs: Inputs, cache: Optional[ScanCache], scheduling: str, servers: Any
) -> Tuple[MultiServerScheduler, SimulationLog]:
    """The public one-call replay."""
    sim = run_cluster(
        servers,
        inputs.job_file,
        gpu_policy=GPU_POLICY,
        node_policy=NODE_POLICY,
        scheduling=scheduling,
        engine="cached",
        scan_cache=cache,
    )
    return sim.scheduler, sim.log


class PlacementTap:
    """``try_place`` pass-through that counts refusals and samples states."""

    def __init__(self, scheduler: MultiServerScheduler, keep_states: bool) -> None:
        self._scheduler = scheduler
        self._try_place = scheduler.try_place
        self._keep = keep_states
        self.calls = 0
        self.noroom = 0
        self.states: List[Tuple[Any, Any, Tuple[int, ...]]] = []

    def try_place(self, request: Any) -> Any:
        placement = self._try_place(request)
        self.calls += 1
        if placement is None:
            self.noroom += 1
        elif self._keep and self.calls % STATE_SAMPLE_EVERY == 0:
            index = placement.server_index
            free_after = self._scheduler.engines[index].state.free_sorted
            self.states.append(
                (
                    self._scheduler.hardware_for(index),
                    request.pattern,
                    tuple(sorted(free_after + tuple(placement.gpus))),
                )
            )
        return placement


class TracedDiscipline:
    """Times ``schedule`` and hands the real discipline a timed core.

    Only for the non-FIFO disciplines: the core inlines FIFO when it
    sees exactly ``FifoDiscipline``, and a stand-in would switch that
    fast path off — so FIFO replays keep the real object and report
    zero discipline activity, which is the truth.
    """

    def __init__(self, real: Any, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer
        self._core: Any = None
        self.name = real.name
        self.schedule = tracer.wrap("discipline.schedule", self._schedule)

    def _schedule(self, core: SimulationCore) -> None:
        if self._core is None:
            self._core = Proxy(
                core,
                self._tracer,
                {
                    "place": "core.place",
                    "commit": "core.commit",
                    "abort": "core.abort",
                    "try_start": "core.try_start",
                    "earliest_fit_time": "core.earliest_fit_time",
                },
            )
        self._real.schedule(self._core)


def traced_replay(
    tracer: Tracer,
    inputs: Inputs,
    cache: Optional[ScanCache],
    scheduling: str,
    servers: Any,
    keep_states: bool = False,
) -> Tuple[MultiServerScheduler, SimulationLog, PlacementTap]:
    """The same replay, assembled by hand with proxies on the seams."""
    with tracer.span("scheduler.build"):
        scheduler = MultiServerScheduler(
            servers,
            gpu_policy=GPU_POLICY,
            node_policy=NODE_POLICY,
            engine="cached",
            scan_cache=cache,
        )
    tap = PlacementTap(scheduler, keep_states)
    backend = Proxy(scheduler, tracer, {"release": "scheduler.release"})
    object.__setattr__(
        backend, "try_place", tracer.wrap("scheduler.try_place", tap.try_place)
    )
    discipline = make_discipline(scheduling)
    if scheduling != "fifo":
        discipline = TracedDiscipline(discipline, tracer)
    log = SimulationLog(
        f"{GPU_POLICY}/{NODE_POLICY}", f"cluster[{len(servers)}]"
    )
    core = SimulationCore(
        backend=backend,
        discipline=discipline,
        log=Proxy(log, tracer, {"append_fields": "records.append"}),
    )
    core.engine = Proxy(
        core.engine,
        tracer,
        {
            "pop": "engine.pop",
            "schedule_many": "engine.schedule",
            "schedule_after": "engine.schedule",
            "schedule_after_coded": "engine.schedule",
        },
    )
    with tracer.span("core.run"):
        core.run(inputs.job_file)
    return scheduler, log, tap


# ---------------------------------------------------------------------- #
# shared measurement body of the three single-process workloads
# ---------------------------------------------------------------------- #
@dataclass
class ReplayState:
    """What set-up leaves behind for the timed region."""

    inputs: Inputs
    cache: Optional[ScanCache]
    warmup_log: Optional[SimulationLog]


@dataclass
class Replays:
    """What the timed region leaves behind for metrics and probes."""

    walls: Optional[Samples] = None
    #: Traced runs only: the untraced repetitions timed beside them.
    untraced_walls: Optional[Samples] = None
    last_log: Optional[SimulationLog] = None
    last_stats: Dict[str, Any] = field(default_factory=dict)
    #: One per traced repetition.
    taps: List["PlacementTap"] = field(default_factory=list)


def _measure_replays(
    ctx: Context,
    out: Outcome,
    state: ReplayState,
    scheduling: str,
    fresh_cache: bool,
    distinct: bool,
    min_reps: int,
) -> Replays:
    """Timed repetitions + per-repetition checks.

    Untraced runs spend the whole budget on ``run_cluster``.  Traced
    runs spend a quarter of it there (the denominator of
    ``trace.overhead_ratio``) and the rest on :func:`traced_replay`.

    ``distinct`` repetitions each replay the next trace of the seed's
    family; trace 0 is then replayed twice — first repetition and an
    extra one at the end (the first *traced* one in a traced run) — and
    the two logs must be byte-identical.  Otherwise every repetition
    replays trace 0 and every log must equal the first.
    """
    base = state.inputs
    jobs = base.num_jobs
    digests: Dict[str, str] = {}
    done = Replays()
    if state.warmup_log is not None:
        digests["mlog"] = mlog_digest(state.warmup_log)
    indices = itertools.count()

    def prepare(_rep: int, index: Optional[int] = None) -> Tuple[Any, ...]:
        if index is None:
            index = next(indices) if distinct else 0
        inputs = base.sibling(index)
        cache = ScanCache() if fresh_cache else state.cache
        return inputs, inputs.fleet.build(), cache

    def verify(rep: int, result: Tuple[Any, ...]) -> None:
        inputs, scheduler, log = result[:3]
        out.attempted += jobs
        out.check(len(log) == jobs, f"rep {rep}: {len(log)}/{jobs} jobs completed",
                  jobs - len(log))
        try:
            scheduler.check_index()
        except Exception as exc:  # the index check raises on any drift
            out.check(False, f"rep {rep}: candidate index drifted: {exc}", jobs)
        if inputs.index == 0:
            digest = mlog_digest(log)
            out.check(digest == digests.setdefault("mlog", digest),
                      f"rep {rep}: trace 0 replayed to a different log", jobs)
            if "canonical" not in digests:
                digests["canonical"] = log_digest(log)
        done.last_log = log
        done.last_stats = dict(log.cache_stats or {})
        if len(result) > 3:
            done.taps.append(result[3])

    def plain(arg: Tuple[Any, ...]) -> Tuple[Any, ...]:
        inputs, servers, cache = arg
        return (inputs,) + replay(inputs, cache, scheduling, servers)

    if not ctx.traced:
        done.walls = timed_loop(plain, ctx.seconds, min_reps, prepare, verify)
        if distinct:
            verify(-1, plain(prepare(-1, index=0)))
    else:
        tracer = ctx.tracer

        def traced(arg: Tuple[Any, ...]) -> Tuple[Any, ...]:
            inputs, servers, cache = arg
            with tracer.span("rep"):
                return (inputs,) + traced_replay(
                    tracer, inputs, cache, scheduling, servers,
                    keep_states=fresh_cache,
                )

        done.untraced_walls = timed_loop(
            plain, ctx.seconds * 0.25, 1, prepare, verify
        )
        done.walls = timed_loop(
            traced, ctx.seconds * 0.75, 1,
            lambda rep: prepare(rep, index=0 if rep == 0 else None), verify,
        )

    expected = load_expected(ctx.workload, ctx.seed, ctx.quick)
    if expected is not None:
        out.check(
            digests.get("canonical") == expected["digest"],
            f"log digest {digests.get('canonical', '')[:12]} != expected "
            f"{expected['digest'][:12]}",
            jobs,
        )
    out.details["digest"] = digests.get("canonical")
    out.details["jobs"] = jobs
    out.details["reps"] = done.walls.n
    return done


def _end_to_end(out: Outcome, setups: Samples, walls: Samples, jobs: int) -> None:
    """The metrics a caller of the replay API sees."""
    out.samples["setup_s"] = setups
    out.samples["replay_wall_s"] = walls
    out.metrics["setup_s"] = setups.median
    out.metrics["jobs_per_s"] = jobs / walls.median
    out.metrics["latency_p50_us"] = walls.median * 1e6


def replay_layers(
    ctx: Context, out: Outcome, done: Replays, inputs: Inputs
) -> None:
    """Per-layer metrics of the traced repetitions, per repetition."""
    tracer: Tracer = ctx.tracer
    totals = tracer.totals(under="rep")
    reps = max(1, totals["rep"][0])
    rep_wall = totals["rep"][1]

    def calls(name: str) -> float:
        return totals[name][0] / reps

    def busy(name: str) -> float:
        return totals[name][1] / reps

    def self_s(name: str) -> float:
        return totals[name][2] / reps

    m = out.metrics
    m["scenarios.build_s"] = inputs.build_s
    m["scenarios.fleet_build_s"] = inputs.fleet_build_s
    events = calls("engine.pop")
    engine_busy = busy("engine.pop") + busy("engine.schedule")
    m["engine.events"] = events
    m["engine.busy_s"] = engine_busy
    m["engine.us_per_event"] = 1e6 * engine_busy / events if events else 0.0
    toolkit = ("core.place", "core.commit", "core.abort", "core.try_start",
               "core.earliest_fit_time")
    core_self = self_s("core.run") + sum(self_s(name) for name in toolkit)
    m["core.self_s"] = core_self
    m["core.self_share"] = core_self * reps / rep_wall if rep_wall else 0.0
    attempts = calls("core.place") + calls("core.try_start")
    m["discipline.schedule_calls"] = calls("discipline.schedule")
    m["discipline.self_s"] = self_s("discipline.schedule")
    m["discipline.place_attempts"] = attempts
    m["discipline.aborts"] = calls("core.abort")
    m["discipline.commit_ratio"] = inputs.num_jobs / attempts if attempts else 0.0
    m["discipline.earliest_fit_calls"] = calls("core.earliest_fit_time")
    m["scheduler.try_place_calls"] = calls("scheduler.try_place")
    m["scheduler.try_place_s"] = busy("scheduler.try_place")
    m["scheduler.release_calls"] = calls("scheduler.release")
    m["scheduler.release_s"] = busy("scheduler.release")
    placed = sum(tap.calls for tap in done.taps)
    m["scheduler.noroom_ratio"] = (
        sum(tap.noroom for tap in done.taps) / placed if placed else 0.0
    )
    appends = calls("records.append")
    m["records.append_us"] = (
        1e6 * busy("records.append") / appends if appends else 0.0
    )
    stats = done.last_stats
    m["scan.lookups"] = stats.get("scan_lookups", 0)
    m["scan.hits"] = stats.get("scan_hits", 0)
    m["scan.misses"] = stats.get("scan_misses", 0)
    m["scan.hit_rate"] = stats.get("scan_hit_rate", 0.0)
    bw_lookups = stats.get("measured_bw_lookups", 0)
    m["measured_bw.hit_rate"] = (
        stats.get("measured_bw_hits", 0) / bw_lookups if bw_lookups else 0.0
    )
    m.update(trace_metrics(tracer, done.untraced_walls.median, done.walls.median))


# ---------------------------------------------------------------------- #
# the workloads
# ---------------------------------------------------------------------- #
def _single_process(
    ctx: Context,
    num_jobs: int,
    scheduling: str,
    arrival: Any,
    warm: bool,
    distinct: bool,
    setup_repeats: int,
    min_reps: int,
    probes: Optional[Callable[[Context, Outcome, Replays, ReplayState], None]],
) -> Outcome:
    out = Outcome()

    def setup() -> ReplayState:
        inputs = build_inputs(ctx.seed, num_jobs, arrival)
        if not warm:
            return ReplayState(inputs, None, None)
        cache = ScanCache()
        _, log = replay(inputs, cache, scheduling, inputs.fleet.build())
        return ReplayState(inputs, cache, log)

    repeats = 1 if ctx.traced else ctx.scale(setup_repeats, 1)
    setups, state = timed_setups(setup, repeats)
    done = _measure_replays(
        ctx, out, state, scheduling,
        fresh_cache=not warm, distinct=distinct, min_reps=ctx.scale(min_reps, 2),
    )
    if ctx.traced:
        replay_layers(ctx, out, done, state.inputs)
        if probes is not None:
            probes(ctx, out, done, state)
    else:
        _end_to_end(out, setups, done.walls, state.inputs.num_jobs)
    return out


def fleet_fifo_warm(ctx: Context) -> Outcome:
    """FIFO on a ScanCache warmed by one untimed replay of the same trace.

    The one workload whose repetitions all replay trace 0: a warm
    replay is only warm for the trace that warmed the cache, and a
    20 000-job warm-up per repetition would not fit the run.
    """
    import probes

    out = _single_process(
        ctx,
        num_jobs=ctx.scale(20_000, 300),
        scheduling="fifo",
        arrival=BURSTY,
        warm=True,
        distinct=False,
        setup_repeats=3,
        min_reps=5,
        probes=probes.warm_replay_probes,
    )
    if ctx.traced:
        # The decision memo re-commits every winner; a single scan
        # lookup on a warm replay means the memo stopped covering it.
        out.check(out.metrics["scan.lookups"] == 0,
                  f"warm replay made {out.metrics['scan.lookups']} scan lookups")
    return out


def fleet_fifo_cold(ctx: Context) -> Outcome:
    """FIFO with a fresh ScanCache per replay: first-contact cost."""
    import probes

    return _single_process(
        ctx,
        num_jobs=ctx.scale(10_000, 300),
        scheduling="fifo",
        arrival=BURSTY,
        warm=False,
        distinct=True,
        setup_repeats=15,
        min_reps=3,
        probes=probes.cold_replay_probes,
    )


def fleet_backfill(ctx: Context) -> Outcome:
    """EASY backfilling: the generic discipline path of the same core.

    One ScanCache serves every repetition (warmed on trace 0 in set-up,
    warmer with each trace after), so scans stay a minority of the wall
    and the discipline's own work is what is measured.
    """
    return _single_process(
        ctx,
        num_jobs=ctx.scale(800, 60),
        scheduling="easy-backfill",
        arrival=STEADY,
        warm=True,
        distinct=True,
        setup_repeats=3,
        min_reps=3,
        probes=None,
    )


def fleet_sharded(ctx: Context) -> Outcome:
    """The cold-FIFO trace through two scheduler shard processes.

    Every repetition boots a fresh :class:`ShardedFleetScheduler`
    (fork, shared-memory publish, shard init — the set-up sample) and
    times one ``ShardedFleetSimulator.run``.
    """
    out = Outcome()
    num_jobs = ctx.scale(10_000, 300)
    tracer: Optional[Tracer] = ctx.tracer
    boots: List[float] = []
    digests: Dict[str, str] = {}
    indices = itertools.count()

    def boot(_rep: int, index: Optional[int] = None) -> Tuple[Inputs, ShardedFleetScheduler]:
        if index is None:
            index = next(indices)

        def build() -> Tuple[Inputs, ShardedFleetScheduler]:
            inputs = build_inputs(ctx.seed, num_jobs, index=index)
            scheduler = ShardedFleetScheduler(
                inputs.fleet,
                2,
                gpu_policy=GPU_POLICY,
                node_policy=NODE_POLICY,
                engine="cached",
                mode="process",
            )
            return inputs, scheduler

        wall, state = timed(build)
        boots.append(wall)
        return state

    def plain(state: Tuple[Inputs, ShardedFleetScheduler]) -> Tuple[Any, ...]:
        inputs, scheduler = state
        log = ShardedFleetSimulator(scheduler).run(inputs.job_file)
        return scheduler, log, inputs

    def traced(state: Tuple[Inputs, ShardedFleetScheduler]) -> Tuple[Any, ...]:
        inputs, scheduler = state
        front = Proxy(
            scheduler,
            tracer,
            {
                "route": "sharding.route",
                "dispatch_place": "sharding.dispatch",
                "dispatch_release": "sharding.dispatch",
                "flush": "sharding.flush",
                "shard_stats": "sharding.stats",
            },
        )
        with tracer.span("rep"):
            with tracer.span("sharding.run"):
                log = ShardedFleetSimulator(front).run(inputs.job_file)
        return scheduler, log, inputs

    def verify(rep: int, result: Tuple[Any, ...]) -> None:
        scheduler, log, inputs = result
        out.attempted += num_jobs
        try:
            out.check(len(log) == num_jobs,
                      f"rep {rep}: {len(log)}/{num_jobs} jobs completed",
                      num_jobs - len(log))
            try:
                scheduler.check_mirror()
            except RuntimeError as exc:
                out.check(False, f"rep {rep}: shard mirror drifted: {exc}", num_jobs)
            if inputs.index == 0:
                digest = mlog_digest(log)
                out.check(digest == digests.setdefault("mlog", digest),
                          f"rep {rep}: trace 0 replayed to a different log", num_jobs)
            if inputs.index == 0 and "canonical" not in digests:
                digests["canonical"] = log_digest(log)
                # Same trace, one process: sharding must not change a byte.
                _, single = replay(inputs, ScanCache(), "fifo", inputs.fleet.build())
                out.check(mlog_digest(single) == digest,
                          "sharded log differs from the single-process replay",
                          num_jobs)
        finally:
            scheduler.close()
            reap_children()

    if not ctx.traced:
        for _ in range(ctx.scale(EXTRA_BOOTS, 0)):
            boot(-1, index=0)[1].close()
            reap_children()
        walls = timed_loop(plain, ctx.seconds, ctx.scale(3, 2), boot, verify)
    else:
        untraced_walls = timed_loop(plain, ctx.seconds * 0.25, 1, boot, verify)
        walls = timed_loop(
            traced, ctx.seconds * 0.75, 1,
            lambda rep: boot(rep, index=0 if rep == 0 else None), verify,
        )

    expected = load_expected(ctx.workload, ctx.seed, ctx.quick)
    if expected is not None:
        out.check(digests.get("canonical") == expected["digest"],
                  "sharded log digest != expected", num_jobs)
    out.details.update(digest=digests.get("canonical"), jobs=num_jobs, reps=walls.n)

    if not ctx.traced:
        _end_to_end(out, Samples(tuple(boots)), walls, num_jobs)
        return out

    totals = tracer.totals(under="rep")
    reps = max(1, totals["rep"][0])
    flush_calls, flush_busy, _ = totals["sharding.flush"]
    dispatches = totals["sharding.dispatch"][0]
    m = out.metrics
    m["sharding.boot_s"] = Samples(tuple(boots)).median
    m["sharding.flushes"] = flush_calls / reps
    m["sharding.ops_per_flush"] = dispatches / flush_calls if flush_calls else 0.0
    m["sharding.flush_s"] = flush_busy / reps
    m["sharding.parent_self_s"] = totals["sharding.run"][2] / reps
    # The traces the untraced sharded repetitions replayed, one process.
    inputs = build_inputs(ctx.seed, num_jobs)
    single = timed_loop(
        lambda trace: replay(trace, ScanCache(), "fifo", trace.fleet.build()),
        0.0, untraced_walls.n, inputs.sibling,
    )
    m["sharding.scaling_vs_single"] = single.median / untraced_walls.median
    m["scenarios.build_s"] = inputs.build_s
    m["scenarios.fleet_build_s"] = inputs.fleet_build_s
    m.update(trace_metrics(tracer, untraced_walls.median, walls.median))
    return out
