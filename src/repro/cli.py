"""Command-line interface: ``mapa`` (or ``python -m repro``).

Subcommands
-----------
``topos``
    List registered server topologies.
``alloc``
    Allocate one pattern on an idle server and print the decision.
``trace``
    Generate (or load) a job trace, simulate all four policies and print
    the Table-3-style summary.
``fit``
    Fit the Eq. 2 effective-bandwidth model for a topology and print the
    coefficients next to the paper's.
``sweep``
    Expand a declarative topology×policy×discipline grid, simulate the
    cells in parallel worker processes with content-hash result caching,
    and print a per-cell summary (table, JSON or CSV).
``scenario``
    Generate a seeded stochastic scenario (Poisson / diurnal / MMPP
    arrivals × a workload/GPU-size mix), then describe it, export it as
    a CSV trace, replay it on a heterogeneous multi-server fleet, or
    sweep it through the cached experiment grid exactly like a paper
    trace.
``cache``
    Inspect or clear the on-disk cache (sweep cells and spilled scan
    partitions: file counts, bytes, orphaned debris), or
    exercise the persistent scan tier — ``spill`` populates it from a
    cold replay, ``warm`` warm-starts a replay from it and reports the
    first-pass hit rate.  In-memory scan-cache hit/miss statistics are
    embedded directly in the output of the runs that use it (``trace``,
    ``scenario --fleet``).  ``--shards N`` runs the tier replay through
    the sharded scheduler instead, one scan cache per shard.
``fleet``
    Sharded fleet-scale replay: partition a heterogeneous fleet into N
    multi-process scheduler shards sharing one read-only topology
    segment, replay a deterministic scenario, and print throughput, the
    canonical log digest, and aggregate plus per-shard cache counters.
``serve``
    Run the allocation daemon: a MAPA scheduler (single or sharded)
    behind a unix socket or TCP port speaking newline-delimited JSON,
    with admission control, request batching and graceful drain into
    the persistent scan tier.  ``--bench`` self-hosts a daemon and
    reports sustained requests/sec.
``client``
    One request against a running daemon: submit/release/query a job,
    fetch the live metrics snapshot, or drain the daemon.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.tables import format_table
from .appgraph import patterns
from .allocator.mapa import Mapa
from .policies.base import AllocationRequest
from .policies.registry import POLICY_NAMES, make_policy
from .policies.scan import SCAN_ENGINES
from .scoring.effective import FEATURE_NAMES, PAPER_COEFFICIENTS
from .scoring.regression import fit_for_hardware
from .sim.cluster import run_all_policies
from .sim.disciplines import DISCIPLINES
from .sim.metrics import TABLE3_QUANTILES, speedup_summary
from .topology.builders import TOPOLOGY_BUILDERS, by_name
from .workloads.generator import generate_job_file
from .workloads.jobs import JobFile


def _cmd_topos(_: argparse.Namespace) -> int:
    """``mapa topos``: print the registered server topologies."""
    rows = []
    for name in sorted(TOPOLOGY_BUILDERS):
        hw = by_name(name)
        rows.append(
            [
                name,
                hw.num_gpus,
                sum(1 for _ in hw.nvlink_links()),
                f"{hw.aggregate_bandwidth():.0f}",
            ]
        )
    print(
        format_table(
            ["topology", "gpus", "nvlinks", "total BW (GB/s)"], rows,
            title="Registered server topologies",
        )
    )
    return 0


def _cmd_alloc(args: argparse.Namespace) -> int:
    """``mapa alloc``: one allocation on an idle server, scores printed."""
    hw = by_name(args.topology)
    policy = make_policy(args.policy)
    mapa = Mapa(hw, policy)
    pattern = patterns.by_name(args.pattern, args.gpus)
    request = AllocationRequest(
        pattern=pattern, bandwidth_sensitive=not args.insensitive
    )
    allocation = mapa.try_allocate(request)
    if allocation is None:
        print("allocation failed: not enough free GPUs")
        return 1
    print(f"policy     : {policy.name}")
    print(f"topology   : {hw.name}")
    print(f"pattern    : {pattern.name} ({args.gpus} GPUs)")
    print(f"allocation : {allocation.gpus}")
    for key, value in sorted(allocation.scores.items()):
        print(f"  {key:<14}= {value:.3f}")
    return 0


def _scan_cache_line(stats) -> Optional[str]:
    """One-line summary of a run's embedded scan-cache statistics."""
    if not stats or "scan_lookups" not in stats or not stats["scan_lookups"]:
        return None
    return (
        f"{100.0 * stats['scan_hit_rate']:.1f}% hits "
        f"({stats['scan_hits']:.0f}/{stats['scan_lookups']:.0f} lookups, "
        f"{stats['scan_misses']:.0f} misses, "
        f"{stats['scan_evictions']:.0f} evictions)"
    )


def _per_shard_cache_rows(stats) -> List[List[str]]:
    """Per-shard scan-cache rows for a sharded replay's summary table."""
    rows: List[List[str]] = []
    for i, shard in enumerate((stats or {}).get("per_shard", ())):
        line = _scan_cache_line(shard)
        if line is not None:
            rows.append([f"scan cache [shard {i}]", line])
    return rows


def _cmd_trace(args: argparse.Namespace) -> int:
    """``mapa trace``: simulate a trace under all four policies."""
    hw = by_name(args.topology)
    if args.jobfile:
        job_file = JobFile.load(args.jobfile)
    else:
        job_file = generate_job_file(
            num_jobs=args.jobs, seed=args.seed, max_gpus=min(5, hw.num_gpus)
        )
    model, _, _ = fit_for_hardware(hw)
    logs = run_all_policies(hw, job_file, model, scheduling=args.scheduling)
    summaries = speedup_summary(logs)
    headers = ["Policy"] + [name for name, _ in TABLE3_QUANTILES] + ["Tput"]
    rows = [[s.policy] + [f"{v:.3f}" for v in s.row()] for s in summaries]
    print(
        format_table(
            headers,
            rows,
            title=(
                f"Normalized speedup vs baseline — {hw.name}, "
                f"{len(job_file)} jobs ({args.scheduling}, sensitive jobs)"
            ),
        )
    )
    for name, log in logs.items():
        line = _scan_cache_line(log.cache_stats)
        if line is not None:
            print(f"scan cache [{name}]: {line}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """``mapa cluster``: compare node policies on a server fleet."""
    import numpy as np

    from .cluster import NODE_POLICIES, run_cluster

    servers = [by_name(name) for name in args.servers]
    job_file = generate_job_file(
        num_jobs=args.jobs,
        seed=args.seed,
        max_gpus=min(5, min(hw.num_gpus for hw in servers)),
    )
    rows = []
    for node_policy in NODE_POLICIES:
        sim = run_cluster(
            servers,
            job_file,
            gpu_policy=args.policy,
            node_policy=node_policy,
            scheduling=args.scheduling,
        )
        sens = [r for r in sim.log.sensitive() if r.num_gpus > 1]
        mean_bw = float(np.mean([r.measured_effective_bw for r in sens])) if sens else 0.0
        rows.append(
            [
                node_policy,
                f"{sim.log.makespan:.0f}",
                f"{mean_bw:.1f}",
                " ".join(str(v) for v in sim.jobs_per_server().values()),
            ]
        )
    print(
        format_table(
            ["node policy", "makespan (s)", "mean sens. EffBW", "jobs/server"],
            rows,
            title=(
                f"Cluster of {len(servers)} servers "
                f"({', '.join(hw.name for hw in servers)}), "
                f"{len(job_file)} jobs, {args.policy} inside nodes, "
                f"{args.scheduling} queue"
            ),
        )
    )
    return 0


def _run_sweep(args: argparse.Namespace, trace, trace_label: str) -> int:
    """Shared sweep driver: grid × ``trace`` with caching and export.

    Both ``mapa sweep`` (paper-style :class:`TraceSpec`) and
    ``mapa scenario --grid`` (generated :class:`ScenarioSpec`) land
    here — generated scenarios sweep, cache and export through exactly
    the machinery paper traces use.
    """
    import json

    from .analysis.export import sweep_to_csv
    from .experiments import (
        SUMMARY_COLUMNS,
        ResultStore,
        SweepRunner,
        default_cache_dir,
        parse_grid,
    )

    try:
        spec = parse_grid(args.grid, trace=trace, model=args.model)
        runner = SweepRunner(
            store=(
                None
                if args.no_cache
                else ResultStore(args.cache_dir or default_cache_dir())
            ),
            jobs=args.workers,
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    outcome = runner.run(spec)
    rows = outcome.summary_rows()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "cells": [
                        dict(zip(SUMMARY_COLUMNS, row)) for row in rows
                    ],
                    "num_cells": outcome.num_cells,
                    "num_cached": outcome.num_cached,
                    "num_simulated": outcome.num_simulated,
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        print(sweep_to_csv(outcome), end="")
    else:
        from .analysis.tables import format_sweep_summary

        print(
            format_sweep_summary(
                outcome,
                title=(
                    f"Sweep: {len(spec.topologies)} topologies × "
                    f"{len(spec.policies)} policies × "
                    f"{len(spec.disciplines)} disciplines, "
                    f"{trace_label}"
                ),
            )
        )
    print(
        f"sweep: {outcome.num_cells} cells, {outcome.num_cached} cached, "
        f"{outcome.num_simulated} simulated "
        f"({args.workers} worker{'s' if args.workers != 1 else ''}, "
        f"{outcome.elapsed:.1f}s)",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``mapa sweep``: run a cached, parallel experiment grid."""
    from .experiments import TraceSpec

    args.workers = args.jobs
    try:
        trace = TraceSpec(
            num_jobs=args.trace_jobs, seed=args.seed, max_gpus=args.max_gpus
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    return _run_sweep(
        args, trace, f"{args.trace_jobs}-job trace (seed {args.seed})"
    )


def _build_arrival(args: argparse.Namespace):
    """The arrival process selected by the ``scenario`` flags."""
    from .scenarios import (
        BatchArrivals,
        DiurnalArrivals,
        MMPPArrivals,
        PoissonArrivals,
    )

    if args.arrival == "batch":
        return BatchArrivals()
    if args.arrival == "poisson":
        return PoissonArrivals(rate=args.rate)
    if args.arrival == "diurnal":
        return DiurnalArrivals(
            base_rate=args.rate, peak_rate=args.peak_rate, period=args.period
        )
    return MMPPArrivals(
        quiet_rate=args.quiet_rate,
        burst_rate=args.burst_rate,
        quiet_dwell=args.quiet_dwell,
        burst_dwell=args.burst_dwell,
    )


def _scenario_fleet_replay(args: argparse.Namespace, spec) -> int:
    """Replay a scenario on a heterogeneous fleet; print the summary."""
    import numpy as np

    from .cluster import run_cluster
    from .scenarios import FleetSpec

    fleet = FleetSpec.parse(args.fleet)
    resolved = spec.resolve(fleet.min_gpus_per_server())
    job_file = resolved.build()
    if args.output:
        # Export exactly the (size-resolved) trace the replay consumes.
        job_file.save(args.output)
        print(f"trace written to {args.output}")
    if args.shards:
        from .cluster import (
            SHARDABLE_NODE_POLICIES,
            ShardedFleetScheduler,
            ShardedFleetSimulator,
        )

        if args.scheduling != "fifo":
            raise ValueError(
                "--shards replays dispatch FIFO only; drop --scheduling"
            )
        if args.node_policy not in SHARDABLE_NODE_POLICIES:
            raise ValueError(
                f"node policy {args.node_policy!r} cannot be sharded; "
                f"shardable: {', '.join(SHARDABLE_NODE_POLICIES)}"
            )
        with ShardedFleetScheduler(
            fleet,
            args.shards,
            gpu_policy=args.policy,
            node_policy=args.node_policy,
        ) as scheduler:
            fleet_sim = ShardedFleetSimulator(scheduler)
            log = fleet_sim.run(job_file, dynamics=resolved.dynamics)
            per_server = fleet_sim.jobs_per_server()
    else:
        sim = run_cluster(
            fleet.build(),
            job_file,
            gpu_policy=args.policy,
            node_policy=args.node_policy,
            scheduling=args.scheduling,
            dynamics=resolved.dynamics,
        )
        log = sim.log
        per_server = sim.jobs_per_server()
    waits = [r.wait_time for r in log.records]
    sens = [r.measured_effective_bw for r in log.sensitive() if r.num_gpus > 1]
    rows = [
        ["servers", f"{fleet.num_servers} ({fleet.label()})"],
        ["jobs", str(len(log))],
        ["makespan (s)", f"{log.makespan:.1f}"],
        ["mean wait (s)", f"{float(np.mean(waits)):.1f}" if waits else "0.0"],
        ["jobs/h", f"{3600.0 * log.throughput:.1f}"],
        ["mean sens. EffBW", f"{float(np.mean(sens)):.1f}" if sens else "0.0"],
        ["busiest server", str(max(per_server.values(), default=0))],
        [
            "idlest server",
            str(min(per_server.get(i, 0) for i in range(fleet.num_servers))),
        ],
    ]
    if resolved.dynamics is not None and not resolved.dynamics.is_empty():
        rows.insert(1, ["dynamics", resolved.dynamics.describe()])
    if args.shards:
        rows.insert(1, ["shards", str(args.shards)])
    cache_line = _scan_cache_line(log.cache_stats)
    if cache_line is not None:
        rows.append(["scan cache", cache_line])
    rows.extend(_per_shard_cache_rows(log.cache_stats))
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"Scenario fleet replay — {resolved.describe()}",
        )
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """``mapa scenario``: generate, export, replay or sweep a scenario."""
    from collections import Counter

    from .scenarios import DynamicsSpec, ScenarioSpec, mix_by_name

    try:
        dynamics = (
            DynamicsSpec.parse(args.dynamics) if args.dynamics else None
        )
        spec = ScenarioSpec(
            num_jobs=args.num_jobs,
            seed=args.seed,
            arrival=_build_arrival(args),
            mix=mix_by_name(args.mix),
            name=f"{args.mix}/{args.arrival}",
            dynamics=dynamics,
        )
    except ValueError as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2
    if args.grid is not None:
        if args.output:
            # The grid resolves the trace per topology, so there is no
            # single trace to export — reject instead of silently
            # ignoring the flag.
            print(
                "scenario: --output cannot be combined with --grid "
                "(each grid topology resolves its own trace; use "
                "--output without --grid to export)",
                file=sys.stderr,
            )
            return 2
        if args.fleet:
            # Sweeps run single-server cells over the grid's topology
            # axis; a fleet replay is a different mode entirely.
            print(
                "scenario: --fleet cannot be combined with --grid "
                "(sweep topologies come from the grid's topology axis; "
                "drop --grid for a fleet replay)",
                file=sys.stderr,
            )
            return 2
        return _run_sweep(
            args,
            spec,
            f"{args.num_jobs}-job {spec.name} scenario (seed {args.seed})",
        )
    if args.shards and not args.fleet:
        print(
            "scenario: --shards requires --fleet (shards partition a "
            "multi-server fleet)",
            file=sys.stderr,
        )
        return 2
    if args.fleet:
        try:
            return _scenario_fleet_replay(args, spec)
        except ValueError as exc:
            print(f"scenario: {exc}", file=sys.stderr)
            return 2
    job_file = spec.build()
    if args.output:
        job_file.save(args.output)
        print(f"trace written to {args.output}")
        return 0
    submits = [j.submit_time for j in job_file]
    span = submits[-1] - submits[0] if len(submits) > 1 else 0.0
    counts = Counter(j.workload for j in job_file)
    sizes = Counter(j.num_gpus for j in job_file)
    rows = [
        ["jobs", str(len(job_file))],
        ["arrival span (s)", f"{span:.1f}"],
        [
            "observed rate (jobs/s)",
            f"{(len(job_file) - 1) / span:.4f}" if span > 0 else "batch",
        ],
        [
            "GPU sizes",
            " ".join(f"{s}:{sizes[s]}" for s in sorted(sizes)),
        ],
        [
            "top workloads",
            " ".join(f"{w}:{c}" for w, c in counts.most_common(4)),
        ],
    ]
    print(
        format_table(
            ["metric", "value"], rows, title=f"Scenario — {spec.describe()}"
        )
    )
    return 0


def _cache_tier_replay(args: argparse.Namespace, store) -> int:
    """``mapa cache warm|spill``: exercise the persistent scan tier.

    ``spill`` replays a scenario cold and writes the resulting scan
    winners to the tier (populating it); ``warm`` warm-starts a fresh
    cache from the tier before replaying and reports the first-pass hit
    rate (validating it).  Both replay the same deterministic scenario
    for a given (fleet, jobs, seed), so a ``spill`` followed by a
    ``warm`` demonstrates the cross-process reuse end to end.

    With ``--shards N`` the replay runs through the sharded scheduler:
    every shard owns a scan cache attached to the same on-disk tier
    (content-addressed keys make concurrent population safe), ``warm``
    warm-starts each shard from it, and ``spill`` writes every shard's
    winners back.
    """
    import time as _time

    from .cluster import run_cluster
    from .experiments.spill import ScanSpillStore
    from .scenarios import FleetSpec, MMPPArrivals, ScenarioSpec
    from .scoring.memo import ScanCache

    try:
        fleet = FleetSpec.parse(args.fleet)
    except ValueError as exc:
        print(f"cache: {exc}", file=sys.stderr)
        return 2
    spec = ScenarioSpec(
        num_jobs=args.jobs,
        seed=args.seed,
        arrival=MMPPArrivals(),
        name="cache-tier",
    ).resolve(fleet.min_gpus_per_server())
    job_file = spec.build()
    spill = ScanSpillStore(store.root)
    written: Optional[int] = None
    started = _time.perf_counter()
    if args.shards:
        from .cluster import ShardedFleetScheduler, ShardedFleetSimulator

        # Sharded tier replay: every shard owns a scan cache keyed by
        # the same content-addressed wiring hashes, so they all load
        # from — and spill into — the one on-disk tier.
        with ShardedFleetScheduler(
            fleet,
            args.shards,
            gpu_policy=args.policy,
            scan_spill_root=store.root,
        ) as scheduler:
            log = ShardedFleetSimulator(scheduler).run(job_file)
            if args.action == "spill":
                written = scheduler.spill_scan_cache()
    else:
        cache = ScanCache()
        sim = run_cluster(
            fleet.build(),
            job_file,
            gpu_policy=args.policy,
            scan_cache=cache,
            scan_spill=spill if args.action == "warm" else None,
        )
        log = sim.log
        if args.action == "spill":
            written = spill.spill(cache)
    wall = _time.perf_counter() - started
    stats = log.cache_stats or {}
    rows = [
        ["tier dir", spill.scan_root],
        ["fleet", f"{fleet.num_servers} servers ({fleet.label()})"],
        ["jobs replayed", str(args.jobs)],
        ["replay wall (s)", f"{wall:.2f}"],
        [
            "scan hit rate",
            f"{100.0 * float(stats.get('scan_hit_rate', 0.0)):.1f}%",
        ],
    ]
    if args.shards:
        rows.insert(2, ["shards", str(args.shards)])
        rows.extend(_per_shard_cache_rows(stats))
    if args.action == "spill":
        rows.append(["tier entries written", str(written)])
        title = "Scan tier — spilled from a cold replay"
    else:
        title = "Scan tier — warm-started replay"
    print(format_table(["metric", "value"], rows, title=title))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """``mapa cache``: inspect, exercise or clear the on-disk caches."""
    from .experiments import ResultStore, default_cache_dir

    store = ResultStore(args.cache_dir or default_cache_dir())
    if args.action in ("warm", "spill"):
        return _cache_tier_replay(args, store)
    if args.action == "stats":
        stats = store.disk_stats()
        rows = [
            ["cache dir", store.root],
            ["sweep entries", str(stats.entries)],
            [
                "sweep entry bytes",
                f"{stats.total_bytes} ({stats.total_mib:.2f} MiB)",
            ],
            ["scan partitions", str(stats.scan_entries)],
            [
                "scan partition bytes",
                f"{stats.scan_bytes} ({stats.scan_mib:.2f} MiB)",
            ],
            ["orphaned files", str(stats.orphans)],
            ["orphaned bytes", str(stats.orphan_bytes)],
        ]
        if stats.scan_entries:
            valid, corrupt = store.content.verify("scan")
            rows.append(
                ["scan partition audit", f"{valid} valid, {corrupt} corrupt"]
            )
        print(
            format_table(
                ["metric", "value"], rows, title="Sweep result cache (on disk)"
            )
        )
        print(
            "note: scan partitions are the persistent scan-cache tier "
            "(`mapa cache spill` populates it, `mapa cache warm` "
            "validates it); in-memory hit/miss counters are embedded in "
            "run output (`mapa trace`, `mapa scenario --fleet`)."
        )
        return 0
    guard = {} if args.tmp_age is None else {"tmp_age": args.tmp_age}
    removed, freed = store.content.clear(orphans=args.orphans, **guard)
    what = "orphaned file(s)" if args.orphans else "file(s)"
    print(f"removed {removed} {what} ({freed} bytes) from {store.root}")
    return 0


def _serve_config(args: argparse.Namespace):
    """A :class:`~repro.serve.DaemonConfig` from ``mapa serve`` flags."""
    from .serve import DaemonConfig

    return DaemonConfig(
        fleet=args.fleet,
        shards=args.shards,
        gpu_policy=args.policy,
        node_policy=args.node_policy,
        queue_limit=args.queue_limit,
        flush_window=args.flush_window,
        quota_gpus=args.quota_gpus,
        quota_requests=args.quota_requests,
        spill_root=args.spill_dir,
        metrics_json=args.metrics_json,
        drain_grace=args.drain_grace,
        shard_mode=args.mode,
    )


def _serve_bench(args: argparse.Namespace) -> int:
    """``mapa serve --bench``: self-hosted load run, prints req/s."""
    import tempfile

    from .serve import (
        AllocationClient,
        bench_jobs,
        run_load,
        start_daemon_thread,
    )

    with tempfile.TemporaryDirectory(prefix="mapa-serve-") as tmp:
        socket_path = args.socket or os.path.join(tmp, "mapa.sock")
        handle = start_daemon_thread(
            _serve_config(args), socket_path=socket_path
        )
        jobs = bench_jobs(args.bench_jobs, seed=args.seed, fleet=args.fleet)
        with AllocationClient(socket_path=socket_path) as client:
            report = run_load(
                client,
                jobs,
                window=args.bench_window,
                max_active=args.bench_active,
            )
            stats = client.stats()
            summary = client.drain()
        handle.join(timeout=60)
    counters = stats["counters"]
    rows = [
        ["fleet", args.fleet],
        ["backend", f"{args.shards} shards" if args.shards else "single"],
        ["jobs submitted", str(report.submitted)],
        ["requests (incl. releases)", str(report.requests)],
        ["allocated / noroom", f"{report.allocated} / {report.noroom}"],
        ["duration (s)", f"{report.duration:.2f}"],
        ["requests/sec", f"{report.requests_per_sec:.0f}"],
        ["dispatches", str(counters["dispatches"])],
        ["batched dispatches", str(counters["batched_dispatches"])],
        ["max batch", str(counters["max_batch"])],
        ["spilled entries", str(summary.get("spilled_entries", 0))],
    ]
    line = _scan_cache_line(stats.get("cache"))
    if line is not None:
        rows.append(["scan cache", line])
    print(format_table(["metric", "value"], rows, title="Serve bench"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``mapa serve``: run the allocation daemon in the foreground."""
    import asyncio
    import signal

    if args.bench:
        return _serve_bench(args)
    if (args.socket is None) == (args.port is None):
        print("serve: exactly one of --socket/--port is required",
              file=sys.stderr)
        return 2
    from .serve import AllocationDaemon

    try:
        daemon = AllocationDaemon(_serve_config(args))
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        await daemon.start(socket_path=args.socket, port=args.port)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, daemon.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        where = args.socket or f"{args.host}:{daemon.port}"
        print(f"mapa serve: listening on {where}", flush=True)
        await daemon.serve_until_drained()

    asyncio.run(run())
    counters = daemon.metrics.as_dict()
    print(
        f"mapa serve: drained — {counters['allocated']} allocated, "
        f"{counters['released']} released, "
        f"{counters['forced_releases']} forced, "
        f"{counters['spilled_entries']} cache entries spilled"
    )
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """``mapa client``: one request against a running daemon."""
    import json as _json

    from .serve import AllocationClient

    try:
        client = AllocationClient(
            socket_path=args.socket, host=args.host, port=args.port,
            timeout=args.timeout,
        )
    except (OSError, ValueError) as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 2
    with client:
        try:
            if args.action == "submit":
                if args.job is None:
                    print("client: submit needs --job", file=sys.stderr)
                    return 2
                response = client.submit(
                    args.job,
                    gpus=args.gpus,
                    pattern=args.pattern,
                    workload=args.workload,
                    sensitive=not args.insensitive,
                    tenant=args.tenant,
                    wait=not args.no_wait,
                )
            elif args.action in ("release", "query"):
                if args.job is None:
                    print(f"client: {args.action} needs --job",
                          file=sys.stderr)
                    return 2
                response = getattr(client, args.action)(args.job)
            elif args.action == "stats":
                response = client.stats()
            elif args.action == "drain":
                response = client.drain()
            else:
                response = client.ping()
        except (ConnectionError, OSError) as exc:
            print(f"client: {exc}", file=sys.stderr)
            return 2
    print(_json.dumps(response, indent=2, sort_keys=True))
    status = response.get("status") if isinstance(response, dict) else None
    if status == "error":
        return 2
    if status in ("rejected", "noroom", "unknown"):
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``mapa fleet``: sharded fleet-scale replay, digest and counters.

    Replays the fleet benchmark's deterministic MMPP scenario through
    :class:`~repro.cluster.ShardedFleetScheduler`, so the printed digest
    for the default fleet/jobs/seed is directly comparable with
    ``benchmarks/BENCH_fleet_shard.json`` — and invariant in the shard
    count, which is the whole point.
    """
    import hashlib
    import json
    import time as _time

    from .cluster import ShardedFleetScheduler, ShardedFleetSimulator
    from .scenarios import FleetSpec, MMPPArrivals, ScenarioSpec, mixed_fleet

    try:
        fleet = (
            FleetSpec.parse(args.fleet)
            if args.fleet
            else mixed_fleet(args.servers)
        )
        spec = ScenarioSpec(
            num_jobs=args.jobs,
            seed=args.seed,
            arrival=MMPPArrivals(
                quiet_rate=1.0,
                burst_rate=20.0,
                quiet_dwell=300.0,
                burst_dwell=60.0,
            ),
            name="fleet-scale",
        ).resolve(fleet.min_gpus_per_server())
        job_file = spec.build()
        scheduler = ShardedFleetScheduler(
            fleet,
            args.shards,
            gpu_policy=args.policy,
            node_policy=args.node_policy,
            engine=args.engine,
            mode=args.mode,
        )
    except ValueError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    with scheduler:
        sim = ShardedFleetSimulator(scheduler)
        started = _time.perf_counter()
        log = sim.run(job_file)
        wall = _time.perf_counter() - started
        if args.check:
            scheduler.check_mirror()
    digest = hashlib.sha256(
        json.dumps(log.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    stats = log.cache_stats or {}
    rows = [
        ["fleet", f"{fleet.num_servers} servers ({fleet.label()})"],
        ["shards", f"{args.shards} ({args.mode})"],
        ["jobs replayed", str(len(log))],
        ["replay wall (s)", f"{wall:.2f}"],
        ["throughput (jobs/s)", f"{len(log) / wall:.0f}"],
        ["simulated makespan (s)", f"{log.makespan:.0f}"],
        ["log digest (sha256)", digest],
    ]
    cache_line = _scan_cache_line(stats)
    if cache_line is not None:
        rows.append(["scan cache", cache_line])
    rows.extend(_per_shard_cache_rows(stats))
    if args.check:
        rows.append(["mirror check", "consistent"])
    print(
        format_table(
            ["metric", "value"],
            rows,
            title="Sharded fleet replay — shard-count-invariant digest",
        )
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    """``mapa fit``: refit Eq. 2 for a topology, print coefficients."""
    hw = by_name(args.topology)
    model, quality, samples = fit_for_hardware(hw)
    rows = [
        [f"θ{i+1}", FEATURE_NAMES[i], PAPER_COEFFICIENTS[i], model.coefficients[i]]
        for i in range(len(FEATURE_NAMES))
    ]
    print(
        format_table(
            ["coeff", "feature", "paper", "refit"],
            rows,
            title=f"Eq. 2 coefficients — {hw.name} ({len(samples)} census samples)",
        )
    )
    print(
        f"fit quality: rel.err={quality.relative_error:.4f} "
        f"RMSE={quality.rmse:.3f} MAE={quality.mae:.3f} R²={quality.r_squared:.4f}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """``mapa report``: regenerate the markdown reproduction report."""
    from .analysis.report import generate_report, write_report

    if args.output:
        write_report(
            args.output,
            num_jobs=args.jobs,
            seed=args.seed,
            topologies=args.topologies,
        )
        print(f"report written to {args.output}")
    else:
        print(
            generate_report(
                num_jobs=args.jobs, seed=args.seed, topologies=args.topologies
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full ``mapa`` argparse tree (also rendered by ``repro.docgen``)."""
    parser = argparse.ArgumentParser(
        prog="mapa", description="MAPA (SC '21) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topos", help="list server topologies").set_defaults(
        func=_cmd_topos
    )

    p_alloc = sub.add_parser("alloc", help="allocate one pattern on an idle server")
    p_alloc.add_argument(
        "--topology", default="dgx1-v100", help="server topology name (see `mapa topos`)"
    )
    p_alloc.add_argument(
        "--policy",
        default="preserve",
        choices=POLICY_NAMES,
        help="pattern-selection policy",
    )
    p_alloc.add_argument(
        "--pattern", default="ring", help="application pattern (ring, tree, star, …)"
    )
    p_alloc.add_argument("--gpus", type=int, default=3, help="GPUs requested")
    p_alloc.add_argument(
        "--insensitive", action="store_true", help="mark the job bandwidth-insensitive"
    )
    p_alloc.set_defaults(func=_cmd_alloc)

    p_trace = sub.add_parser("trace", help="simulate a job trace under all policies")
    p_trace.add_argument(
        "--topology", default="dgx1-v100", help="server topology name (see `mapa topos`)"
    )
    p_trace.add_argument(
        "--jobs", type=int, default=300, help="number of jobs to generate"
    )
    p_trace.add_argument(
        "--seed", type=int, default=2021, help="trace-generator RNG seed"
    )
    p_trace.add_argument("--jobfile", help="CSV job file to replay instead")
    p_trace.add_argument(
        "--scheduling",
        default="fifo",
        choices=tuple(DISCIPLINES),  # live view: includes registered plugins
        help="queue discipline for the simulated dispatcher",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a topology×policy×discipline grid in parallel, with caching",
    )
    p_sweep.add_argument(
        "--grid",
        nargs="*",
        default=[],
        metavar="AXIS=V1,V2",
        help=(
            "grid axes as axis=value[,value...] items; axes: topology, "
            "policy, discipline; 'all' expands an axis to every "
            "registered value (default grid: dgx1-v100 × the four "
            "policies × fifo)"
        ),
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes for cache misses"
    )
    p_sweep.add_argument(
        "--trace-jobs", type=int, default=300, help="jobs in the generated trace"
    )
    p_sweep.add_argument(
        "--seed", type=int, default=2021, help="trace-generator RNG seed"
    )
    p_sweep.add_argument(
        "--max-gpus",
        type=int,
        default=5,
        help="largest GPU request (clamped to each topology's size)",
    )
    p_sweep.add_argument(
        "--model",
        default="refit",
        choices=("refit", "paper"),
        help="Eq. 2 scoring model: per-topology refit or paper coefficients",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p_sweep.add_argument(
        "--cache-dir",
        help="result-cache directory (default: $MAPA_SWEEP_CACHE or "
        ".mapa_sweep_cache)",
    )
    p_sweep.add_argument(
        "--format",
        default="table",
        choices=("table", "json", "csv"),
        help="output format for the per-cell summary",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scen = sub.add_parser(
        "scenario",
        help=(
            "generate a stochastic scenario; describe, export, "
            "fleet-replay or sweep it"
        ),
        description=(
            "Generate a seeded stochastic scenario trace (arrival process "
            "× job mix).  By default a summary is printed; --output saves "
            "the trace as a replayable CSV, --fleet replays it on a "
            "heterogeneous multi-server fleet, and --grid sweeps it "
            "through the cached experiment grid exactly like a paper "
            "trace."
        ),
    )
    from .cluster import NODE_POLICIES
    from .scenarios import ARRIVAL_KINDS, MIX_PRESETS

    p_scen.add_argument(
        "--arrival",
        default="poisson",
        choices=tuple(ARRIVAL_KINDS),  # live view of the registry
        help="arrival process shaping the submit times",
    )
    p_scen.add_argument(
        "--rate",
        type=float,
        default=1.0,
        help="arrival rate in jobs/s (poisson), or the diurnal trough rate",
    )
    p_scen.add_argument(
        "--peak-rate",
        type=float,
        default=4.0,
        help="diurnal peak rate (jobs/s)",
    )
    p_scen.add_argument(
        "--period",
        type=float,
        default=86400.0,
        help="diurnal period in seconds (default: one day)",
    )
    p_scen.add_argument(
        "--quiet-rate", type=float, default=0.2, help="MMPP quiet-state rate (jobs/s)"
    )
    p_scen.add_argument(
        "--burst-rate", type=float, default=5.0, help="MMPP burst-state rate (jobs/s)"
    )
    p_scen.add_argument(
        "--quiet-dwell",
        type=float,
        default=600.0,
        help="MMPP mean quiet-state dwell time (s)",
    )
    p_scen.add_argument(
        "--burst-dwell",
        type=float,
        default=60.0,
        help="MMPP mean burst-state dwell time (s)",
    )
    p_scen.add_argument(
        "--mix",
        default="paper",
        choices=tuple(MIX_PRESETS),  # live view of the registry
        help="workload × GPU-size mix preset",
    )
    p_scen.add_argument(
        "--num-jobs", type=int, default=300, help="jobs in the generated scenario"
    )
    p_scen.add_argument(
        "--seed", type=int, default=2021, help="scenario RNG seed"
    )
    p_scen.add_argument(
        "--output",
        help=(
            "write the generated trace to this CSV file (with --fleet, "
            "the resolved trace the replay consumes; not valid with "
            "--grid)"
        ),
    )
    p_scen.add_argument(
        "--fleet",
        help=(
            "replay on a heterogeneous fleet given as topo[:count] groups, "
            "e.g. dgx1-v100:40,dgx1-p100:16,dgx2:8"
        ),
    )
    p_scen.add_argument(
        "--policy",
        default="preserve",
        choices=POLICY_NAMES,
        help="GPU-selection policy inside each node (fleet replay)",
    )
    p_scen.add_argument(
        "--node-policy",
        default="first-fit",
        choices=NODE_POLICIES,
        help="server-selection policy (fleet replay)",
    )
    p_scen.add_argument(
        "--scheduling",
        default="fifo",
        choices=tuple(DISCIPLINES),  # live view: includes registered plugins
        help="queue discipline (fleet replay)",
    )
    p_scen.add_argument(
        "--grid",
        nargs="*",
        default=None,
        metavar="AXIS=V1,V2",
        help=(
            "sweep this scenario through a topology/policy/discipline "
            "grid (same syntax as `mapa sweep --grid`; pass with no "
            "items for the default grid)"
        ),
    )
    p_scen.add_argument(
        "--workers", type=int, default=1, help="sweep worker processes"
    )
    p_scen.add_argument(
        "--model",
        default="refit",
        choices=("refit", "paper"),
        help="Eq. 2 scoring model for sweeps",
    )
    p_scen.add_argument(
        "--no-cache", action="store_true", help="disable the sweep result cache"
    )
    p_scen.add_argument(
        "--cache-dir",
        help="sweep result-cache directory (default: $MAPA_SWEEP_CACHE or "
        ".mapa_sweep_cache)",
    )
    p_scen.add_argument(
        "--format",
        default="table",
        choices=("table", "json", "csv"),
        help="sweep output format",
    )
    p_scen.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "with --fleet: replay through this many scheduler shards "
            "(0 = the classic single-scheduler path; FIFO only, "
            "shardable node policies only; the log is byte-identical "
            "either way)"
        ),
    )
    p_scen.add_argument(
        "--dynamics",
        help=(
            "seeded fleet-chaos axis as key=value pairs, e.g. "
            "'seed=7,horizon=600,failures=3,grows=1,shrinks=1,"
            "preemptions=5,casualty=requeue,victim=youngest' — server "
            "failure/repair, autoscale and preemption events injected "
            "into the replay under any --scheduling discipline (hashes "
            "into sweep cells like any other scenario axis)"
        ),
    )
    p_scen.set_defaults(func=_cmd_scenario)

    p_cache = sub.add_parser(
        "cache",
        help="inspect, exercise or clear the on-disk caches",
        description=(
            "Maintain the content-addressed cache on disk: `stats` "
            "reports file counts and bytes for both namespaces (sweep "
            "cells under cells/, spilled scan partitions under scan/) "
            "and orphaned debris (temp files, files of older layouts); "
            "`clear` "
            "deletes cached files (everything, or just the orphans with "
            "--orphans); `spill` replays a deterministic scenario cold "
            "and writes its scan winners into the persistent scan tier; "
            "`warm` replays the same scenario with a cache warm-started "
            "from the tier and reports the first-pass hit rate.  "
            "Everything here regenerates on demand, so clearing is "
            "always safe."
        ),
    )
    p_cache.add_argument(
        "action",
        choices=("stats", "clear", "warm", "spill"),
        help="report disk usage, delete cached files, or exercise the "
        "persistent scan tier",
    )
    p_cache.add_argument(
        "--cache-dir",
        help="result-cache directory (default: $MAPA_SWEEP_CACHE or "
        ".mapa_sweep_cache)",
    )
    p_cache.add_argument(
        "--orphans",
        action="store_true",
        help="with `clear`: delete only orphaned debris, keep valid entries",
    )
    p_cache.add_argument(
        "--tmp-age",
        type=float,
        default=None,
        help="with `clear --orphans`: minimum age (seconds) before a "
        "leaked .tmp-* file is considered abandoned and deleted "
        "(default: 1 hour; 0 sweeps them all — only safe with no "
        "writers running)",
    )
    p_cache.add_argument(
        "--fleet",
        default="dgx1-v100:3,dgx2:1",
        help="with `warm`/`spill`: fleet spec, topo[:count],… "
        "(see `mapa topos`)",
    )
    p_cache.add_argument(
        "--jobs",
        type=int,
        default=500,
        help="with `warm`/`spill`: jobs in the replayed scenario",
    )
    p_cache.add_argument(
        "--seed",
        type=int,
        default=2021,
        help="with `warm`/`spill`: scenario seed",
    )
    p_cache.add_argument(
        "--policy",
        default="preserve",
        choices=POLICY_NAMES,
        help="with `warm`/`spill`: GPU-selection policy",
    )
    p_cache.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "with `warm`/`spill`: replay through this many scheduler "
            "shards, each with its own scan cache attached to the one "
            "on-disk tier (0 = single scheduler); reports per-shard "
            "hit rates"
        ),
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="run the allocation daemon (allocation-as-a-service)",
        description=(
            "Host a MAPA scheduler behind a long-running socket speaking "
            "newline-delimited JSON (see `mapa client`).  The daemon "
            "owns admission control (bounded wait queue, per-tenant "
            "quotas), dispatches as soon as work arrives while coalescing "
            "a pipelined burst (bounded by --flush-window) into a single "
            "scheduler dispatch, and on drain spills the "
            "warm scan cache to the persistent tier so a restart starts "
            "hot.  --shards N swaps the in-process scheduler for the "
            "sharded fleet scheduler behind the same protocol.  --bench "
            "self-hosts a daemon, pumps a seeded scenario through it "
            "and reports sustained requests/sec."
        ),
    )
    p_serve.add_argument("--socket", help="unix socket path to listen on")
    p_serve.add_argument(
        "--port", type=int, help="TCP port to listen on (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address"
    )
    p_serve.add_argument(
        "--fleet",
        default="dgx1-v100:40,dgx1-p100:16,dgx2:8",
        help="fleet spec, topo[:count],… (see `mapa topos`)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="scheduler shards (0 = single in-process scheduler)",
    )
    p_serve.add_argument(
        "--mode",
        default="process",
        choices=("process", "inline"),
        help="shard execution mode (inline = same-process, for tests)",
    )
    p_serve.add_argument(
        "--policy",
        default="preserve",
        choices=POLICY_NAMES,
        help="GPU-selection policy",
    )
    p_serve.add_argument(
        "--node-policy",
        default="first-fit",
        choices=("first-fit", "pack", "spread"),
        help="server-selection policy (shardable subset)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="max submits waiting or pending before queue-full rejection",
    )
    p_serve.add_argument(
        "--flush-window",
        type=float,
        default=0.0,
        help="upper bound, in seconds, on coalescing arrivals into one "
        "dispatch, not a delay: a dispatch waits only while each loop "
        "tick brings new ops (0 = dispatch whatever each wake collected)",
    )
    p_serve.add_argument(
        "--quota-gpus",
        type=int,
        help="per-tenant cap on outstanding GPUs (default: none)",
    )
    p_serve.add_argument(
        "--quota-requests",
        type=int,
        help="per-tenant cap on outstanding jobs (default: none)",
    )
    p_serve.add_argument(
        "--spill-dir",
        help="cache root for the persistent scan tier (warm start on "
        "boot, spill on drain)",
    )
    p_serve.add_argument(
        "--metrics-json",
        help="write the final metrics snapshot to this file on drain",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=2.0,
        help="seconds to wait for voluntary releases before forcing",
    )
    p_serve.add_argument(
        "--bench",
        action="store_true",
        help="self-hosted load run: start a daemon, pump a seeded "
        "scenario through it, report requests/sec",
    )
    p_serve.add_argument(
        "--bench-jobs",
        type=int,
        default=2000,
        help="with --bench: jobs in the load run",
    )
    p_serve.add_argument(
        "--seed", type=int, default=11, help="with --bench: scenario seed"
    )
    p_serve.add_argument(
        "--bench-window",
        type=int,
        default=64,
        help="with --bench: max in-flight requests on the wire",
    )
    p_serve.add_argument(
        "--bench-active",
        type=int,
        default=48,
        help="with --bench: live allocations kept before releasing "
        "the oldest",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="talk to a running allocation daemon",
        description=(
            "One request against a `mapa serve` daemon: submit a GPU "
            "request (blocking until allocated unless --no-wait), "
            "release or query a job, fetch the metrics snapshot, or "
            "drain the daemon.  Prints the JSON response; exit code 0 "
            "on success, 1 on rejected/noroom/unknown, 2 on errors."
        ),
    )
    p_client.add_argument(
        "action",
        choices=("submit", "release", "query", "stats", "drain", "ping"),
        help="operation to perform",
    )
    p_client.add_argument("--socket", help="daemon's unix socket path")
    p_client.add_argument("--port", type=int, help="daemon's TCP port")
    p_client.add_argument(
        "--host", default="127.0.0.1", help="daemon's TCP host"
    )
    p_client.add_argument("--job", help="job id (submit/release/query)")
    p_client.add_argument(
        "--gpus", type=int, default=1, help="GPUs to request (submit)"
    )
    p_client.add_argument(
        "--pattern", default="ring", help="communication pattern (submit)"
    )
    p_client.add_argument(
        "--workload",
        default="resnet-50",
        help="catalog workload profile (submit)",
    )
    p_client.add_argument(
        "--tenant", default="default", help="tenant bucket (submit)"
    )
    p_client.add_argument(
        "--insensitive",
        action="store_true",
        help="submit as bandwidth-insensitive",
    )
    p_client.add_argument(
        "--no-wait",
        action="store_true",
        help="answer noroom immediately instead of queueing",
    )
    p_client.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket timeout in seconds",
    )
    p_client.set_defaults(func=_cmd_client)

    p_fleet = sub.add_parser(
        "fleet",
        help="sharded fleet-scale replay (multi-process scheduler shards)",
        description=(
            "Partition a heterogeneous fleet into N scheduler shards — "
            "worker processes sharing one read-only shared-memory "
            "topology segment — and replay a deterministic MMPP "
            "scenario.  Prints replay throughput, the canonical "
            "sha-256 log digest (invariant in the shard count, and for "
            "the default fleet/jobs/seed comparable with "
            "benchmarks/BENCH_fleet_shard.json), and aggregate plus "
            "per-shard scan-cache counters."
        ),
    )
    from .cluster import SHARDABLE_NODE_POLICIES

    p_fleet.add_argument(
        "--servers",
        type=int,
        default=64,
        help="fleet size for the representative mixed fleet "
        "(ignored when --fleet is given)",
    )
    p_fleet.add_argument(
        "--fleet",
        help="explicit fleet spec as topo[:count] groups, e.g. "
        "dgx1-v100:40,dgx1-p100:16,dgx2:8",
    )
    p_fleet.add_argument(
        "--jobs", type=int, default=10000, help="jobs in the replayed scenario"
    )
    p_fleet.add_argument(
        "--seed", type=int, default=2021, help="scenario RNG seed"
    )
    p_fleet.add_argument(
        "--shards", type=int, default=4, help="scheduler shard count"
    )
    p_fleet.add_argument(
        "--policy",
        default="preserve",
        choices=POLICY_NAMES,
        help="GPU-selection policy inside each node",
    )
    p_fleet.add_argument(
        "--node-policy",
        default="first-fit",
        choices=SHARDABLE_NODE_POLICIES,
        help="server-selection policy (shardable subset)",
    )
    p_fleet.add_argument(
        "--engine",
        default="cached",
        choices=SCAN_ENGINES,
        help="scan source inside each shard (both bit-identical)",
    )
    p_fleet.add_argument(
        "--mode",
        default="process",
        choices=("process", "inline"),
        help="shard transport: worker processes over shared memory, "
        "or inline in-process shards (debugging)",
    )
    p_fleet.add_argument(
        "--check",
        action="store_true",
        help="verify routing mirrors against shard state after the replay",
    )
    p_fleet.set_defaults(func=_cmd_fleet)

    p_fit = sub.add_parser("fit", help="fit the Eq. 2 model for a topology")
    p_fit.add_argument(
        "--topology", default="dgx1-v100", help="server topology name (see `mapa topos`)"
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_cluster = sub.add_parser(
        "cluster", help="compare node-selection policies on a server fleet"
    )
    p_cluster.add_argument(
        "--servers",
        nargs="+",
        default=["dgx1-v100", "dgx1-v100"],
        help="topology names, one per server",
    )
    p_cluster.add_argument(
        "--policy",
        default="preserve",
        choices=POLICY_NAMES,
        help="GPU-selection policy inside each node",
    )
    p_cluster.add_argument(
        "--jobs", type=int, default=100, help="number of jobs to generate"
    )
    p_cluster.add_argument(
        "--seed", type=int, default=2021, help="trace-generator RNG seed"
    )
    p_cluster.add_argument(
        "--scheduling",
        default="fifo",
        choices=tuple(DISCIPLINES),  # live view: includes registered plugins
        help="queue discipline for the cluster-wide dispatcher",
    )
    p_cluster.set_defaults(func=_cmd_cluster)

    p_report = sub.add_parser(
        "report", help="regenerate the full reproduction report (markdown)"
    )
    p_report.add_argument(
        "--jobs", type=int, default=300, help="number of jobs to generate"
    )
    p_report.add_argument(
        "--seed", type=int, default=2021, help="trace-generator RNG seed"
    )
    p_report.add_argument("--output", help="write to file instead of stdout")
    p_report.add_argument(
        "--topologies",
        nargs="+",
        default=["dgx1-v100", "torus-2d-16", "cube-mesh-16"],
        help="topologies to include in the report",
    )
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
