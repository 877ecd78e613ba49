"""The repo's performance benchmark: one command, every metric by name.

One workload, as the benchmark driver calls it (last stdout line is the
JSON result; exit status is non-zero on any correctness failure)::

    python3 benchmarks/perf/run.py --workload fleet_fifo_warm \\
        --seed 2021 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes ``out/trace_<workload>.json``.

Without ``--workload`` every workload is run both ways, each in its own
process (peak RSS is per process), ``--repeat N`` times over, and the
collected results are written to ``--out``; with ``--repeat 2`` or more
the first half of the sets is compared against the second half by
``compare.py`` as a self-consistency check.

The benchmark imports the package from ``src/`` next to it and needs no
environment; in a directory without the program it exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from typing import Any, Callable, Dict, List, Optional

import harness
from harness import Context, Outcome


def _workloads() -> Dict[str, Callable[[Context], Outcome]]:
    """name -> entry point; imports the program, so called late."""
    import wl_fleet
    import wl_serve
    import wl_sweep

    return {
        "fleet_fifo_warm": wl_fleet.fleet_fifo_warm,
        "fleet_fifo_cold": wl_fleet.fleet_fifo_cold,
        "fleet_backfill": wl_fleet.fleet_backfill,
        "fleet_sharded": wl_fleet.fleet_sharded,
        "sweep_grid": wl_sweep.sweep_grid,
        "serve_churn": wl_serve.serve_churn,
    }


# ---------------------------------------------------------------------- #
# one workload, in this process
# ---------------------------------------------------------------------- #
def run_workload(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    """Run ``args.workload`` once; print its metrics and the JSON line."""
    harness.ensure_importable()
    workloads = _workloads()
    # A polite kill unwinds through the ``finally`` blocks that stop the
    # daemon, the shard workers and the resource tracker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    traced = bool(args.trace)
    declared = manifest["per_layer" if traced else "end_to_end"]
    shm_before = harness.shm_segments()
    workdir = harness.make_workdir(args.workload)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=traced,
        quick=args.quick,
        workdir=workdir,
    )
    if traced:
        from tracing import Tracer

        ctx.tracer = Tracer(args.workload)
    try:
        outcome = workloads[args.workload](ctx)
    finally:
        leftover = harness.reap_children()
        # Looked at before the resource tracker goes: stopping it unlinks
        # whatever the program leaked, which would hide the leak.
        leaked = harness.shm_segments() - shm_before
        leftover += harness.stop_all_children()
        shutil.rmtree(workdir, ignore_errors=True)
    outcome.check(leftover == 0, f"{leftover} child process(es) had to be killed")
    outcome.check(not leaked, f"leaked shared-memory segments: {sorted(leaked)}")

    if traced:
        ctx.tracer.dump(os.path.join(harness.OUT_DIR, f"trace_{args.workload}.json"))
        outcome.metrics["failed_share"] = outcome.failed / max(1, outcome.attempted)
        outcome.metrics["mem.peak_rss_mb"] = harness.peak_rss_mib()

    names = {metric["name"] for metric in declared}
    undeclared = sorted(set(outcome.metrics) - names)
    outcome.check(not undeclared, f"metrics not in BENCHMARK.json: {undeclared}")
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in declared:
        name = metric["name"]
        # A layer that is not on this workload's path did no work: 0.
        value = outcome.metrics.get(name, 0.0 if traced else None)
        if value is None or not math.isfinite(value):
            outcome.check(False, f"metric {name} missing or not finite: {value}")
            value = 0.0
        metrics[name] = {"value": value, "unit": metric["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if traced else 'untraced'}  seconds {args.seconds:g}"
          f"{'  quick' if args.quick else ''}")
    for name, entry in metrics.items():
        line = f"  {name:38s} {entry['value']:>16.6g} {entry['unit']}"
        samples = outcome.samples.get(name)
        if samples is not None:
            q1, q3 = samples.quartiles
            line += f"   (n={samples.n}, q1={q1:.6g}, q3={q3:.6g})"
        print(line)
    for key, value in outcome.details.items():
        print(f"  # {key}: {value}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": not outcome.problems,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        record = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            trace=int(traced),
            quick=args.quick,
            samples={k: s.as_dict() for k, s in outcome.samples.items()},
            details=outcome.details,
            problems=outcome.problems,
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------- #
# every workload, one process each
# ---------------------------------------------------------------------- #
def run_all(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    """Run every workload traced and untraced; collect, print, compare."""
    harness.ensure_importable()
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    sets: List[List[Dict[str, Any]]] = []
    status = 0
    for repeat in range(args.repeat):
        records: List[Dict[str, Any]] = []
        for workload in (w["name"] for w in manifest["workloads"]):
            for trace in (0, 1):
                part = os.path.join(harness.OUT_DIR, f"part-{os.getpid()}.json")
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", part,
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(done.stdout)
                if done.returncode != 0:
                    status = 1
                if os.path.exists(part):
                    with open(part, encoding="utf-8") as fh:
                        records.append(json.load(fh))
                    os.unlink(part)
        sets.append(records)
    document = {
        # A benchmark result states measurements; the PR that changes the
        # program states any gain, against this file, per compare.py.
        "claim": None,
        "environment": harness.fingerprint(args.seed),
        "seconds": args.seconds,
        "quick": args.quick,
        "sets": sets,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
    if args.repeat >= 2:
        import compare

        half = args.repeat // 2
        rows = compare.compare(
            manifest,
            [record for records in sets[:half] for record in records],
            [record for records in sets[half:] for record in records],
        )
        compare.print_rows(rows)
        if any(row["verdict"] == "regression" for row in rows):
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    manifest = harness.load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload only (default: all of them)")
    parser.add_argument("--seed", type=int, default=2021,
                        help="seed every generated input derives from")
    parser.add_argument("--seconds", type=float,
                        help="timed wall per run (default: run_seconds of "
                        "BENCHMARK.json; 0.1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: a few hundred jobs, 4 cells, 500 requests")
    parser.add_argument("--out", help="write the result record(s) to this file")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workload mode: complete sets to run")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.1 if args.quick else float(manifest["run_seconds"])
    try:
        if args.workload:
            return run_workload(args, manifest)
        return run_all(args, manifest)
    except ImportError as exc:
        print(f"benchmark cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
