"""Fleet-chaos benchmark: seeded dynamics, byte-identical everywhere.

The dynamics axis (:mod:`repro.scenarios.dynamics`) injects server
failure/repair, autoscale grow/shrink and preemption into a fleet
replay as first-class seeded events.  Its contract is the same one
every other replay path carries: a fixed seed must produce the same
log byte for byte on every engine (``cached`` / ``batch``) and every
shard count — chaos included.

Four deterministic tables (all golden-snapshotted):

1. ``chaos_failures`` — the failure/repair axis swept over failure
   count × casualty policy (requeue vs kill), showing how churn moves
   completed-job count, makespan and waits;
2. ``chaos_autoscale`` — grow/shrink combinations, showing capacity
   changes absorbed mid-replay;
3. ``chaos_preempt`` — preemption count × victim policy;
4. ``chaos_mixed`` — the full-chaos identity matrix: one scenario with
   all axes enabled, replayed on every engine and at 1/2/4 process
   shards, each digest shown and gated identical.

The mixed-scenario digest is additionally gated against the committed
``BENCH_fleet_chaos.json`` baseline, so any replay-order or float
drift under chaos fails CI even if it drifts *consistently* across
paths.  Per-path scan-cache statistics are written to
``chaos_cache_stats.json`` next to the result tables, which CI uploads
as a job artifact.

Set ``MAPA_UPDATE_BENCH=1`` to regenerate the committed baseline after
an intentional change.

Run standalone:  PYTHONPATH=src python benchmarks/bench_fleet_chaos.py
"""

import hashlib
import json
import os
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.tables import format_table
from repro.cluster import run_cluster, run_sharded
from repro.ioutils import atomic_write_text
from repro.scenarios import (
    DynamicsSpec,
    PoissonArrivals,
    ScenarioSpec,
    mixed_fleet,
    paper_mix,
)

try:
    from conftest import RESULTS_DIR, emit
except ImportError:  # standalone run, outside pytest's benchmarks rootdir
    RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

    def emit(experiment: str, text: str) -> None:
        print(f"\n===== {experiment} =====\n{text}")

#: Fleet size and trace length of every chaos scenario in this file —
#: small enough that ~20 replays stay in benchmark-suite budget, large
#: enough that chaos events land on a busy fleet.
NUM_SERVERS = 16
NUM_JOBS = 1_200

#: Chaos events are drawn inside this window (arrivals span ~600 s).
HORIZON = 600.0

#: Shard counts exercised by the identity matrix (process mode).
SHARD_COUNTS = (1, 2, 4)

#: The full-chaos scenario the identity matrix and digest gate replay.
MIXED_DYNAMICS = DynamicsSpec(
    seed=2021,
    horizon=HORIZON,
    failures=3,
    mean_downtime=120.0,
    grows=2,
    shrinks=2,
    preemptions=8,
    casualty="requeue",
    victim="rank",
)

#: Committed baseline of this benchmark.
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_fleet_chaos.json"
)


def _scenario() -> Tuple[object, object]:
    """(fleet, job file) — one fixed trace shared by every pass."""
    fleet = mixed_fleet(NUM_SERVERS)
    spec = ScenarioSpec(
        num_jobs=NUM_JOBS,
        seed=2021,
        arrival=PoissonArrivals(rate=2.0),
        mix=paper_mix(),
        name="fleet-chaos",
    ).resolve(fleet.min_gpus_per_server())
    return fleet, spec.build()


def _digest(log) -> str:
    """The log's canonical sha256 (the cross-path identity token)."""
    return hashlib.sha256(
        json.dumps(log.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _metrics(log) -> Tuple[int, float, float, float]:
    """(completed jobs, makespan, mean wait, p95 wait) of one replay."""
    waits = [r.wait_time for r in log.records]
    mean_wait = float(np.mean(waits)) if waits else 0.0
    p95_wait = float(np.percentile(waits, 95)) if waits else 0.0
    return len(log), log.makespan, mean_wait, p95_wait


def _replay(fleet, job_file, dynamics, **kwargs):
    """One single-process chaos replay; returns the log."""
    return run_cluster(
        fleet.build(), job_file, dynamics=dynamics, **kwargs
    ).log


def _failures_table(fleet, job_file) -> str:
    """Failure/repair axis: count × casualty policy."""
    rows: List[List[str]] = []
    for failures in (0, 2, 4, 8):
        for casualty in ("requeue", "kill"):
            if failures == 0 and casualty == "kill":
                continue  # identical to the requeue row
            dyn = DynamicsSpec(
                seed=5,
                horizon=HORIZON,
                failures=failures,
                mean_downtime=120.0,
                casualty=casualty,
            )
            done, makespan, mean_wait, p95 = _metrics(
                _replay(fleet, job_file, dyn if failures else None)
            )
            rows.append(
                [
                    str(failures),
                    casualty if failures else "—",
                    str(done),
                    f"{makespan:.1f}",
                    f"{mean_wait:.1f}",
                    f"{p95:.1f}",
                ]
            )
    return format_table(
        [
            "failures",
            "casualty",
            "jobs done",
            "makespan (s)",
            "mean wait (s)",
            "p95 wait (s)",
        ],
        rows,
        title=(
            f"Fleet chaos — failure/repair axis "
            f"({NUM_SERVERS} servers, {NUM_JOBS} jobs, seed 5)"
        ),
    )


def _autoscale_table(fleet, job_file) -> str:
    """Autoscale axis: grow/shrink combinations."""
    rows: List[List[str]] = []
    for grows, shrinks in ((0, 0), (2, 0), (0, 2), (2, 2)):
        dyn = DynamicsSpec(
            seed=6, horizon=HORIZON, grows=grows, shrinks=shrinks
        )
        done, makespan, mean_wait, p95 = _metrics(
            _replay(fleet, job_file, dyn if grows or shrinks else None)
        )
        rows.append(
            [
                str(grows),
                str(shrinks),
                str(NUM_SERVERS + grows),
                str(done),
                f"{makespan:.1f}",
                f"{mean_wait:.1f}",
                f"{p95:.1f}",
            ]
        )
    return format_table(
        [
            "grows",
            "shrinks",
            "end servers",
            "jobs done",
            "makespan (s)",
            "mean wait (s)",
            "p95 wait (s)",
        ],
        rows,
        title=(
            f"Fleet chaos — autoscale axis "
            f"({NUM_SERVERS} servers, {NUM_JOBS} jobs, seed 6)"
        ),
    )


def _preempt_table(fleet, job_file) -> str:
    """Preemption axis: eviction count × victim policy."""
    rows: List[List[str]] = []
    for preemptions in (0, 4, 16):
        for victim in ("youngest", "oldest"):
            if preemptions == 0 and victim == "oldest":
                continue  # identical to the youngest row
            dyn = DynamicsSpec(
                seed=7, horizon=HORIZON, preemptions=preemptions, victim=victim
            )
            done, makespan, mean_wait, p95 = _metrics(
                _replay(fleet, job_file, dyn if preemptions else None)
            )
            rows.append(
                [
                    str(preemptions),
                    victim if preemptions else "—",
                    str(done),
                    f"{makespan:.1f}",
                    f"{mean_wait:.1f}",
                    f"{p95:.1f}",
                ]
            )
    return format_table(
        [
            "preemptions",
            "victim",
            "jobs done",
            "makespan (s)",
            "mean wait (s)",
            "p95 wait (s)",
        ],
        rows,
        title=(
            f"Fleet chaos — preemption axis "
            f"({NUM_SERVERS} servers, {NUM_JOBS} jobs, seed 7)"
        ),
    )


def _mixed_matrix(
    fleet, job_file
) -> Tuple[str, str, bool, Dict[str, Dict[str, float]]]:
    """Full-chaos identity matrix; (table, digest, identical?, stats)."""
    digests: List[Tuple[str, str]] = []
    all_stats: Dict[str, Dict[str, float]] = {}
    for engine in ("cached", "batch"):
        sim = run_cluster(
            fleet.build(), job_file, engine=engine, dynamics=MIXED_DYNAMICS
        )
        # "/columnar" names the replay core, as the golden rows always have.
        digests.append((f"{engine}/columnar", _digest(sim.log)))
        all_stats[engine] = sim.log.cache_stats or {}
    for shards in SHARD_COUNTS:
        log = run_sharded(
            fleet,
            job_file,
            shards,
            engine="cached",
            mode="process",
            dynamics=MIXED_DYNAMICS,
        )
        digests.append((f"sharded×{shards}", _digest(log)))
        all_stats[f"sharded_{shards}"] = log.cache_stats or {}
    reference = digests[0][1]
    identical = all(d == reference for _, d in digests)
    done, makespan, mean_wait, p95 = _metrics(
        _replay(fleet, job_file, MIXED_DYNAMICS)
    )
    rows = [[path, d[:12]] for path, d in digests]
    rows.append(["jobs done / makespan", f"{done} / {makespan:.1f}s"])
    rows.append(["mean / p95 wait (s)", f"{mean_wait:.1f} / {p95:.1f}"])
    rows.append(
        [
            f"byte-identical (all {len(digests)} paths)",
            "yes" if identical else "NO",
        ]
    )
    text = format_table(
        ["replay path", "log digest (sha256, 12)"],
        rows,
        title=(
            f"Fleet chaos — full-chaos identity matrix "
            f"({MIXED_DYNAMICS.describe()})"
        ),
    )
    return text, reference, identical, all_stats


def build_tables() -> Tuple[Dict[str, str], Dict[str, object], bool]:
    """Run every pass; returns (tables, gate inputs, identical?)."""
    fleet, job_file = _scenario()
    tables = {
        "chaos_failures": _failures_table(fleet, job_file),
        "chaos_autoscale": _autoscale_table(fleet, job_file),
        "chaos_preempt": _preempt_table(fleet, job_file),
    }
    matrix, digest, identical, all_stats = _mixed_matrix(fleet, job_file)
    tables["chaos_mixed"] = matrix

    stats_payload = {
        "servers": NUM_SERVERS,
        "jobs": NUM_JOBS,
        "dynamics": MIXED_DYNAMICS.to_dict(),
        "log_digest": digest,
        "byte_identical": identical,
        "cache_stats": all_stats,
    }
    atomic_write_text(
        os.path.join(RESULTS_DIR, "chaos_cache_stats.json"),
        json.dumps(stats_payload, indent=2, sort_keys=True) + "\n",
    )
    if os.environ.get("MAPA_UPDATE_BENCH"):
        atomic_write_text(
            BASELINE_PATH,
            json.dumps(
                {
                    "scenario": "fleet-chaos",
                    "servers": NUM_SERVERS,
                    "jobs": NUM_JOBS,
                    "dynamics": MIXED_DYNAMICS.to_dict(),
                    "log_digest": digest,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
    gates = {"digest": digest}
    return tables, gates, identical


def _assert_gates(gates: Dict[str, object], identical: bool) -> None:
    """The CI gates, shared by pytest and standalone runs."""
    assert identical, (
        "full-chaos replays are not byte-identical across engines "
        "and shard counts"
    )
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert gates["digest"] == baseline["log_digest"], (
            "full-chaos log digest differs from the committed baseline "
            f"({str(gates['digest'])[:12]} != "
            f"{baseline['log_digest'][:12]}) — seeded fleet dynamics "
            "are no longer replaying deterministically"
        )


def test_fleet_chaos(benchmark):
    tables, gates, identical = benchmark.pedantic(
        build_tables, rounds=1, iterations=1
    )
    for name, text in tables.items():
        emit(name, text)
    _assert_gates(gates, identical)


if __name__ == "__main__":
    tables, gates, identical = build_tables()
    for name, text in tables.items():
        emit(name, text)
    _assert_gates(gates, identical)
